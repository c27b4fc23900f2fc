"""The one construction rule behind every steering family.

Each family's conjugate side comes from ``steering._conjugate_side``: per
seed symbol, the barred targets and their (k, weight) lists.  The necessity
rows change one of those weights by one part in its denominator and check
that the built expression then fails its defining operator.  The golden
digest pins the documents and refusal texts of a fixed grid of constructor
calls, so that a rewrite of the rule keeps every output byte for byte.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from cliffsteer import steering
from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial, polyharmonic_basis
from cliffsteer.steering import (
    DSolveSpec,
    RootSpec,
    SteeringSymbol,
    construct_eigen,
    construct_exp_left,
    construct_power_left,
    construct_trig_left,
    construct_two_sided,
    dsolve,
)
from cliffsteer.verify import n_monogenic_residual
from helpers import dirac_y_power

RATES = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3, 2))


def _y(m):
    return range(2, m + 1)


def _right_monogenic(m, count):
    # e2 times a left monogenic polynomial is right monogenic, and M - e1 M e1 is
    # not zero
    return [
        Multivector.blade(m, (2,)) * h.dirac_y("left")
        for h in polyharmonic_basis(3, 1, m)[:count]
    ]


def _full_chain_seeds(m, order, count):
    # seeds whose every conjugate-side link dirac^(2k-1), k <= order, is nonzero,
    # so that every weight of the table reaches the expression
    basis = polyharmonic_basis(2 * order - 1, order, m)
    seeds = [b for b in basis if dirac_y_power(b, 2 * order - 1)][:count]
    assert len(seeds) == count
    return seeds


def _bumped(w):
    # one part in the denominator, away from zero
    return w + Fraction(1 if w > 0 else -1, w.denominator)


# (id, seed symbols, build, order the residual is taken at)
NECESSITY = []
for _order in (1, 2, 3):
    _a, _b = _full_chain_seeds(4, _order, 2)
    NECESSITY += [
        (f"exp-order-{_order}", [SteeringSymbol.power_exp(0, 1)],
         lambda a=_a, o=_order: construct_exp_left(a, o), _order),
        (f"trig-order-{_order}", [SteeringSymbol.cosine(1), SteeringSymbol.sine(1)],
         lambda a=_a, b=_b, o=_order: construct_trig_left(a, b, o), _order),
        # a nonconstant seed on z^0, then a gap, then a seed on z^2
        (f"power-order-{_order}", [SteeringSymbol.power_exp(i) for i in (0, 2)],
         lambda a=_a, b=_b, o=_order: construct_power_left([a, a * 0, b], o), _order),
    ]
_R = _right_monogenic(4, 2)
NECESSITY += [
    ("two-sided-exp", [SteeringSymbol.power_exp(0, 1)],
     lambda: construct_two_sided("exp", _R[0]), 1),
    ("two-sided-trig", [SteeringSymbol.cosine(1), SteeringSymbol.sine(1)],
     lambda: construct_two_sided("trig", (_R[0], _R[1])), 1),
    ("two-sided-power", [SteeringSymbol.power_exp(i) for i in (0, 1)],
     lambda: construct_two_sided("power", _R), 1),
]
# z sides beyond the presets, built through steering._construct: the Jordan family
# {z^j exp(-z/3) : j < 3} and a mixed family
Z_SIDES = {
    "jordan": [SteeringSymbol.power_exp(j, Fraction(-1, 3)) for j in range(3)],
    "mixed": [
        SteeringSymbol.power_exp(2, Fraction(-1, 3)),
        SteeringSymbol.cosine(Fraction(3, 2)),
        SteeringSymbol.power_exp(3),
        SteeringSymbol.sine(2),
        SteeringSymbol.power_exp(0, 2),
    ],
}


def _z_side(symbols, m, order):
    # three full-chain seeds, taken in turn
    seeds = _full_chain_seeds(m, order, 3)
    return [(f"seed {i}", sym, seeds[i % 3]) for i, sym in enumerate(symbols)]


for _order in (1, 2, 3):
    for _name, _symbols in Z_SIDES.items():
        NECESSITY.append(
            (f"{_name}-order-{_order}", _symbols,
             lambda z=_z_side(_symbols, 4, _order), o=_order: steering._construct(z, o), _order)
        )
for _rate in RATES:
    _h = _full_chain_seeds(4, 1, 1)[0]
    NECESSITY += [
        (f"eigen-rate-{_rate}", [SteeringSymbol.power_exp(0, _rate)],
         lambda r=_rate, h=_h: construct_eigen(r, h), 1),
        (f"dsolve-root-{_rate}", [SteeringSymbol.power_exp(0, _rate)],
         lambda r=_rate, h=_h: dsolve(DSolveSpec(4, (1, -r), (RootSpec(r, 1, h),))), 1),
    ]


@pytest.mark.parametrize("symbols, build, order", [row[1:] for row in NECESSITY],
                         ids=[row[0] for row in NECESSITY])
def test_every_weight_is_needed(monkeypatch, symbols, build, order):
    assert n_monogenic_residual(build(), order, "left").is_zero
    original = steering._conjugate_side
    changed = 0
    for sym in symbols:
        for target, weights in original(sym, order):
            for k, _ in weights:

                def mutated(s, n, sym=sym, target=target, k=k):
                    table = original(s, n)
                    if s != sym:
                        return table
                    return tuple(
                        (t, tuple((j, _bumped(w) if (t, j) == (target, k) else w)
                                  for j, w in ws))
                        for t, ws in table
                    )

                with monkeypatch.context() as patch:
                    patch.setattr(steering, "_conjugate_side", mutated)
                    report = n_monogenic_residual(build(), order, "left")
                assert not report.is_zero, (sym, target, k)
                changed += 1
    # one weight per symbol and link at least
    assert changed >= len(symbols) * order


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", list(Z_SIDES))
def test_any_z_side_is_completed_to_a_solution(name, order, m):
    z_side = _z_side(Z_SIDES[name], m, order)
    expr = steering._construct(z_side, order)
    assert n_monogenic_residual(expr, order, "left").is_zero
    for _, sym, seed in z_side:
        assert expr.coefficient(sym) == seed


# -- golden digest --------------------------------------------------------------


def _golden_calls():
    for m in (4, 5, 6):
        zero = CliffordPolynomial.zero(m, _y(m))
        square = CliffordPolynomial.monomial(m, {2: 2}, 1, _y(m))
        for order in (1, 2, 3, 4):
            b = polyharmonic_basis(2 * order - 1, order, m)[:3]
            too_high = CliffordPolynomial.monomial(m, {2: 2 * order}, 1, _y(m))
            for i in range(3):
                after = b[(i + 1) % 3]
                yield lambda b=b[i], o=order: construct_exp_left(b, o)
                yield lambda b=b[i], c=after, o=order: construct_trig_left(b, c, o)
                seeds = [b[i]] + [zero] * i + [after]
                yield lambda s=seeds, o=order: construct_power_left(s, o)
            yield lambda t=too_high, o=order: construct_exp_left(t, o)
            yield lambda b=b[0], t=too_high, o=order: construct_trig_left(b, t, o)
            yield lambda b=b[0], t=too_high, o=order: construct_power_left([b, t], o)
        h = polyharmonic_basis(2, 1, m)[:3]
        right = _right_monogenic(m, 3)
        for r in RATES:
            for s in h:
                yield lambda r=r, s=s: construct_eigen(r, s)
        yield lambda s=square: construct_eigen(2, s)
        for i in range(3):
            after = right[(i + 1) % 3]
            yield lambda s=right[i]: construct_two_sided("exp", s)
            yield lambda s=right[i], t=after: construct_two_sided("trig", (s, t))
            seeds = [right[i]] + [zero] * i + [after]
            yield lambda s=seeds: construct_two_sided("power", s)
        yield lambda s=h[0]: construct_two_sided("exp", s)
        mono = (CliffordPolynomial.variable(m, 2, _y(m)) * Multivector.blade(m, (2,))
                - CliffordPolynomial.variable(m, 3, _y(m)) * Multivector.blade(m, (3,)))
        specs = [
            ((1, 1, -2), (RootSpec(RATES[0], 1, h[0]), RootSpec(RATES[1], 1, h[1]))),
            ((1, -2, Fraction(3, 4)), (RootSpec(RATES[2], 1, h[2]), RootSpec(RATES[3], 1, h[0]))),
            ((1, -1, 0), (RootSpec(Fraction(0), 1, None, (mono,)), RootSpec(RATES[0], 1, h[1]))),
            ((1, -1), (RootSpec(RATES[0], 1, square),)),
        ]
        for coeffs, roots in specs:
            yield lambda m=m, c=coeffs, r=roots: dsolve(DSolveSpec(m, c, r))


# sha256 of the grid's outcomes, computed before the families shared one rule
GOLDEN = "7521d1dc0ef8c6ca2e3f1f6c24693b36778f2cf857918774e3b08fa15015cabf"


def test_constructor_outputs_match_the_golden_digest():
    digest = hashlib.sha256()
    outcomes = refused = 0
    for call in _golden_calls():
        try:
            outcome = call().to_obj()
        except (TypeError, ValueError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
            refused += 1
        digest.update(json.dumps(outcome, sort_keys=True).encode())
        outcomes += 1
    assert (outcomes, refused) == (225, 45)
    assert digest.hexdigest() == GOLDEN
