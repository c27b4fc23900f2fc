"""Constructions checked by sympy, outside the steering-symbol calculus.

Every residual in the package goes through ``SteeringSymbol._dz`` and the
bar-flip rule, and so does the reference in ``test_dirac.py``.  Here each
term phi(w) G(y) of a construction is written out as an explicit function of
x_0..x_m: w = x_0 + i x_1 for a symbol, x_0 - i x_1 for its bar, with i
standing for e_1 (R_{0,1} is the complex numbers).  sympy splits phi(w) into
u + e_1 v, the blades of G multiply through the table below, built here from
the definition e_j e_j = -1, e_j e_k = -e_k e_j, and d/dx_j and e_j are
applied as written, then expanded.  From the package only the objects under
check are used, read through ``items()``; the seeds are built from
``CliffordPolynomial`` and ``Multivector``.

On a fixed grid at m = 3, the exp, trig and power constructions of order 1
and 2 are left n-monogenic, and those of order 2 are not left monogenic;
``construct_eigen(-1/3, H)`` is left monogenic with D-bar f / 2 = r f.  Each
row doubles the tail of one barred symbol too, which the check must reject.
"""

from fractions import Fraction

import pytest
import sympy

from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import (
    construct_eigen,
    construct_exp_left,
    construct_power_left,
    construct_trig_left,
)

M = 3
X = sympy.symbols(f"x0:{M + 1}", real=True)
BLADES = range(1 << M)  # bit j - 1 of a mask stands for e_j


def _reorder_sign(a, b):
    # e_A e_B = sign e_(A xor B): each generator of B moves left past the
    # larger ones of A, then each shared generator squares to -1
    swaps = sum(bin(a >> j).count("1") for j in range(1, M + 1) if b >> (j - 1) & 1)
    return -1 if (swaps + bin(a & b).count("1")) % 2 else 1


# (mask A, mask B) -> (sign, mask) of the product e_A e_B
TABLE = {(a, b): (_reorder_sign(a, b), a ^ b) for a in BLADES for b in BLADES}


def test_the_table_reads_as_the_algebra():
    e1, e2, e3 = 1, 2, 4
    assert TABLE[e1, e1] == (-1, 0)
    assert TABLE[e1, e2] == (1, e1 | e2) and TABLE[e2, e1] == (-1, e1 | e2)
    assert TABLE[e1 | e2, e1 | e2] == (-1, 0)
    assert TABLE[e3, e1 | e2] == (1, 7) and TABLE[e2, e1 | e3] == (-1, 7)
    assert TABLE[7, 7] == (1, 0)
    for a in BLADES:  # associative, checked on every triple
        for b in BLADES:
            for c in BLADES:
                s1, ab = TABLE[a, b]
                s2, left = TABLE[ab, c]
                s3, bc = TABLE[b, c]
                s4, right = TABLE[a, bc]
                assert (s1 * s2, left) == (s3 * s4, right)


def _times(mask, f):
    # e_mask f, blade by blade
    out = {}
    for b, c in f.items():
        sign, target = TABLE[mask, b]
        out[target] = out.get(target, 0) + sign * c
    return out


def _add(*fs):
    out = {}
    for f in fs:
        for b, c in f.items():
            out[b] = out.get(b, 0) + c
    return out


def _scaled(f, q):
    return {b: q * c for b, c in f.items()}


def _symbol_function(sym):
    # phi(w) for the symbol's kind, power and rate, with w its argument
    w = X[0] - sympy.I * X[1] if sym.bar else X[0] + sympy.I * X[1]
    r = sympy.Rational(sym.rate.numerator, sym.rate.denominator)
    if sym.kind == "cos":
        return sympy.cos(r * w)
    if sym.kind == "sin":
        return sympy.sin(r * w)
    return w**sym.power * sympy.exp(r * w)


def explicit(expr, doubled=None):
    """sum phi(w) G(y) over the terms of ``expr`` as blade -> function of x;
    the term of the symbol ``doubled`` counts twice."""
    out = {}
    for sym, poly in expr.items():
        u, v = sympy.expand_complex(_symbol_function(sym)).as_real_imag()
        g = {}
        for exps, mv in poly.items():
            monomial = sympy.Mul(*(x**k for x, k in zip(X, exps)))
            for mask, q in mv.items():
                g[mask] = g.get(mask, 0) + sympy.Rational(q.numerator, q.denominator) * monomial
        weight = 2 if sym is doubled else 1
        out = _add(out, _scaled(g, weight * u), _scaled(_times(1, g), weight * v))
    return out


def dirac(f, sign=1):
    """d/dx_0 f + sign * sum_j e_j d/dx_j f, e_j on the left."""
    out = {b: sympy.diff(c, X[0]) for b, c in f.items()}
    for j in range(1, M + 1):
        part = {b: sign * sympy.diff(c, X[j]) for b, c in f.items()}
        out = _add(out, _times(1 << (j - 1), part))
    return out


def is_zero(f):
    return all(sympy.expand(c) == 0 for c in f.values())


def _poly(terms):
    # {(x2, x3) exponents: {generator indices: coefficient}} as a polynomial in x2, x3
    terms = {
        (0, 0) + exps: Multivector(M, {sum(1 << (j - 1) for j in blade): Fraction(q)
                                       for blade, q in blades.items()})
        for exps, blades in terms.items()
    }
    return CliffordPolynomial(M, terms, var_scope=range(2, M + 1))


# harmonic in x2, x3
H1 = _poly({(1, 1): {(): 1, (1, 2): 2}, (1, 0): {(2, 3): -1}, (0, 0): {(1,): 3}})
H2 = _poly({(2, 0): {(3,): 1}, (0, 2): {(3,): -1}, (0, 1): {(): Fraction(1, 2)}})
# biharmonic and not harmonic
B1 = _poly({(2, 1): {(): 1, (2,): 1}, (0, 1): {(1, 3): 2}})
B2 = _poly({(3, 0): {(2, 3): 1}, (1, 0): {(): -4}})

GRID = [
    ("exp-1", 1, lambda: construct_exp_left(H1, 1)),
    ("exp-2", 2, lambda: construct_exp_left(B1, 2)),
    ("trig-1", 1, lambda: construct_trig_left(H1, H2, 1)),
    ("trig-2", 2, lambda: construct_trig_left(B1, B2, 2)),
    ("power-1", 1, lambda: construct_power_left([H2, H1], 1)),
    ("power-2", 2, lambda: construct_power_left([B2, B1], 2)),
]


@pytest.mark.parametrize("order, build", [row[1:] for row in GRID], ids=[r[0] for r in GRID])
def test_left_n_monogenic_and_its_tail_needed(order, build):
    expr = build()
    barred = [sym for sym, _ in expr.items() if sym.bar]
    assert barred
    for doubled in (None, barred[0]):
        f = explicit(expr, doubled)
        powers = [f]
        for _ in range(order):
            powers.append(dirac(powers[-1]))
        assert is_zero(powers[-1]) is (doubled is None)
        if order == 2 and doubled is None:  # the order is needed too
            assert not is_zero(powers[1])


def test_eigen_relation():
    r = Fraction(-1, 3)
    expr = construct_eigen(r, H1)
    barred = [sym for sym, _ in expr.items() if sym.bar]
    assert len(barred) == 1
    for doubled in (None, barred[0]):
        f = explicit(expr, doubled)
        monogenic = is_zero(dirac(f))
        # D f = (1/2) (d/dx_0 - sum_j e_j d/dx_j) f = r f
        rate = sympy.Rational(r.numerator, r.denominator)
        eigen = is_zero(_add(_scaled(dirac(f, -1), sympy.Rational(1, 2)), _scaled(f, -rate)))
        assert (monogenic, eigen) == ((True, True) if doubled is None else (False, False))
