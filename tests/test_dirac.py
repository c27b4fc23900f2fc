"""``polynomials.dirac`` against its term-by-term definition.

The reference builds d/dx_0 f + sum_j e_j d/dx_j f (or the right-handed
version) from the public ``partial``, ``Multivector.blade`` products and
``+``, so it shares no code with the one-pass kernel.  Outputs are compared
as documents, which also pins the term order and the variable scope.
"""

import random
from fractions import Fraction

import pytest

from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial, dirac
from cliffsteer.steering import SteeringExpression, SteeringSymbol

DENOMINATORS = (1, 2, 3, 7)
RATES = (Fraction(1), Fraction(-3, 2), Fraction(1, 3), Fraction(2))


def reference(f, side, sign=1, y_only=False):
    total = f * 0 if y_only else f.partial(0)
    for j in range(2 if y_only else 1, f.m + 1):
        ej = Multivector.blade(f.m, (j,), sign)
        d = f.partial(j)
        total = total + (ej * d if side == "left" else d * ej)
    return total


def coefficient(rng, m):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1 << m)
        q = Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice(DENOMINATORS))
        terms[mask] = terms.get(mask, 0) + q
    return Multivector(m, terms)


def polynomial(rng, m, variables, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (m + 1)
        for v in variables:
            exps[v] = rng.randint(0, 3)
        terms[tuple(exps)] = coefficient(rng, m)
    return CliffordPolynomial(m, terms, var_scope=variables)


def symbol(rng):
    rate = rng.choice(RATES)
    bar = rng.random() < 0.5
    kind = rng.randrange(3)
    if kind == 0:
        return SteeringSymbol.power_exp(rng.randint(0, 3), rng.choice((0, rate)), bar)
    if kind == 1:
        return SteeringSymbol.cosine(rate, bar)
    return SteeringSymbol.sine(rate, bar)


def expression(rng, m):
    terms = [(symbol(rng), polynomial(rng, m, range(2, m + 1), 3)) for _ in range(4)]
    return SteeringExpression(m, terms)


def cancelling_polynomial(m):
    # (x2 - x0 e2)/7 is left and right monogenic: its d/dx_0 and e_2 d/dx_2
    # contributions cancel for sign 1
    return CliffordPolynomial(
        m,
        {
            tuple(1 if i == 2 else 0 for i in range(m + 1)): Fraction(1, 7),
            tuple(1 if i == 0 else 0 for i in range(m + 1)): Multivector.blade(
                m, (2,), Fraction(-1, 7)
            ),
        },
    )


def cancelling_expression(m):
    # exp(r z) times a scalar: r exp(r z) + e_1 (r e_1 exp(r z)) = 0 on both sides
    sym = SteeringSymbol.power_exp(0, Fraction(-3, 2))
    return SteeringExpression(m, [(sym, CliffordPolynomial.constant(m, Fraction(2, 3)))])


def polynomial_inputs():
    rng = random.Random(20261018)
    out = [cancelling_polynomial(3), cancelling_polynomial(5)]
    for m in (3, 4, 5):
        out += [polynomial(rng, m, range(m + 1)) for _ in range(6)]
        out += [polynomial(rng, m, range(2, m + 1)) for _ in range(3)]
    return out


def expression_inputs():
    rng = random.Random(1018)
    out = [cancelling_expression(3), cancelling_expression(4)]
    for m in (3, 4, 5):
        out += [expression(rng, m) for _ in range(8)]
    return out


def check(out, expected, f):
    assert out.to_obj() == expected.to_obj()
    if isinstance(f, CliffordPolynomial):
        assert out.var_scope == f.var_scope
    else:
        for _, poly in out.items():
            assert poly.var_scope == frozenset(range(2, f.m + 1))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("y_only", [False, True])
def test_polynomials_match_definition(side, sign, y_only):
    for f in polynomial_inputs():
        check(dirac(f, side, sign, y_only), reference(f, side, sign, y_only), f)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("y_only", [False, True])
def test_expressions_match_definition(side, sign, y_only):
    for f in expression_inputs():
        check(dirac(f, side, sign, y_only), reference(f, side, sign, y_only), f)


def test_methods_match_definition():
    half = Fraction(1, 2)
    for f in polynomial_inputs() + expression_inputs():
        check(f.cr_left(), reference(f, "left"), f)
        check(f.cr_right(), reference(f, "right"), f)
        check(f.hypercomplex_d(), reference(f, "left", -1) * half, f)
        if isinstance(f, CliffordPolynomial) and f.var_scope == frozenset(range(2, f.m + 1)):
            check(f.dirac_y("left"), reference(f, "left", 1, True), f)
            check(f.dirac_y("right"), reference(f, "right", 1, True), f)


def test_inputs_cover_the_cases():
    polys = polynomial_inputs()
    exprs = expression_inputs()
    dens = {
        q.denominator
        for f in polys
        for _, mv in f.items()
        for _, q in mv.items()
    }
    assert {2, 3, 7} <= dens
    symbols = {sym for f in exprs for sym in f.symbols()}
    assert any(s.kind == "powexp" and s.power for s in symbols)
    assert {s.kind for s in symbols} == {"powexp", "cos", "sin"}
    assert any(s.bar for s in symbols)
    assert {Fraction(-3, 2), Fraction(1, 3)} <= {s.rate for s in symbols}
    assert not cancelling_polynomial(4).cr_left() and not cancelling_polynomial(4).cr_right()
    assert not cancelling_expression(4).cr_left() and not cancelling_expression(4).cr_right()
    assert cancelling_expression(4).hypercomplex_d()
