"""Terms are put in canonical order once, where they are written.

A term map keeps its terms in the order they were merged in; equality is
dict equality, so only ``str`` and ``to_obj`` need the canonical order, and
they sort.  The constructions, the kernel bases, the Appell polynomials and
the residuals make no sort at all, and the written bytes of a value do not
depend on the order its terms were inserted in.
"""

import random
from math import lcm

import pytest

from cliffsteer import algebra, appell, polynomials, steering, verify
from cliffsteer.appell import appell_poly
from cliffsteer.polynomials import CliffordPolynomial, NumeratorForm, polyharmonic_basis
from cliffsteer.steering import SteeringExpression, construct_exp_left, construct_trig_left
from cliffsteer.verify import n_monogenic_residual
from helpers import random_multivector, random_steering, random_y_poly

M = 5
MODULES = (algebra, polynomials, steering, verify, appell)


@pytest.fixture
def sorts(monkeypatch):
    """Calls of ``sorted`` from the package modules that hold the hot paths, by module."""
    calls = {module.__name__: 0 for module in MODULES}
    for module in MODULES:
        def counted(*args, _name=module.__name__, **kwargs):
            calls[_name] += 1
            return sorted(*args, **kwargs)
        monkeypatch.setattr(module, "sorted", counted, raising=False)
    return calls


def test_constructions_and_residuals_make_no_sort(sorts):
    basis = polyharmonic_basis(6, 2, M)
    appell_poly(6, M)
    made = [construct_exp_left(seed, 2) for seed in basis]
    made += [construct_trig_left(a, b, 2) for a, b in zip(basis, reversed(basis))]
    assert all(n_monogenic_residual(f, 2).is_zero for f in made)
    # a built polynomial makes its Fractions on its first read, in the order it holds
    assert all(dict(poly.items()) for f in made for _, poly in f.items())
    assert sum(sorts.values()) == 0, sorts
    made[-1].to_obj()
    written = sum(sorts.values())
    str(made[-1])
    assert 0 < written < sum(sorts.values())  # each writer sorts


def _numerators(poly: CliffordPolynomial, den: int) -> dict:
    # poly's terms as monomial -> blade -> numerator over den, monomials reversed
    return {
        exps: {mask: int(q * den) for mask, q in reversed(list(mv.items()))}
        for exps, mv in reversed(list(poly.items()))
    }


def _denominator(polys) -> int:
    return lcm(*(q.denominator for p in polys for _, mv in p.items() for _, q in mv.items()))


def _multivector():
    return random_multivector(random.Random(3), M, max_terms=12)


def _polynomial():
    return random_y_poly(random.Random(4), M, max_terms=8)


def _expression():
    return random_steering(random.Random(5), M, max_terms=8)


def _built(value):
    """``value`` rebuilt from a reversed integer form, or None for a multivector."""
    if isinstance(value, CliffordPolynomial):
        den = _denominator([value])
        return NumeratorForm(value, {None: _numerators(value, den)}, den).build()
    if isinstance(value, SteeringExpression):
        den = _denominator([poly for _, poly in value.items()])
        terms = {sym: _numerators(poly, den) for sym, poly in reversed(list(value.items()))}
        return NumeratorForm(value, terms, den).build()
    return None


def _rebuilt(value, pairs):
    """A value of ``value``'s type, m and scope, made by its constructor from ``pairs``."""
    if isinstance(value, CliffordPolynomial):
        return CliffordPolynomial(value.m, pairs, value.var_scope)
    return type(value)(value.m, pairs)


@pytest.mark.parametrize(
    "make", [_multivector, _polynomial, _expression],
    ids=["multivector", "polynomial", "expression"],
)
def test_written_bytes_do_not_depend_on_insertion_order(make):
    value = make()
    pairs = list(value.items())
    assert len(pairs) >= 3
    shuffled = pairs[:]
    random.Random(11).shuffle(shuffled)
    key, coef = pairs[0]
    single = _rebuilt(value, [(key, coef)])
    assert key not in dict((value - single).items())  # the sum below cancels key, then adds it
    ways = [_rebuilt(value, pairs[::-1]), _rebuilt(value, shuffled), value - single + single]
    built = _built(value)
    if built is not None:
        ways.append(built)
    for way in ways:
        assert way == value
        assert way.to_obj() == value.to_obj()
        assert str(way) == str(value)
