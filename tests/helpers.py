"""Shared builders for the test suite."""

from fractions import Fraction
import random

from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial, NumeratorForm, polyharmonic_basis
from cliffsteer.steering import SteeringExpression, SteeringSymbol


def F(num, den=1):
    return Fraction(num, den)


def e(m, *indices):
    return Multivector.blade(m, indices)


def scalar(m, value):
    return Multivector.scalar(m, value)


def x(m, index, yonly=False):
    scope = range(2, m + 1) if yonly else None
    return CliffordPolynomial.variable(m, index, scope)


def ymono(m, exponents, coef=1):
    return CliffordPolynomial.monomial(m, exponents, coef, range(2, m + 1))


def dirac_y_power(poly, k, side="left"):
    """The y-Dirac operator applied k times on ``side``, as one integer chain."""
    return NumeratorForm(poly).dirac(side, y_only=True, times=k).build()


def random_multivector(rng, m, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << m)
        terms[mask] = terms.get(mask, Fraction(0)) + Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        )
    return Multivector(m, terms)


def random_poly(rng, m, variables, max_terms=3, max_exp=2):
    variables = list(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (m + 1)
        for v in variables:
            exps[v] = rng.randint(0, max_exp)
        terms[tuple(exps)] = random_multivector(rng, m)
    return CliffordPolynomial(m, terms, var_scope=variables)


def random_y_poly(rng, m, max_terms=3, max_exp=2):
    return random_poly(rng, m, range(2, m + 1), max_terms, max_exp)


def random_harmonic(rng, m, degree):
    basis = polyharmonic_basis(degree, 1, m)
    total = CliffordPolynomial.zero(m, range(2, m + 1))
    for b in basis:
        total = total + b * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return total


def random_steering(rng, m, max_terms=3):
    symbols = [
        SteeringSymbol.constant(),
        SteeringSymbol.power_exp(0, 1),
        SteeringSymbol.power_exp(0, 1, bar=True),
        SteeringSymbol.power_exp(2, 0),
        SteeringSymbol.power_exp(1, Fraction(-2), bar=True),
        SteeringSymbol.cosine(1),
        SteeringSymbol.sine(Fraction(3, 2), bar=True),
    ]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        terms.append((rng.choice(symbols), random_y_poly(rng, m)))
    return SteeringExpression(m, terms)
