"""Generalized Appell polynomials with Pochhammer-ratio coefficients.

P_k(X) = sum_s T_s^k X^(k-s) Xbar^s over paravector powers, with
T_s^k = C(k,s) ((m+1)/2)_(k-s) ((m-1)/2)_(s) / m_(k).  The sequence is
built by direct expansion, not by the derivative recursion it satisfies,
so that D P_k = k P_{k-1} stays an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import ScalarLike, coerce_fraction
from .polynomials import CliffordPolynomial, paravector_power


def pochhammer(a: ScalarLike, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1) with the empty product equal to 1."""
    if k < 0:
        raise ValueError("pochhammer index must be nonnegative")
    a = coerce_fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def t_coeff(k: int, s: int, m: int) -> Fraction:
    """The exact scalar weight of X^(k-s) Xbar^s in P_k."""
    if not 0 <= s <= k:
        raise ValueError(f"index out of range: need 0 <= s <= k, got s={s}, k={k}")
    if m < 2:
        raise ValueError("need at least two generators")
    numerator = (
        comb(k, s)
        * pochhammer(Fraction(m + 1, 2), k - s)
        * pochhammer(Fraction(m - 1, 2), s)
    )
    return numerator / pochhammer(Fraction(m), k)


def appell_poly(k: int, m: int) -> CliffordPolynomial:
    """The k-th Appell polynomial in R_{0,m}, expanded exactly."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    # Horner's rule in Xbar: Q_0 = T_k, Q_i = Q_(i-1) Xbar + T_(k-i) X^i, P_k = Q_k
    x, xbar = paravector_power(m, 1), paravector_power(m, 1, conjugated=True)
    x_power = CliffordPolynomial.constant(m, 1)
    total = CliffordPolynomial.constant(m, t_coeff(k, k, m))
    for i in range(1, k + 1):
        x_power = x_power * x
        total = total * xbar + x_power * t_coeff(k, k - i, m)
    return total
