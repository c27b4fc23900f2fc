"""Generalized Appell polynomials with Pochhammer-ratio coefficients.

P_k = sum_s T_s^k X^(k-s) Xbar^s with T_s^k = C(k,s) ((m+1)/2)_(k-s) ((m-1)/2)_(s) / m_(k),
X = x_0 + w, Xbar = x_0 - w and w = sum_j x_j e_j.  As w^2 = -R = -sum_j x_j^2, P_k is
sum_i c_i x_0^(k-i) w^i, with w^(2l) = (-R)^l and w^(2l+1) = (-R)^l w, built without a
Clifford product or the derivative recursion: D P_k = k P_{k-1} stays an independent check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .algebra import Multivector, ScalarLike, coerce_fraction, generator_count, integer_in
from .polynomials import CliffordPolynomial, homogeneous_exponents


def pochhammer(a: ScalarLike, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1) with the empty product equal to 1."""
    integer_in(k, 0, None, "pochhammer index")
    a = coerce_fraction(a)
    return prod((a + i for i in range(k)), start=Fraction(1))


def t_coeff(k: int, s: int, m: int) -> Fraction:
    """The exact scalar weight of X^(k-s) Xbar^s in P_k."""
    integer_in(s, 0, integer_in(k, 0, None, "Appell index k"), "Appell weight index s")
    generator_count(m)
    rising = pochhammer(Fraction(m + 1, 2), k - s) * pochhammer(Fraction(m - 1, 2), s)
    return comb(k, s) * rising / pochhammer(Fraction(m), k)


def appell_poly(k: int, m: int) -> CliffordPolynomial:
    """The k-th Appell polynomial in R_{0,m}, expanded exactly."""
    integer_in(k, 0, None, "Appell index k")
    generator_count(m)
    # T_0 = ((m+1)/2)_k / (m)_k and T_(s+1) / T_s = (k-s)(m-1+2s) / ((s+1)(m-1+2(k-s))),
    # so a call makes two rising factorials and one Fraction product per s
    weights = [pochhammer(Fraction(m + 1, 2), k) / pochhammer(m, k)]
    for s in range(k):
        ratio = Fraction((k - s) * (m - 1 + 2 * s), (s + 1) * (m - 1 + 2 * (k - s)))
        weights.append(weights[-1] * ratio)
    data = {}
    for i in range(k + 1):
        # the weight of x_0^(k-i) w^i in (x_0 + w)^(k-s) (x_0 - w)^s, summed over s;
        # the inner sum over q is an integer, so each s makes one Fraction product
        c = sum(
            t * sum((-1) ** q * comb(k - s, i - q) * comb(s, q) for q in range(i + 1))
            for s, t in enumerate(weights)
        )
        half, odd = divmod(i, 2)
        for alpha in homogeneous_exponents(m, half):  # (-R)^half, expanded multinomially
            q = (-c if half & 1 else c) * (factorial(half) // prod(map(factorial, alpha)))
            exps = (k - i,) + tuple(2 * a for a in alpha)
            if odd:  # times w = sum_j x_j e_j, one term per j
                for j in range(1, m + 1):
                    key = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                    data[key] = Multivector._unsafe(m, {1 << (j - 1): q})
            else:
                data[exps] = Multivector._unsafe(m, {0: q})
    return CliffordPolynomial._unsafe(m, frozenset(range(m + 1)), data)
