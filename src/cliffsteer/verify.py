"""Exact residual computation for every supported differential system.

Each operation literally applies the differential operators and returns
the residual together with an exact-zero flag.  Every operator here is the
one Dirac-type operator, d/dx_0 + sign * sum_j e_j d/dx_j on one side
(``polynomials.NumeratorForm.dirac``), on steering expressions and plain
Clifford polynomials alike.  A residual is a chain of applications, each
a single pass in which e_j acts as a signed bit flip on the blade: the
chain keeps the coefficients as integer numerators over one denominator
from link to link, sums a weighted chain (the powers of D in a D-equation)
as integers too, and its residual keeps them: Fractions are made only when
the residual's terms are read.  So a residual is zero exactly when every
integer sum is.  On the left, d/dx_0 + e_1 d/dx_1 acts on a symbol as
2 d/dz-bar: it leaves phi(z) out and doubles the derivative of phi(z-bar)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .algebra import ScalarLike, coerce_fraction, format_fraction, integer_in
from .polynomials import CliffordPolynomial, NumeratorForm
from .steering import SteeringExpression

Verifiable = Union[SteeringExpression, CliffordPolynomial]


@dataclass
class ResidualReport:
    """Residual of an operator chain; is_zero holds exactly when the
    residual has no terms left."""

    operator_description: str
    residual: Verifiable
    is_zero: bool
    term_count: int

    def to_obj(self) -> dict:
        return {
            "operator": self.operator_description,
            "is_zero": self.is_zero,
            "term_count": self.term_count,
            "residual": self.residual.to_obj(),
        }


def _report(description: str, residual: Verifiable) -> ResidualReport:
    return ResidualReport(description, residual, not residual, len(residual))


def n_monogenic_residual(f: Verifiable, n: int, side: str = "left") -> ResidualReport:
    """Residual of the n-fold Cauchy-Riemann operator; n = 0 returns f."""
    integer_in(n, 0, None, "order")
    return _report(f"cr_{side}^{n}", NumeratorForm(f).dirac(side, times=n).build())


def inframonogenic_residual(f: Verifiable) -> ResidualReport:
    """Residual of the sandwich operator dX f dX."""
    return _report("cr_right(cr_left(f))", NumeratorForm(f).dirac("left").dirac("right").build())


def lame_navier_residual(
    f: Verifiable, mu: ScalarLike, lam: ScalarLike
) -> ResidualReport:
    """((mu+lam)/2) dX f dX + ((3mu+lam)/2) dX^2 f."""
    mu = coerce_fraction(mu)
    lam = coerce_fraction(lam)
    once = NumeratorForm(f).dirac("left")
    sandwich, second = once.dirac("right"), once.dirac("left")
    parts = [(sandwich, Fraction(mu + lam, 2)), (second, Fraction(3 * mu + lam, 2))]
    residual = NumeratorForm.combine(f, parts).build()
    return _report(
        f"lame_navier(mu={format_fraction(mu)}, lambda={format_fraction(lam)})", residual
    )


def alpha_beta_residual(
    f: Verifiable, alpha: ScalarLike, beta: ScalarLike
) -> ResidualReport:
    """alpha * (f dX) + beta * (dX f)."""
    alpha = coerce_fraction(alpha)
    beta = coerce_fraction(beta)
    form = NumeratorForm(f)
    residual = NumeratorForm.combine(f, [(form.dirac("right"), alpha), (form.dirac("left"), beta)])
    return _report(
        f"alpha_beta(alpha={format_fraction(alpha)}, beta={format_fraction(beta)})",
        residual.build(),
    )


def infrapoly_residual(f: Verifiable, p: int, q: int) -> ResidualReport:
    """dX^p f dX^q; the interleaving order is immaterial since the
    one-sided operators commute."""
    integer_in(p, 0, None, "order p")
    integer_in(q, 0, None, "order q")
    out = NumeratorForm(f).dirac("left", times=p).dirac("right", times=q).build()
    return _report(f"cr_left^{p} then cr_right^{q}", out)


def d_equation_residual(f: Verifiable, coeffs: Sequence[ScalarLike]) -> ResidualReport:
    """sum_j a_j D^(n-j) f for the hypercomplex derivative D.

    The input must be left monogenic: the hypercomplex derivative is only
    defined there, so a non-monogenic input is refused rather than
    silently evaluated.
    """
    coeffs = tuple(coerce_fraction(c) for c in coeffs)
    if not coeffs:
        raise ValueError("at least one coefficient is required")
    powers = [NumeratorForm(f)]
    if not powers[0].dirac("left").is_zero():
        raise ValueError(
            "input is not left monogenic; the hypercomplex derivative is undefined"
        )
    n = len(coeffs) - 1
    # D^k = (1/2^k) (d/dx_0 - sum_j e_j d/dx_j)^k: unscaled links, weighted in the sum
    for _ in range(n):
        powers.append(powers[-1].dirac("left", -1))
    parts = [(powers[n - j], a / 2 ** (n - j)) for j, a in enumerate(coeffs)]
    residual = NumeratorForm.combine(f, parts).build()
    label = ",".join(format_fraction(c) for c in coeffs)
    return _report(f"d_equation({label})", residual)
