"""Exact residual computation for every supported differential system.

Every system is a polynomial in the four commuting one-sided operators D_L,
Dbar_L, D_R and Dbar_R (D_L Dbar_L is the Laplacian), where D and Dbar are
d/dx_0 +- sum_j e_j d/dx_j, the one Dirac-type operator
``polynomials.NumeratorForm.dirac``, on steering expressions and plain
Clifford polynomials alike.  One function, ``residual``, makes every residual
as a weighted sum of chains of passes over integer numerators, summed as
integers over one lcm; the six public functions are presets that list its
terms.  Fractions are made only when the residual's terms are read, so a
residual is zero exactly when every integer sum is."""

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


# the most passes a chain runs on a symbol of nonzero rate: at m=4, cr_right^30000 of
# construct_exp_left(x2^3, 2) takes 0.93 s on a 2-core Xeon VM, cr_right^1000 0.016 s
MAX_ORDER = 1000

# one pass of D = d/dx_0 + sum_j e_j d/dx_j on the left and on the right
_LEFT, _RIGHT = ("left", 1, 1, "order"), ("right", 1, 1, "order")


def _report(description: str, residual: NumeratorForm) -> ResidualReport:
    built = residual.build()
    return ResidualReport(description, built, not built, len(built))


def residual(f: Verifiable | NumeratorForm, terms) -> NumeratorForm:
    """sum of weight * (links applied to f in turn) over the (weight, links) terms;
    ``f`` may be given as its ready form, which two calls on one input then share.

    A link (side, sign, n, what) is n passes of ``NumeratorForm.dirac(side, sign)``,
    and ``what`` names n in a refusal.  A run of passes after a given prefix goes
    on from its last form: terms that share a prefix make it once (lame's first
    D), and a run read at rising powers (a D-equation's Dbar) is made once.  Past
    MAX_ORDER passes on a symbol of nonzero rate, whose derivatives never vanish,
    a run not zero by then refuses the highest power it is read at."""
    base = f if isinstance(f, NumeratorForm) else NumeratorForm(f)
    runs: dict = {}  # (links so far, side, sign) -> (passes made, the form after them)
    parts = []
    for weight, links in terms:
        form, done = base, ()
        for link in links:
            side, sign, n, what = link
            made, end = runs.get((done, side, sign), (0, form))
            if n < made:  # a lower power starts the run again
                made, end = 0, form
            if n > MAX_ORDER >= made and any(s is not None and s.rate for s in base.terms):
                end, made = end.dirac(side, sign, times=MAX_ORDER - made), MAX_ORDER
                if not end.is_zero():
                    reads = [r for _, rs in terms for i, r in enumerate(rs) if rs[:i] == done]
                    top = max(r[2] for r in reads if r[:2] == (side, sign))
                    integer_in(top, 0, MAX_ORDER, f"{what} of a nonvanishing chain")
            form = end.dirac(side, sign, times=n - made)
            runs[done, side, sign] = (n, form)
            done += (link,)
        parts.append((form, weight))
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return NumeratorForm.combine(base.f, parts)


def n_monogenic_residual(f: Verifiable, n: int, side: str = "left") -> ResidualReport:
    """Residual of the n-fold Cauchy-Riemann operator; n = 0 returns f."""
    integer_in(n, 0, None, "order")
    return _report(f"cr_{side}^{n}", residual(f, [(1, ((side, 1, n, "order"),))]))


def inframonogenic_residual(f: Verifiable) -> ResidualReport:
    """Residual of the sandwich operator dX f dX."""
    return _report("cr_right(cr_left(f))", residual(f, [(1, (_LEFT, _RIGHT))]))


def lame_navier_residual(f: Verifiable, mu: ScalarLike, lam: ScalarLike) -> ResidualReport:
    """((mu+lam)/2) dX f dX + ((3mu+lam)/2) dX^2 f."""
    mu, lam = coerce_fraction(mu), coerce_fraction(lam)
    terms = [(Fraction(mu + lam, 2), (_LEFT, _RIGHT)), (Fraction(3 * mu + lam, 2), (_LEFT, _LEFT))]
    label = f"lame_navier(mu={format_fraction(mu)}, lambda={format_fraction(lam)})"
    return _report(label, residual(f, terms))


def alpha_beta_residual(f: Verifiable, alpha: ScalarLike, beta: ScalarLike) -> ResidualReport:
    """alpha * (f dX) + beta * (dX f)."""
    alpha, beta = coerce_fraction(alpha), coerce_fraction(beta)
    label = f"alpha_beta(alpha={format_fraction(alpha)}, beta={format_fraction(beta)})"
    return _report(label, residual(f, [(alpha, (_RIGHT,)), (beta, (_LEFT,))]))


def infrapoly_residual(f: Verifiable, p: int, q: int) -> ResidualReport:
    """dX^p f dX^q; the interleaving order is immaterial since the
    one-sided operators commute."""
    integer_in(p, 0, None, "order p")
    integer_in(q, 0, None, "order q")
    links = (("left", 1, p, "order p"), ("right", 1, q, "order q"))
    return _report(f"cr_left^{p} then cr_right^{q}", residual(f, [(1, links)]))


def d_equation_residual(f: Verifiable, coeffs: Sequence[ScalarLike]) -> ResidualReport:
    """sum_j a_j D^(n-j) f for the hypercomplex derivative D.

    The input must be left monogenic: the hypercomplex derivative is only
    defined there, so a non-monogenic input is refused rather than
    silently evaluated.
    """
    coeffs = tuple(coerce_fraction(c) for c in coeffs)
    if not coeffs:
        raise ValueError("at least one coefficient is required")
    form = NumeratorForm(f)  # read once, for the precondition and the sum
    if not residual(form, [(1, (_LEFT,))]).is_zero():
        raise ValueError("input is not left monogenic; the hypercomplex derivative is undefined")
    # D^k = (1/2^k) Dbar^k on this input: unscaled Dbar links from D^0 up, weighted in the sum
    terms = [(a / 2**k, (("left", -1, k, "degree"),)) for k, a in enumerate(reversed(coeffs))]
    label = ",".join(format_fraction(c) for c in coeffs)
    return _report(f"d_equation({label})", residual(form, terms))
