"""Every way a battery criterion can fail is reachable.

Each row replaces names that one criterion of ``cliffsteer.suite`` looks up
with a flawed version, runs the criterion from ``suite.CRITERIA`` at small
settings, and expects that criterion's own failure text, one row per
``return False`` branch of criteria 02, 06 and 09 to 13.
"""

from types import SimpleNamespace

import pytest

from cliffsteer import suite
from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial, DiracOperand
from cliffsteer.steering import SteeringExpression, SteeringSymbol

SETTINGS = SimpleNamespace(m=4, max_n=1, max_degree=1, cases=5, rng_seed=0, perturb=False)
EXP_ZBAR = SteeringSymbol.power_exp(0, 1, bar=True)


def _plus_exp_zbar(real):
    # the residual of f + exp(z-bar): no Cauchy-Riemann operator on either side
    # leaves exp(z-bar) with a scalar coefficient at zero
    return lambda f, *args: real(f + SteeringExpression(f.m, [(EXP_ZBAR, 1)]), *args)


def _of_zero(real):
    return lambda f, *args: real(f * 0, *args)


def _flawed_multivectors(**methods):
    # the criterion's random multivectors, of a subclass with ``methods`` replaced
    flawed = type("Flawed", (Multivector,), methods)
    return lambda real: lambda rng, m: flawed._unsafe(m, dict(real(rng, m).items()))


class _DoubledCauchyRiemann(CliffordPolynomial):
    def cr_left(self):
        return DiracOperand.cr_left(self) * 2


# (row id, criterion, {name in suite: real -> replacement}, expected detail)
ROWS = [
    ("02", "02_matrix_power_closed_form",
     {"tn_closed_form": lambda real: lambda n: real(n + 1)},
     "mismatch against brute force at n=2"),
    ("06", "06_exp_necessity_spot_check",
     {"_e2_fault": lambda real: lambda m: real(m) * 0},
     "perturbed solution still passes: order 1, seed [(1/1)]"),
    ("09-unit-rate", "09_eigenfunction_relation",
     {"construct_eigen": lambda real: lambda rate, seed: real(rate + 1, seed)},
     "D F != F for the unit-rate eigenfunction"),
    ("09-origin", "09_eigenfunction_relation",
     {"construct_eigen": lambda real: lambda rate, seed: real(rate, seed) * 2},
     "F(0) != 1"),
    ("09-sampled-rate", "09_eigenfunction_relation",
     {"construct_eigen": lambda real: lambda rate, seed: real(1, seed)},
     "eigenrelation fails at rate -1"),
    ("10", "10_d_equation_solutions",
     {"dsolve": lambda real: lambda spec: suite.construct_eigen(2, spec.roots[0].harmonic_seed)},
     "nonzero residual for coefficients (Fraction(1, 1), Fraction(-1, 1))"),
    ("11-first", "11_appell_sequence",
     {"appell_poly": lambda real: lambda k, m: real(k, m) * 2},
     "P_0 != 1"),
    ("11-origin", "11_appell_sequence",
     {"appell_poly": lambda real: lambda k, m: real(k, m) + min(k, 1)},
     "P_1(0) != 0 at m=2"),
    ("11-monogenic", "11_appell_sequence",
     {"appell_poly": lambda real: lambda k, m: real(k, m) + CliffordPolynomial.variable(m, 0) * k},
     "P_1 not left monogenic at m=2"),
    ("11-derivative", "11_appell_sequence",
     {"appell_poly": lambda real: lambda k, m: real(k, m) * (k + 1)},
     "D P_1 != 1 P_0 at m=2"),
    ("12-displayed", "12_sandwich_and_elasticity",
     {"inframonogenic_residual": _plus_exp_zbar},
     "displayed sandwich example has nonzero residual"),
    ("12-universal", "12_sandwich_and_elasticity",
     {"lame_navier_residual": _plus_exp_zbar},
     "universal solution fails at (mu, lambda) = (1, 1)"),
    ("12-components", "12_sandwich_and_elasticity",
     {"e1_sandwich": lambda real: lambda p: p, "inframonogenic_residual": _of_zero,
      "lame_navier_residual": _of_zero},
     "universal solution components are not individually zero"),
    ("12-alpha-beta", "12_sandwich_and_elasticity",
     {"alpha_beta_residual": _plus_exp_zbar},
     "two-sided solution fails alpha_beta(1, 1)"),
    ("12-infrapoly", "12_sandwich_and_elasticity",
     {"infrapoly_residual": _plus_exp_zbar},
     "two-sided solution fails infrapoly(1, 1)"),
    ("13-associativity", "13_algebra_randomized",
     {"_random_multivector": _flawed_multivectors(__mul__=Multivector.__sub__)},
     "associativity failure"),
    ("13-anti-involution", "13_algebra_randomized",
     {"_random_multivector": _flawed_multivectors(conjugate=lambda self: self)},
     "anti-involution failure"),
    ("13-norm", "13_algebra_randomized",
     {"_random_multivector": _flawed_multivectors(norm_sq=lambda mv: 1 + Multivector.norm_sq(mv))},
     "norm identity failure"),
    ("13-conjugate-first", "13_algebra_randomized",
     {"dirac": lambda real: lambda p, side, sign=1: real(p, side, sign) * 2},
     "factorization failure (cr after conjugate)"),
    ("13-cr-first", "13_algebra_randomized",
     {"CliffordPolynomial": lambda real: _DoubledCauchyRiemann},
     "factorization failure (conjugate after cr)"),
]


@pytest.mark.parametrize(
    "criterion, patches, detail", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_each_failure_branch_is_reached(monkeypatch, criterion, patches, detail):
    for name, flawed in patches.items():
        monkeypatch.setattr(suite, name, flawed(getattr(suite, name)))
    check = dict(suite.CRITERIA)[criterion]
    assert check(SETTINGS) == (False, detail)
