"""Exact steering-solution calculus for iterated Cauchy-Riemann systems.

The package constructs closed-form solutions of higher order
Cauchy-Riemann equations over the real Clifford algebra R_{0,m}
(polymonogenic, two-sided monogenic, inframonogenic, Lame-Navier type,
(alpha, beta)-monogenic, and constant coefficient equations in the
hypercomplex derivative) and verifies them by literally applying the
differential operators over exact rational arithmetic.
"""

from .algebra import Multivector, e1_sandwich
from .appell import appell_poly, pochhammer, t_coeff
from .polynomials import CliffordPolynomial, polyharmonic_basis
from .steering import (
    CoefficientTable,
    DSolveSpec,
    RootSpec,
    SteeringExpression,
    SteeringSymbol,
    ck_table,
    construct_eigen,
    construct_exp_left,
    construct_power_left,
    construct_trig_left,
    construct_two_sided,
    dsolve,
    power_coefficient,
    tn_closed_form,
)
from .verify import (
    ResidualReport,
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Multivector",
    "e1_sandwich",
    "CliffordPolynomial",
    "polyharmonic_basis",
    "SteeringSymbol",
    "SteeringExpression",
    "CoefficientTable",
    "DSolveSpec",
    "RootSpec",
    "ck_table",
    "tn_closed_form",
    "power_coefficient",
    "construct_exp_left",
    "construct_trig_left",
    "construct_power_left",
    "construct_two_sided",
    "construct_eigen",
    "dsolve",
    "ResidualReport",
    "n_monogenic_residual",
    "inframonogenic_residual",
    "lame_navier_residual",
    "alpha_beta_residual",
    "infrapoly_residual",
    "d_equation_residual",
    "pochhammer",
    "t_coeff",
    "appell_poly",
]
