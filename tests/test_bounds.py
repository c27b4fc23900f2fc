"""Every integer bound in the package is checked by one function, with one message.

Each site below takes an integer from outside the package: an order, a degree,
an index, a multiplicity, a generator count or a battery setting.  Each refuses
an out-of-range int, a bool and a float alike with ValueError and the text
``{what} must be an integer in {least}..{most}, got {value!r}``, or ``of at
least {least}`` when there is no upper bound.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from cliffsteer import suite
from cliffsteer.algebra import Multivector, generator_count, mask_from_indices
from cliffsteer.appell import appell_poly, pochhammer, t_coeff
from cliffsteer.polynomials import CliffordPolynomial, polyharmonic_basis
from cliffsteer.steering import (
    RootSpec,
    SteeringExpression,
    SteeringSymbol,
    ck_table,
    construct_exp_left,
    power_coefficient,
    tn_closed_form,
)
from cliffsteer.verify import infrapoly_residual, n_monogenic_residual

M = 4
Y2 = CliffordPolynomial.variable(M, 2, range(2, M + 1))
EXPR = SteeringExpression(M, [(SteeringSymbol.power_exp(0, 1), Y2)])


def _polynomial_document(key):
    # a JSON key is a string; a bool or a float can only key a Python mapping
    key = str(key) if type(key) is int else key
    return {"m": M, "terms": [{"monomial": {key: 1}, "coef": {"m": M, "terms": []}}]}


def _suite_settings(**changed):
    settings = dict(m=M, max_n=1, max_degree=0, cases=1, rng_seed=0, perturb=False)
    return SimpleNamespace(**{**settings, **changed})


# (site, call taking the value, what the message names, least, most or None,
# an int outside least..most)
SITES = [
    ("generator_count", generator_count, "generator count", 2, 16, 17),
    ("mask_from_indices", lambda v: mask_from_indices([v], M), "generator index", 1, M, M + 1),
    ("blade-mask", lambda v: Multivector(M, {v: 1}), "blade mask", 0, 15, 16),
    ("grade", lambda v: Multivector(M).grade(v), "grade", 0, M, M + 1),
    ("pochhammer", lambda v: pochhammer(1, v), "pochhammer index", 0, None, -1),
    ("t_coeff", lambda v: t_coeff(2, v, 3), "Appell weight index s", 0, 2, 3),
    ("appell_poly", lambda v: appell_poly(v, 3), "Appell index k", 0, None, -1),
    ("monomial", lambda v: CliffordPolynomial.monomial(M, {v: 1}), "variable index", 0, M, M + 1),
    ("polynomial-partial", lambda v: Y2.partial(v), "variable index", 0, M, M + 1),
    ("polynomial-from_obj", lambda v: CliffordPolynomial.from_obj(_polynomial_document(v)),
     "variable index", 0, M, M + 1),
    ("basis-degree", lambda v: polyharmonic_basis(v, 1, M), "degree", 0, None, -1),
    ("basis-order", lambda v: polyharmonic_basis(2, v, M), "Laplacian order", 1, None, 0),
    ("symbol-power", lambda v: SteeringSymbol.power_exp(v), "symbol power", 0, None, -1),
    ("expression-partial", lambda v: EXPR.partial(v), "variable index", 0, M, M + 1),
    ("ck_table", ck_table, "table length", 1, None, 0),
    ("power_coefficient", lambda v: power_coefficient(v, 5), "Dirac power index j", 1, None, 0),
    ("tn_closed_form", tn_closed_form, "matrix power n", 2, None, 1),
    ("construct-order", lambda v: construct_exp_left(Y2, v), "order", 1, None, 0),
    ("root-multiplicity", lambda v: RootSpec(Fraction(1), v), "multiplicity", 1, None, 0),
    ("n_monogenic_residual", lambda v: n_monogenic_residual(EXPR, v), "order", 0, None, -1),
    ("infrapoly_residual", lambda v: infrapoly_residual(EXPR, v, 1), "order p", 0, None, -1),
    ("suite-m", lambda v: suite.run(_suite_settings(m=v)), "--m", 4, 16, 3),
    ("suite-options", lambda v: suite.run(_suite_settings(max_n=v)), "--max-n", 1, None, 0),
]


def _values(least, outside):
    # an int outside the bounds, then a bool and a float that lie inside them where
    # the bounds allow: each is refused for its type, not its size
    return [("int", outside), ("bool", True), ("float", float(least))]


CASES = [
    pytest.param(call, what, least, most, value, id=f"{site}-{kind}")
    for site, call, what, least, most, outside in SITES
    for kind, value in _values(least, outside)
]


@pytest.mark.parametrize("call, what, least, most, value", CASES)
def test_every_integer_bound_is_refused_with_one_message(call, what, least, most, value):
    bound = f"of at least {least}" if most is None else f"in {least}..{most}"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be an integer {bound}, got {value!r}"
