import random
import time
from fractions import Fraction

import pytest

from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import (
    SteeringExpression,
    SteeringSymbol,
    construct_exp_left,
    construct_two_sided,
)
from cliffsteer.verify import (
    ResidualReport,
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)
from helpers import dirac_y_power, e, random_y_poly, x, ymono

M = 4
YSCOPE = range(2, M + 1)
EXP_Z = SteeringSymbol.power_exp(0, 1)
EXP_ZBAR = SteeringSymbol.power_exp(0, 1, bar=True)


def _two_sided():
    seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
    return construct_two_sided("exp", seed)


def _inframonogenic_display():
    quad = ymono(M, {2: 2}) + ymono(M, {3: 2})
    return SteeringExpression(
        M,
        [
            (EXP_Z, quad * e(M, 2, 4)),
            (EXP_ZBAR, x(M, 2, yonly=True) * e(M, 2) - x(M, 3, yonly=True) * e(M, 3)),
        ],
    )


def _universal_solution():
    infra_seed = (ymono(M, {2: 2}) + ymono(M, {3: 2})) * e(M, 2, 4) * Fraction(1, 2)
    e1 = e(M, 1)
    d = infra_seed.dirac_y("left")
    return SteeringExpression(
        M,
        [
            (EXP_Z, infra_seed - e1 * infra_seed * e1),
            (EXP_ZBAR, (d + e1 * d * e1) * Fraction(-1, 2)),
        ],
    )


class TestNMonogenicResidual:
    def test_constructed_solution_is_zero(self):
        expr = construct_exp_left(ymono(M, {2: 3}), 2)
        report = n_monogenic_residual(expr, 2, "left")
        assert report.is_zero and report.term_count == 0

    def test_bare_top_term_is_not(self):
        expr = SteeringExpression(M, [(EXP_Z, ymono(M, {2: 3}))])
        assert not n_monogenic_residual(expr, 2, "left").is_zero

    def test_order_zero_returns_input(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        assert n_monogenic_residual(expr, 0, "left").residual == expr

    def test_works_on_polynomials(self):
        z = x(M, 0) + x(M, 1) * e(M, 1)
        assert n_monogenic_residual(z, 1, "left").is_zero

    @pytest.mark.parametrize(
        "f, side",
        [
            (x(M, 2, yonly=True), "left"),
            (x(M, 2, yonly=True), "right"),
            (construct_exp_left(ymono(M, {2: 3}), 2), "left"),
        ],
        ids=["x2-left", "x2-right", "exp-order-2-left"],
    )
    def test_passes_after_the_form_is_zero_not_run(self, f, side):
        # each is zero after a few passes; a million passes would take seconds
        start = time.perf_counter()
        report = n_monogenic_residual(f, 10**6, side)
        assert time.perf_counter() - start < 0.5
        assert report.is_zero and report.operator_description == f"cr_{side}^1000000"

    def test_rejects_bad_side(self):
        # n = 0 applies no link, and is refused all the same
        for n in (1, 0):
            with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'up'$"):
                n_monogenic_residual(_two_sided(), n, "up")


class TestInframonogenic:
    def test_displayed_example(self):
        assert inframonogenic_residual(_inframonogenic_display()).is_zero

    def test_bar_exponential_is_not(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        report = inframonogenic_residual(expr)
        assert report.residual == SteeringExpression(M, [(EXP_ZBAR, 4)])

    def test_two_sided_passes_trivially(self):
        assert inframonogenic_residual(_two_sided()).is_zero


class TestLameNavier:
    def test_universal_solution(self):
        universal = _universal_solution()
        for mu, lam in ((1, 1), (2, 5)):
            assert lame_navier_residual(universal, mu, lam).is_zero
        # universal means both operator components vanish separately
        assert not universal.cr_left().cr_right()
        assert not universal.cr_left().cr_left()

    def test_two_sided_passes_for_any_parameters(self):
        expr = _two_sided()
        assert lame_navier_residual(expr, Fraction(7, 3), Fraction(-1, 2)).is_zero

    def test_nonsolution_detected(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        assert not lame_navier_residual(expr, 1, 0).is_zero


class TestAlphaBeta:
    def test_two_sided_passes(self):
        expr = _two_sided()
        for alpha, beta in ((1, 1), (2, -3)):
            assert alpha_beta_residual(expr, alpha, beta).is_zero

    def test_pure_right_case_matches_cr_right(self):
        rng = random.Random(41)
        expr = SteeringExpression(M, [(EXP_Z, random_y_poly(rng, M))])
        assert alpha_beta_residual(expr, 1, 0).residual == expr.cr_right()

    def test_bar_exponential_value(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        report = alpha_beta_residual(expr, 1, 1)
        assert report.residual == SteeringExpression(M, [(EXP_ZBAR, 4)])


class TestInfrapoly:
    def test_order_one_one_matches_sandwich(self):
        expr = _inframonogenic_display()
        a = infrapoly_residual(expr, 1, 1).residual
        b = inframonogenic_residual(expr).residual
        assert a == b

    def test_interleaving_order_is_immaterial(self):
        rng = random.Random(42)
        for _ in range(10):
            a = random_y_poly(rng, M)
            b = random_y_poly(rng, M)
            expr = SteeringExpression(M, [(EXP_Z, a), (EXP_ZBAR, b)])
            left_first = infrapoly_residual(expr, 2, 1).residual
            mixed = expr.cr_left().cr_right().cr_left()
            assert left_first == mixed

    def test_displayed_second_order_system(self):
        # dX^2 F dX rows, written out with one-sided Dirac actions on A and B
        rng = random.Random(43)
        e1 = e(M, 1)
        for _ in range(10):
            a = random_y_poly(rng, M)
            b = random_y_poly(rng, M)
            expr = SteeringExpression(M, [(EXP_Z, a), (EXP_ZBAR, b)])
            got = infrapoly_residual(expr, 2, 1).residual
            c1 = dirac_y_power(a, 2) + dirac_y_power(b, 1) * 2
            c2 = dirac_y_power(a, 1) * 2 + dirac_y_power(b, 2) + b * 4
            expected = SteeringExpression(
                M,
                [
                    (EXP_Z, c1 + e1 * c1 * e1 + c1.dirac_y("right")),
                    (EXP_ZBAR, c2 - e1 * c2 * e1 + c2.dirac_y("right")),
                ],
            )
            assert got == expected

    def test_two_sided_passes_all_orders(self):
        expr = _two_sided()
        for p, q in ((1, 1), (2, 1), (1, 2)):
            assert infrapoly_residual(expr, p, q).is_zero


class TestDEquation:
    def test_unit_eigenfunction(self):
        expr = construct_exp_left(x(M, 2, yonly=True), 1)
        assert d_equation_residual(expr, (1, -1)).is_zero

    def test_pure_derivative_on_y_monogenic(self):
        mono = x(M, 2, yonly=True) * e(M, 2) - x(M, 3, yonly=True) * e(M, 3)
        expr = SteeringExpression(M, [(SteeringSymbol.constant(), mono)])
        assert d_equation_residual(expr, (1, 0)).is_zero

    def test_non_monogenic_input_refused(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        with pytest.raises(ValueError, match="not left monogenic"):
            d_equation_residual(expr, (1, -1))

    def test_works_on_polynomials(self):
        # z is monogenic with D z = 1, so (D^2)(z) = 0
        z = x(M, 0) + x(M, 1) * e(M, 1)
        assert d_equation_residual(z, (1, 0, 0)).is_zero


class TestReports:
    def test_json_shape(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        report = n_monogenic_residual(expr, 1, "left")
        obj = report.to_obj()
        assert obj["operator"] == "cr_left^1"
        assert obj["is_zero"] is False
        assert obj["term_count"] == 1
        assert obj["residual"]["m"] == M

    def test_zero_flag_tracks_term_count(self):
        expr = construct_exp_left(x(M, 2, yonly=True), 1)
        report = n_monogenic_residual(expr, 1, "left")
        assert report.is_zero and report.term_count == 0
