import random
import time
from fractions import Fraction
from math import factorial

import pytest

from cliffsteer.algebra import Multivector
from cliffsteer.appell import appell_poly
from cliffsteer.polynomials import CliffordPolynomial, NumeratorForm
from cliffsteer.steering import (
    SteeringExpression,
    SteeringSymbol,
    construct_eigen,
    construct_exp_left,
    construct_two_sided,
)
from cliffsteer.verify import (
    MAX_ORDER,
    ResidualReport,
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
    residual,
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

    def test_degree_past_the_limit_of_a_nonvanishing_chain_refused(self):
        # D f = f/3, so no power of D reads zero on f: past the limit the
        # degree is refused, and at the limit itself the residual is answered
        f = construct_eigen(Fraction(1, 3), x(M, 2, yonly=True) * e(M, 2) * 2)
        refusal = (
            f"^degree of a nonvanishing chain must be an integer in 0..{MAX_ORDER}, "
            f"got {MAX_ORDER + 5}$"
        )
        with pytest.raises(ValueError, match=refusal):
            d_equation_residual(f, [1] * (MAX_ORDER + 6))
        assert not d_equation_residual(f, [1] * (MAX_ORDER + 1)).is_zero

    def test_a_chain_that_vanishes_has_no_limit(self):
        # D^j P_k = k!/(k-j)! P_(k-j), and every power past k reads zero
        k = 3
        got = d_equation_residual(appell_poly(k, M), [1] * 1500).residual
        weights = [factorial(k) // factorial(k - j) for j in range(k + 1)]
        assert got == sum(appell_poly(k - j, M) * w for j, w in enumerate(weights))


def count_passes(monkeypatch, run):
    """The Dirac passes ``run`` makes: each pass makes one form, inside ``dirac``."""
    dirac, init = NumeratorForm.dirac, NumeratorForm.__init__
    inside, passes = [], []

    def counted_dirac(self, *args, **kwargs):
        inside.append(self)
        try:
            return dirac(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_init(self, f, terms=None, den=1):
        passes.extend(inside[-1:])
        init(self, f, terms, den)

    monkeypatch.setattr(NumeratorForm, "dirac", counted_dirac)
    monkeypatch.setattr(NumeratorForm, "__init__", counted_init)
    run()
    monkeypatch.undo()
    return len(passes)


# exp(z-bar) A reads zero under no power of D on either side, and an
# eigenfunction of D under no power of Dbar: one pass per factor of each system
NONVANISHING = SteeringExpression(M, [(EXP_ZBAR, random_y_poly(random.Random(44), M))])
EIGEN = construct_eigen(Fraction(-1, 3), ymono(M, {2: 1, 3: 1}, e(M, 2)))
PASSES = [
    ("cr-left-3", lambda: n_monogenic_residual(NONVANISHING, 3, "left"), 3),
    ("cr-right-4", lambda: n_monogenic_residual(NONVANISHING, 4, "right"), 4),
    ("cr-0", lambda: n_monogenic_residual(NONVANISHING, 0, "left"), 0),
    # x2 -> e2 -> 0: the chain stops at its first zero form
    ("cr-vanishing", lambda: n_monogenic_residual(x(M, 2, yonly=True), 10, "left"), 2),
    ("infra", lambda: inframonogenic_residual(NONVANISHING), 2),
    ("lame", lambda: lame_navier_residual(NONVANISHING, 2, 5), 3),
    ("alphabeta", lambda: alpha_beta_residual(NONVANISHING, 2, -3), 2),
    ("infrapoly-2-3", lambda: infrapoly_residual(NONVANISHING, 2, 3), 5),
    ("infrapoly-0-2", lambda: infrapoly_residual(NONVANISHING, 0, 2), 2),
    ("deq-1", lambda: d_equation_residual(EIGEN, (3, 1)), 2),
    ("deq-4", lambda: d_equation_residual(EIGEN, (1, 0, -2, 0, 5)), 5),
]


@pytest.mark.parametrize("run, passes", [case[1:] for case in PASSES], ids=[c[0] for c in PASSES])
def test_each_operator_makes_one_pass_per_factor(monkeypatch, run, passes):
    # shared prefixes are made once: lame's first D, a D-equation's Dbar powers
    assert count_passes(monkeypatch, run) == passes


def test_a_run_read_at_a_lower_power_starts_again(monkeypatch):
    # rising powers of one run go on from power to power; a falling one
    # starts the run again, so the order of the terms never changes the sum
    up = [(Fraction(1, k + 1), (("left", -1, k, "degree"),)) for k in range(4)]
    assert count_passes(monkeypatch, lambda: residual(EIGEN, up)) == 3
    assert residual(EIGEN, up[::-1]).build() == residual(EIGEN, up).build()


def test_a_d_equation_reads_its_input_once(monkeypatch):
    # the precondition and the sum start from one form of f; a ready form
    # gives the residual f gives
    init, reads = NumeratorForm.__init__, []

    def counted_init(self, f, terms=None, den=1):
        if terms is None:
            reads.append(f)
        init(self, f, terms, den)

    monkeypatch.setattr(NumeratorForm, "__init__", counted_init)
    report = d_equation_residual(EIGEN, (1, 0, -2, 0, 5))
    assert reads == [EIGEN]
    monkeypatch.undo()
    up = [(Fraction(1, k + 1), (("left", -1, k, "degree"),)) for k in range(4)]
    assert residual(NumeratorForm(EIGEN), up).build() == residual(EIGEN, up).build()
    assert report.residual == d_equation_residual(EIGEN, (1, 0, -2, 0, 5)).residual


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
