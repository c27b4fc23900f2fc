import random
from fractions import Fraction

import pytest

from cliffsteer import appell
from cliffsteer.algebra import Multivector
from cliffsteer.appell import appell_poly, pochhammer, t_coeff
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import SteeringExpression, SteeringSymbol
from helpers import e, x


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(7, 3), 0) == 1

    def test_half(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_integer(self):
        assert pochhammer(3, 3) == 60

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)


class TestWeights:
    def test_first_order_weights_at_m3(self):
        assert t_coeff(1, 0, 3) == Fraction(2, 3)
        assert t_coeff(1, 1, 3) == Fraction(1, 3)

    def test_weights_sum_to_one(self):
        # consistent with evaluating the polynomial on the real axis
        for m in (2, 3, 4):
            for k in range(0, 6):
                assert sum(t_coeff(k, s, m) for s in range(k + 1)) == 1

    def test_index_validation(self):
        message = r"^Appell weight index s must be an integer in 0\.\.2, got 3$"
        with pytest.raises(ValueError, match=message):
            t_coeff(2, 3, 3)


class TestAppellSequence:
    def test_zeroth_is_one(self):
        for m in (2, 3, 4):
            assert appell_poly(0, m) == CliffordPolynomial.constant(m, 1)

    def test_first_at_m3(self):
        m = 3
        expected = (
            x(m, 0)
            + x(m, 1) * e(m, 1) * Fraction(1, 3)
            + x(m, 2) * e(m, 2) * Fraction(1, 3)
            + x(m, 3) * e(m, 3) * Fraction(1, 3)
        )
        assert appell_poly(1, m) == expected

    def test_vanishing_at_origin(self):
        for m in (2, 3, 4):
            for k in range(1, 7):
                assert not appell_poly(k, m).constant_term()

    def test_left_monogenic(self):
        for m in (2, 3, 4):
            for k in range(0, 7):
                assert not appell_poly(k, m).cr_left()

    def test_derivative_recursion(self):
        for m in (2, 3, 4):
            previous = appell_poly(0, m)
            for k in range(1, 7):
                current = appell_poly(k, m)
                assert current.hypercomplex_d() == previous * k
                previous = current

    def test_weights_make_two_rising_factorials(self, monkeypatch):
        # the weights follow T_0 by their exact running ratio: computing T_s
        # afresh for each s would make 3 (k + 1) rising factorials
        calls = []
        real = appell.pochhammer

        def counted(a, k):
            calls.append((a, k))
            return real(a, k)

        monkeypatch.setattr(appell, "pochhammer", counted)
        for k in (0, 5, 12):
            calls.clear()
            appell_poly(k, 4)
            assert len(calls) == 2, (k, calls)

    def test_alternative_sequence_over_monogenic_seed(self):
        # z^k M(y) with a left monogenic M obeys the same derivative recursion
        m = 4
        mono = x(m, 2, yonly=True) * e(m, 2) - x(m, 3, yonly=True) * e(m, 3)
        for k in range(1, 5):
            zk = SteeringExpression(m, [(SteeringSymbol.power_exp(k, 0), mono)])
            expected = SteeringExpression(m, [(SteeringSymbol.power_exp(k - 1, 0), mono * k)])
            assert zk.hypercomplex_d() == expected
            assert not zk.cr_left()


def paravector(m, sign=1):
    """x_0 + sign * sum_j x_j e_j: X for sign 1, its conjugate Xbar for sign -1."""
    out = CliffordPolynomial.variable(m, 0)
    for j in range(1, m + 1):
        out = out + CliffordPolynomial.monomial(m, {j: 1}, Multivector.blade(m, (j,), sign))
    return out


def powers(base, n):
    """[base^0, ..., base^n] by repeated Clifford-polynomial products."""
    out = [CliffordPolynomial.constant(base.m, 1)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


class TestParavectorProducts:
    """``appell_poly`` expands P_k in the paravector plane; here X and Xbar are
    multiplied out as Clifford polynomials, an oracle independent of it."""

    def test_first_power(self):
        m = 2
        expected = x(m, 0) + x(m, 1) * e(m, 1) + x(m, 2) * e(m, 2)
        assert paravector(m) == expected

    def test_x_times_xbar_is_squared_norm(self):
        for m in (2, 3):
            product = paravector(m) * paravector(m, -1)
            expected = CliffordPolynomial.zero(m)
            for i in range(m + 1):
                expected = expected + CliffordPolynomial.monomial(m, {i: 2}, 1)
            assert product == expected

    def test_square_expansion(self):
        m = 2
        got = paravector(m) * paravector(m)
        expected = (
            CliffordPolynomial.monomial(m, {0: 2}, 1)
            - CliffordPolynomial.monomial(m, {1: 2}, 1)
            - CliffordPolynomial.monomial(m, {2: 2}, 1)
            + CliffordPolynomial.monomial(m, {0: 1, 1: 1}, e(m, 1) * 2)
            + CliffordPolynomial.monomial(m, {0: 1, 2: 1}, e(m, 2) * 2)
        )
        assert got == expected

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_appell_equals_the_product_expansion(self, m):
        xs, xbars = powers(paravector(m), 8), powers(paravector(m, -1), 8)
        for k in range(0, 9):
            expected = CliffordPolynomial.zero(m)
            for s in range(k + 1):
                expected = expected + xs[k - s] * xbars[s] * t_coeff(k, s, m)
            got = appell_poly(k, m)
            assert got == expected
            assert got.to_obj() == expected.to_obj()
