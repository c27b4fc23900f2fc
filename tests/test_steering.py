import copy
import gc
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cliffsteer import steering
from cliffsteer.algebra import Multivector, e1_sandwich
from cliffsteer.polynomials import CliffordPolynomial, polyharmonic_basis
from cliffsteer.polynomials import NumeratorForm
from cliffsteer.steering import (
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
from cliffsteer.verify import d_equation_residual, n_monogenic_residual
from helpers import (
    dirac_y_power,
    e,
    random_harmonic,
    random_steering,
    random_y_poly,
    scalar,
    x,
    ymono,
)

M = 4
YSCOPE = range(2, M + 1)

EXP_Z = SteeringSymbol.power_exp(0, 1)
EXP_ZBAR = SteeringSymbol.power_exp(0, 1, bar=True)
CONST = SteeringSymbol.constant()


def exp_pair(m, top, tail):
    return SteeringExpression(m, [(EXP_Z, top), (EXP_ZBAR, tail)])


class TestSymbols:
    def test_constant_is_canonical(self):
        assert SteeringSymbol.power_exp(0, 0, bar=True) == CONST
        assert CONST.conjugate() == CONST

    def test_conjugation_flips_bar(self):
        assert EXP_Z.conjugate() == EXP_ZBAR
        zk = SteeringSymbol.power_exp(3, 0)
        assert zk.conjugate() == SteeringSymbol.power_exp(3, 0, bar=True)
        assert zk.conjugate().conjugate() == zk

    def test_conjugate_equals_the_constructed_twin(self):
        # conjugate keeps its twin on the symbol, so it must give exactly what
        # the checking constructor gives
        for kind in ("powexp", "cos", "sin"):
            for bar in (False, True):
                for power in range(3) if kind == "powexp" else (0,):
                    for rate in (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3, 2)):
                        rate = rate if kind == "powexp" else abs(rate)
                        sym = SteeringSymbol(kind, bar=bar, power=power, rate=rate)
                        twin = SteeringSymbol(kind, bar=not bar, power=power, rate=rate)
                        assert sym.conjugate() == twin
                        assert hash(sym.conjugate()) == hash(twin)
                        assert sym.conjugate().sort_key() == twin.sort_key()
                        assert sym.conjugate().conjugate() == sym
        assert CONST.conjugate() is CONST

    def test_trig_validation(self):
        for rate in (0, -1, Fraction(-3, 2)):
            with pytest.raises(ValueError, match="need a positive rate"):
                SteeringSymbol.cosine(rate)
            with pytest.raises(ValueError, match="need a positive rate"):
                SteeringSymbol.sine(rate)
        with pytest.raises(ValueError, match="power"):
            SteeringSymbol(kind="sin", power=1, rate=Fraction(1))

    def test_booleans_and_integers_not_interchangeable(self):
        power = "^symbol power must be an integer of at least 0, got True$"
        with pytest.raises(ValueError, match=power):
            SteeringSymbol(kind="powexp", power=True)
        with pytest.raises(ValueError, match=power):
            SteeringSymbol.from_obj({"kind": "powexp", "power": True, "rate": "0/1"})
        with pytest.raises(ValueError, match="bar flag"):
            SteeringSymbol.from_obj({"kind": "powexp", "bar": "false", "power": 1, "rate": "0/1"})

    def test_partial_x1_of_power(self):
        z2 = SteeringExpression(M, [(SteeringSymbol.power_exp(2, 0), scalar(M, 1))])
        assert z2.partial(1) == SteeringExpression(
            M, [(SteeringSymbol.power_exp(1, 0), e(M, 1) * 2)]
        )

    def test_partial_x0_of_exp(self):
        assert exp_pair(M, scalar(M, 1), 0).partial(0) == exp_pair(M, scalar(M, 1), 0)

    def test_partial_x0_of_cos(self):
        cos = SteeringExpression(M, [(SteeringSymbol.cosine(1), scalar(M, 1))])
        assert cos.partial(0) == SteeringExpression(M, [(SteeringSymbol.sine(1), scalar(M, -1))])

    def test_partial_x1_of_bar_flips_e1_sign(self):
        assert exp_pair(M, 0, scalar(M, 1)).partial(1) == exp_pair(M, 0, -e(M, 1))

    def test_antiderivative_is_a_right_inverse_of_dz(self):
        # d/dz applied t times to I^t phi gives phi back, for every kind and bar
        symbols = [CONST]
        for rate in (1, -2, Fraction(1, 2), Fraction(-3, 2)):
            symbols += [SteeringSymbol.cosine(abs(rate)), SteeringSymbol.sine(abs(rate))]
            symbols += [SteeringSymbol.power_exp(j, rate) for j in range(4)]
        symbols += [SteeringSymbol.power_exp(j) for j in range(1, 4)]
        for sym in symbols + [sym.conjugate() for sym in symbols]:
            for times in range(1, 6):
                combo = dict((s, q) for q, s in sym._antiderivative(times))
                assert len(combo) == len(sym._antiderivative(times))
                assert all(s.bar == sym.bar for s in combo)
                for _ in range(times):
                    out = {}
                    for s, q in combo.items():
                        for dq, ds in s._dz():
                            out[ds] = out.get(ds, 0) + q * dq
                    combo = {s: q for s, q in out.items() if q}
                assert combo == {sym: 1}, (sym, times)

    def test_json_roundtrip(self):
        for sym in (
            CONST,
            EXP_ZBAR,
            SteeringSymbol.power_exp(2, Fraction(-3, 2), bar=True),
            SteeringSymbol.sine(Fraction(3, 2), bar=True),
        ):
            assert SteeringSymbol.from_obj(sym.to_obj()) == sym


def _made_every_way(sym):
    """``sym`` made again by each route that can make a symbol."""
    again = [
        SteeringSymbol(sym.kind, bar=sym.bar, power=sym.power, rate=sym.rate),
        SteeringSymbol.from_obj(sym.to_obj()),
        sym.conjugate().conjugate(),
        copy.copy(sym),
        copy.deepcopy(sym),
        copy.deepcopy([sym, sym])[1],
        pickle.loads(pickle.dumps(sym)),
    ]
    if sym.rate.denominator == 1:
        again.append(SteeringSymbol(sym.kind, bar=sym.bar, power=sym.power, rate=int(sym.rate)))
    if sym.kind == "powexp":
        again.append(SteeringSymbol.power_exp(sym.power, sym.rate, bar=sym.bar))
    else:
        again.append((SteeringSymbol.cosine if sym.kind == "cos" else SteeringSymbol.sine)(
            sym.rate, bar=sym.bar
        ))
    return again


# (arguments, error type, text) in the order the constructor checks: kind,
# rate, power, bar flag, then the trigonometric rules
POWER = "symbol power must be an integer of at least 0, got "
BAR = "symbol bar flag must be true or false"
POSITIVE = "trigonometric symbols need a positive rate"
REFUSALS = [
    (("tan", "x", -1, 0.5), ValueError, "unknown symbol kind 'tan'"),
    ((["cos"],), ValueError, "unknown symbol kind ['cos']"),
    (("cos", "x", -1, 0.5), TypeError, "expected an exact rational (int or Fraction), got float"),
    (("cos", "x", -1, -1), ValueError, POWER + "-1"),
    (("powexp", False, True), ValueError, POWER + "True"),
    (("cos", "x", 1, -1), ValueError, BAR),
    (("powexp", 0), ValueError, BAR),
    (("sin", False, 1, 1), ValueError, "trigonometric symbols carry no power"),
    (("cos", True, 0, 0), ValueError, POSITIVE),
    (("sin", False, 0, Fraction(-3, 2)), ValueError, POSITIVE),
]
REFUSAL_IDS = [
    "kind", "kind-list", "rate-float", "power-negative", "power-bool", "bar-string", "bar-int",
    "trig-power", "cos-zero-rate", "sin-negative-rate",
]


class TestOneObjectPerSymbol:
    SYMBOLS = [
        CONST,
        EXP_Z,
        EXP_ZBAR,
        SteeringSymbol.power_exp(3),
        SteeringSymbol.power_exp(2, Fraction(-3, 2), bar=True),
        SteeringSymbol.power_exp(1, Fraction(1, 3)),
        SteeringSymbol.cosine(2),
        SteeringSymbol.sine(Fraction(3, 2), bar=True),
    ]

    @pytest.mark.parametrize("sym", SYMBOLS, ids=str)
    def test_every_route_gives_the_one_object(self, sym):
        for other in _made_every_way(sym):
            assert other is sym

    def test_the_constant_is_one_object_with_or_without_a_bar(self):
        for other in (
            SteeringSymbol("powexp"),
            SteeringSymbol("powexp", bar=True),
            SteeringSymbol("powexp", rate=Fraction(0)),
            SteeringSymbol.power_exp(0, 0, bar=True),
            SteeringSymbol.from_obj({"kind": "powexp", "bar": True, "power": 0, "rate": "0/1"}),
            CONST.conjugate(),
        ):
            assert other is CONST
        assert not CONST.bar

    @pytest.mark.parametrize("sym", SYMBOLS, ids=str)
    def test_derivative_and_antiderivative_targets_are_the_made_symbols(self, sym):
        # the values are checked by test_antiderivative_is_a_right_inverse_of_dz
        targets = [s for times in (1, 2, 3) for _, s in sym._antiderivative(times)]
        for target in [s for _, s in sym._dz()] + targets:
            assert target is SteeringSymbol(
                target.kind, bar=target.bar, power=target.power, rate=target.rate
            )
        # worked out once and kept
        assert sym._dz() is sym._dz()
        assert sym.conjugate() is sym.conjugate()

    READABLE = [
        CONST,
        SteeringSymbol.power_exp(2, Fraction(-3, 2)),
        SteeringSymbol.power_exp(2, Fraction(-3, 2), bar=True),
        SteeringSymbol.cosine(2),
        SteeringSymbol.cosine(2, bar=True),
        SteeringSymbol.sine(Fraction(1, 3)),
        SteeringSymbol.sine(Fraction(1, 3), bar=True),
    ]

    @pytest.mark.parametrize("sym", READABLE, ids=str)
    def test_repr_is_the_call_that_gives_the_symbol(self, sym):
        names = {"SteeringSymbol": SteeringSymbol, "Fraction": Fraction}
        assert eval(repr(sym), names) is sym

    def test_repr_names_every_field(self):
        assert repr(EXP_Z) == (
            "SteeringSymbol(kind='powexp', bar=False, power=0, rate=Fraction(1, 1))"
        )

    def test_equality_and_hashing_are_identity(self):
        assert SteeringSymbol.__eq__ is object.__eq__
        assert SteeringSymbol.__hash__ is object.__hash__
        assert EXP_Z != EXP_ZBAR and EXP_Z != "exp(1*z)" and EXP_Z != None  # noqa: E711

    @pytest.mark.parametrize("name", ["kind", "bar", "power", "rate", "_twin", "other"])
    def test_no_field_can_be_assigned_or_deleted(self, name):
        sym = SteeringSymbol.power_exp(2, Fraction(5, 7))
        before = (sym.kind, sym.bar, sym.power, sym.rate)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(sym, name, True)
        if name != "other":
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                delattr(sym, name)
        assert (sym.kind, sym.bar, sym.power, sym.rate) == before

    @pytest.mark.parametrize("args, error, text", REFUSALS, ids=REFUSAL_IDS)
    def test_refusals_keep_their_text_and_enter_nothing(self, args, error, text):
        before = set(steering._SYMBOLS.keys())
        with pytest.raises(error) as caught:
            SteeringSymbol(*args)
        assert str(caught.value) == text
        assert set(steering._SYMBOLS.keys()) <= before

    def test_the_table_holds_only_live_symbols(self):
        gc.collect()
        before = len(steering._SYMBOLS)
        made = []
        for k in range(1, 10001):
            sym = SteeringSymbol.power_exp(1, Fraction(k, 10007))
            sym._dz()  # the kept derivative refers to the symbol itself
            made.append(sym.conjugate())
        assert len(steering._SYMBOLS) >= before + 20000
        del made, sym
        gc.collect()
        assert len(steering._SYMBOLS) == before


class TestBladeMultiplication:
    def test_e2_flips_bar(self):
        expr = SteeringExpression(M, [(EXP_Z, 1)])
        assert expr.lmul(e(M, 2)) == SteeringExpression(M, [(EXP_ZBAR, e(M, 2))])

    def test_e1_does_not_flip(self):
        expr = SteeringExpression(M, [(EXP_Z, 1)])
        assert expr.lmul(e(M, 1)) == SteeringExpression(M, [(EXP_Z, e(M, 1))])

    def test_even_blades_do_not_flip(self):
        a = random_y_poly(random.Random(0), M)
        expr = SteeringExpression(M, [(EXP_Z, a)])
        assert expr.lmul(e(M, 2, 3)) == SteeringExpression(M, [(EXP_Z, e(M, 2, 3) * a)])

    def test_mixed_blade_parity(self):
        # e1e2 contains one generator of index >= 2, so the bar flips
        expr = SteeringExpression(M, [(EXP_Z, 1)])
        assert expr.lmul(e(M, 1, 2)) == SteeringExpression(M, [(EXP_ZBAR, e(M, 1, 2))])

    def test_right_multiplication_never_flips(self):
        expr = SteeringExpression(M, [(EXP_Z, 1)])
        assert expr.rmul(e(M, 2)) == SteeringExpression(M, [(EXP_Z, e(M, 2))])

    def test_coefficients_must_avoid_x0_x1(self):
        with pytest.raises(ValueError, match="x0|scope"):
            SteeringExpression(M, [(EXP_Z, x(M, 0))])


class TestCauchyRiemannLeft:
    def test_first_order_example_is_monogenic(self):
        expr = exp_pair(M, x(M, 2, yonly=True), CliffordPolynomial.constant(M, e(M, 2) * Fraction(-1, 2)))
        assert not expr.cr_left()

    def test_bar_exponential_doubles(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        assert expr.cr_left() == SteeringExpression(M, [(EXP_ZBAR, 2)])

    def test_z_is_monogenic(self):
        expr = SteeringExpression(M, [(SteeringSymbol.power_exp(1, 0), 1)])
        assert not expr.cr_left()

    def test_matches_displayed_exponential_expansion(self):
        # dX[exp(z)A + exp(zb)B] = exp(z)(dirac B) + exp(zb)(dirac A + 2B)
        rng = random.Random(21)
        for _ in range(30):
            a = random_y_poly(rng, M)
            b = random_y_poly(rng, M)
            got = exp_pair(M, a, b).cr_left()
            expected = exp_pair(M, b.dirac_y("left"), a.dirac_y("left") + b * 2)
            assert got == expected

    def test_matches_displayed_trig_expansion(self):
        rng = random.Random(22)
        cos_z, sin_z = SteeringSymbol.cosine(1), SteeringSymbol.sine(1)
        cos_zb, sin_zb = SteeringSymbol.cosine(1, bar=True), SteeringSymbol.sine(1, bar=True)
        for _ in range(20):
            a1, b1, a2, b2 = (random_y_poly(rng, M) for _ in range(4))
            expr = SteeringExpression(M, [(cos_z, a1), (sin_z, b1), (cos_zb, a2), (sin_zb, b2)])
            d = lambda p: p.dirac_y("left")
            expected = SteeringExpression(
                M,
                [
                    (cos_z, d(a2)),
                    (sin_z, d(b2)),
                    (cos_zb, d(a1) + b2 * 2),
                    (sin_zb, d(b1) - a2 * 2),
                ],
            )
            assert expr.cr_left() == expected

    def test_matches_displayed_power_expansion(self):
        rng = random.Random(23)
        for _ in range(20):
            a = [random_y_poly(rng, M) for _ in range(3)]
            b = [None] + [random_y_poly(rng, M) for _ in range(2)]
            terms = [(CONST, a[0])]
            for k in (1, 2):
                terms.append((SteeringSymbol.power_exp(k, 0), a[k]))
                terms.append((SteeringSymbol.power_exp(k, 0, bar=True), b[k]))
            expr = SteeringExpression(M, terms)
            d = lambda p: p.dirac_y("left")
            expected_terms = [
                (CONST, d(a[0]) + b[1] * 2),
                (SteeringSymbol.power_exp(1, 0), d(b[1])),
                (SteeringSymbol.power_exp(2, 0), d(b[2])),
                (SteeringSymbol.power_exp(1, 0, bar=True), d(a[1]) + b[2] * 4),
                (SteeringSymbol.power_exp(2, 0, bar=True), d(a[2])),
            ]
            assert expr.cr_left() == SteeringExpression(M, expected_terms)


class TestCauchyRiemannRight:
    def test_two_sided_seed_part(self):
        a = x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))
        expr = SteeringExpression(M, [(EXP_Z, a)])
        assert not expr.cr_right()

    def test_bar_exponential_doubles_on_the_right(self):
        expr = SteeringExpression(M, [(EXP_ZBAR, 1)])
        assert expr.cr_right() == SteeringExpression(M, [(EXP_ZBAR, 2)])

    def test_constant_is_right_monogenic(self):
        expr = SteeringExpression(M, [(CONST, 1)])
        assert not expr.cr_right()

    def test_matches_displayed_right_expansion(self):
        # F dX = exp(z)(A + e1 A e1 + A dirac) + exp(zb)(B - e1 B e1 + B dirac)
        rng = random.Random(24)
        e1 = e(M, 1)
        for _ in range(30):
            a = random_y_poly(rng, M)
            b = random_y_poly(rng, M)
            got = exp_pair(M, a, b).cr_right()
            expected = exp_pair(
                M,
                a + e1 * a * e1 + a.dirac_y("right"),
                b - e1 * b * e1 + b.dirac_y("right"),
            )
            assert got == expected

    def test_left_and_right_commute(self):
        rng = random.Random(25)
        for _ in range(25):
            expr = random_steering(rng, M)
            assert expr.cr_left().cr_right() == expr.cr_right().cr_left()


class TestHypercomplexDerivative:
    def test_fixed_point_of_exponential_pair(self):
        h = x(M, 2, yonly=True)
        expr = construct_exp_left(h, 1)
        assert expr.hypercomplex_d() == expr

    def test_derivative_of_z(self):
        expr = SteeringExpression(M, [(SteeringSymbol.power_exp(1, 0), 1)])
        assert expr.hypercomplex_d() == SteeringExpression(M, [(CONST, 1)])

    def test_eigenfunction_scaling(self):
        h = random_harmonic(random.Random(26), M, 2)
        fr = construct_eigen(3, h)
        assert fr.hypercomplex_d() == fr * Fraction(3)

    def test_closure_under_all_operators(self):
        rng = random.Random(27)
        for _ in range(20):
            expr = random_steering(rng, M)
            for image in (expr.cr_left(), expr.cr_right(), expr.hypercomplex_d()):
                assert isinstance(image, SteeringExpression)
                assert image.m == M


class TestCoefficientTable:
    def test_remark_values(self):
        assert ck_table(5).c == (
            Fraction(-1, 2),
            Fraction(1, 8),
            Fraction(-1, 16),
            Fraction(5, 128),
            Fraction(-7, 256),
        )

    def test_first_entry(self):
        assert ck_table(1).c == (Fraction(-1, 2),)

    def test_recursion_identity(self):
        table = ck_table(8).c
        for k in range(2, 9):
            acc = Fraction(0)
            for j in range(1, k // 2 + 1):
                for i in range(1, j + 1):
                    acc += comb(k + 1, 2 * j + 1) * comb(j, i) * table[k - i - 1]
            assert table[k - 1] == -acc / 2**k

    def test_closed_form_is_the_papers_recursion(self):
        # c_1 = -1/2, c_k = -(1/2^k) sum_j sum_i C(k+1,2j+1) C(j,i) c_{k-i}, run forward
        c = [None, Fraction(-1, 2)]
        for k in range(2, 61):
            acc = sum(
                comb(k + 1, 2 * j + 1) * comb(j, i) * c[k - i]
                for j in range(1, k // 2 + 1)
                for i in range(1, j + 1)
            )
            c.append(-acc / 2**k)
        assert ck_table(60).c == tuple(c[1:])

    def test_json(self):
        obj = ck_table(5).to_obj()
        assert obj["c"][-1] == "-7/256"

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            ck_table(0)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mat_mul(a, b):
    return tuple(
        tuple(
            _poly_add(_poly_mul(a[r][0], b[0][c]), _poly_mul(a[r][1], b[1][c]))
            for c in range(2)
        )
        for r in range(2)
    )


class TestMatrixPowerClosedForm:
    BASE = (((0,), (0, 1)), ((0, 1), (2,)))

    def test_square(self):
        assert tn_closed_form(2) == (((0, 0, 1), (0, 2)), ((0, 2), (4, 0, 1)))

    def test_cube(self):
        assert tn_closed_form(3) == (((0, 0, 2), (0, 4, 0, 1)), ((0, 4, 0, 1), (8, 0, 4)))

    def test_matches_bruteforce_through_ten(self):
        power = self.BASE
        for n in range(2, 11):
            power = _mat_mul(power, self.BASE)
            assert tn_closed_form(n) == power

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            tn_closed_form(1)


def _apply_int_poly_as_dirac(int_poly, poly):
    total = CliffordPolynomial.zero(poly.m, poly.var_scope)
    for power, coef in enumerate(int_poly):
        if coef:
            total = total + dirac_y_power(poly, power) * coef
    return total


class TestExponentialConstructor:
    def test_linear_seed(self):
        got = construct_exp_left(x(M, 2, yonly=True), 1)
        expected = exp_pair(
            M, x(M, 2, yonly=True), CliffordPolynomial.constant(M, e(M, 2) * Fraction(-1, 2))
        )
        assert got == expected

    def test_cubic_seed_second_order(self):
        got = construct_exp_left(ymono(M, {2: 3}), 2)
        tail = ymono(M, {2: 2}, e(M, 2) * Fraction(-3, 2)) + CliffordPolynomial.constant(
            M, e(M, 2) * Fraction(-3, 4)
        )
        assert got == exp_pair(M, ymono(M, {2: 3}), tail)

    def test_constant_seed(self):
        got = construct_exp_left(CliffordPolynomial.constant(M, 1, YSCOPE), 1)
        assert got == SteeringExpression(M, [(EXP_Z, 1)])

    def test_rejects_non_polyharmonic_seed(self):
        with pytest.raises(ValueError, match="laplacian"):
            construct_exp_left(ymono(M, {2: 2}), 1)

    def test_sweep_residuals_vanish(self):
        for order in (1, 2, 3):
            for degree in range(0, 5):
                for seed in polyharmonic_basis(degree, order, M):
                    expr = construct_exp_left(seed, order)
                    assert not n_monogenic_residual(expr, order, "left").residual

    def test_necessity_of_the_tail(self):
        seed = ymono(M, {2: 3})
        expr = construct_exp_left(seed, 2)
        bump = SteeringExpression(M, [(EXP_ZBAR, e(M, 2))])
        assert n_monogenic_residual(expr + bump, 2, "left").residual

    def test_monogenicity_ladder(self):
        seed = random_harmonic(random.Random(30), M, 3)
        expr = construct_exp_left(seed, 1)
        for higher in (2, 3, 4):
            assert n_monogenic_residual(expr, higher, "left").is_zero

    def test_operator_matrix_system_consistency(self):
        # the closed-form matrix applied as Dirac powers must annihilate (A, B)
        for order in (2, 3, 4, 5):
            matrix = tn_closed_form(order)
            for degree in (2, 3):
                for seed in polyharmonic_basis(degree, order, M)[:3]:
                    expr = construct_exp_left(seed, order)
                    a = expr.coefficient(EXP_Z)
                    b = expr.coefficient(EXP_ZBAR)
                    row1 = _apply_int_poly_as_dirac(matrix[0][0], a) + _apply_int_poly_as_dirac(
                        matrix[0][1], b
                    )
                    row2 = _apply_int_poly_as_dirac(matrix[1][0], a) + _apply_int_poly_as_dirac(
                        matrix[1][1], b
                    )
                    assert not row1 and not row2


class TestTrigConstructor:
    def test_first_order_cos_seed(self):
        got = construct_trig_left(x(M, 2, yonly=True), CliffordPolynomial.zero(M, YSCOPE), 1)
        expected = SteeringExpression(
            M,
            [
                (SteeringSymbol.cosine(1), x(M, 2, yonly=True)),
                (SteeringSymbol.sine(1, bar=True), e(M, 2) * Fraction(-1, 2)),
            ],
        )
        assert got == expected

    def test_first_order_sin_seed(self):
        got = construct_trig_left(CliffordPolynomial.zero(M, YSCOPE), x(M, 2, yonly=True), 1)
        expected = SteeringExpression(
            M,
            [
                (SteeringSymbol.sine(1), x(M, 2, yonly=True)),
                (SteeringSymbol.cosine(1, bar=True), e(M, 2) * Fraction(1, 2)),
            ],
        )
        assert got == expected

    def test_alternating_signs_against_table(self):
        # conjugate-side tails carry (-1)^k c_k and (-1)^(k+1) c_k
        seed = ymono(M, {2: 3})
        zero = CliffordPolynomial.zero(M, YSCOPE)
        for order in (2, 3, 4):
            table = ck_table(order).c
            expr = construct_trig_left(seed, zero, order)
            expected_b2 = CliffordPolynomial.zero(M, YSCOPE)
            for k in range(1, order + 1):
                sign = Fraction((-1) ** (k + 1))
                expected_b2 = expected_b2 + dirac_y_power(seed, 2 * k - 1) * (sign * table[k - 1])
            assert expr.coefficient(SteeringSymbol.sine(1, bar=True)) == expected_b2
            assert not expr.coefficient(SteeringSymbol.cosine(1, bar=True))
            flipped = construct_trig_left(zero, seed, order)
            expected_a2 = CliffordPolynomial.zero(M, YSCOPE)
            for k in range(1, order + 1):
                sign = Fraction((-1) ** k)
                expected_a2 = expected_a2 + dirac_y_power(seed, 2 * k - 1) * (sign * table[k - 1])
            assert flipped.coefficient(SteeringSymbol.cosine(1, bar=True)) == expected_a2

    def test_sweep_residuals_vanish(self):
        zero = CliffordPolynomial.zero(M, YSCOPE)
        for order in (1, 2, 3):
            for degree in range(0, 4):
                for seed in polyharmonic_basis(degree, order, M):
                    both = construct_trig_left(seed, seed, order)
                    assert n_monogenic_residual(both, order, "left").is_zero
                for seed in polyharmonic_basis(degree, order, M)[:2]:
                    assert n_monogenic_residual(
                        construct_trig_left(seed, zero, order), order, "left"
                    ).is_zero


class TestPowerConstructor:
    def test_first_order_specialization(self):
        # B_k = -(1/2k) dirac A_{k-1}
        rng = random.Random(31)
        seeds = [random_harmonic(rng, M, d) for d in (2, 1, 2)]
        expr = construct_power_left(seeds, 1)
        for k in (1, 2, 3):
            expected = seeds[k - 1].dirac_y("left") * Fraction(-1, 2 * k)
            assert expr.coefficient(SteeringSymbol.power_exp(k, 0, bar=True)) == expected

    def test_displayed_scalar_coefficients(self):
        assert power_coefficient(1, 1) == Fraction(-1, 2)
        assert power_coefficient(1, 5) == Fraction(-1, 10)
        assert power_coefficient(2, 3) == Fraction(1, 48)
        assert power_coefficient(2, 5) == Fraction(1, 480)
        assert power_coefficient(3, 5) == Fraction(-1, 1920)

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            power_coefficient(2, 2)

    def test_sweep_residuals_vanish(self):
        rng = random.Random(32)
        for order in (1, 2, 3):
            seeds = []
            for degree in range(0, 4):
                basis = polyharmonic_basis(degree, order, M)
                seeds.append(basis[rng.randrange(len(basis))])
            expr = construct_power_left(seeds, order)
            assert n_monogenic_residual(expr, order, "left").is_zero

    def test_series_terminates(self):
        seeds = [ymono(M, {2: 3})]
        expr = construct_power_left(seeds, 2)
        powers = [s.power for s in expr.symbols() if s.bar]
        assert powers and max(powers) <= 1 + 2 * 2 - 1


def _laplacian_passes_at_most(monkeypatch, passes):
    # a seed of degree d has at most d // 2 + 1 powers to read, down to its first
    # zero one; a construction that asks for more fails here at once
    real = NumeratorForm.laplacian
    calls = []

    def bounded(form):
        calls.append(form)
        assert len(calls) <= passes, f"Laplacian pass {len(calls)}, over {passes}"
        return real(form)

    monkeypatch.setattr(NumeratorForm, "laplacian", bounded)


class TestChainEnd:
    # the conjugate side stops with each seed's own Laplacian chain, so the order
    # bounds the chain and no more: past it, the construction is the same document
    BIG = polyharmonic_basis(5, 3, M)[0]  # degree 5 in ker laplacian^3, not ker^2

    def test_exp_at_any_order_is_order_one_on_a_harmonic_seed(self, monkeypatch):
        seed = x(M, 2, yonly=True)
        expected = construct_exp_left(seed, 1).to_obj()
        _laplacian_passes_at_most(monkeypatch, 1)
        assert construct_exp_left(seed, 10**9).to_obj() == expected

    def test_trig_past_the_chain_is_the_chains_order(self, monkeypatch):
        with pytest.raises(ValueError, match="not annihilated by laplacian\\^2"):
            construct_exp_left(self.BIG, 2)  # so order 3 reads the whole chain
        expected = construct_trig_left(self.BIG, self.BIG, 3).to_obj()
        _laplacian_passes_at_most(monkeypatch, 2 * (5 // 2 + 1))
        assert construct_trig_left(self.BIG, self.BIG, 10**6).to_obj() == expected

    def test_power_past_the_chain_is_the_chains_order(self, monkeypatch):
        seeds = [x(M, 2, yonly=True), self.BIG]
        expected = construct_power_left(seeds, 3)
        _laplacian_passes_at_most(monkeypatch, (1 // 2 + 1) + (5 // 2 + 1))
        got = construct_power_left(seeds, 10**6)
        assert got.to_obj() == expected.to_obj()
        assert n_monogenic_residual(got, 3, "left").is_zero


def _dy(p):
    # the left y-Dirac operator written out term by term
    total = CliffordPolynomial.zero(p.m, range(2, p.m + 1))
    for j in range(2, p.m + 1):
        total = total + e(p.m, j) * p.partial(j)
    return total


def _e1_difference(p):
    return p - e(p.m, 1) * p * e(p.m, 1)


def _right_monogenic_pair(m):
    # (x2 + x3 e2e3)/2, and x3 - x2 e2e3 plus e2 times the right y-gradient of x2 x3 x4
    first = (x(m, 2, yonly=True) + ymono(m, {3: 1}, e(m, 2, 3))) * Fraction(1, 2)
    second = (
        ymono(m, {3: 1})
        - ymono(m, {2: 1}, e(m, 2, 3))
        - ymono(m, {3: 1, 4: 1})
        + ymono(m, {2: 1, 4: 1}, e(m, 2, 3))
        + ymono(m, {2: 1, 3: 1}, e(m, 2, 4))
    )
    for p in (first, second):
        assert not p.dirac_y("right")
    return first, second


@st.composite
def two_sided_seeds(draw):
    # two or three right monogenic seeds at one m in 3..6: a constant times the right
    # y-Dirac derivative of a harmonic polynomial with Clifford coefficients.  A
    # scalar-coefficient harmonic with a unit factor gives M - e1 M e1 = 0
    m = draw(st.integers(min_value=3, max_value=6))
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    constants = st.dictionaries(masks, rationals, min_size=1, max_size=3).map(
        lambda terms: Multivector(m, terms)
    )
    seeds = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        basis = polyharmonic_basis(draw(st.integers(min_value=1, max_value=3)), 1, m)
        picks = st.lists(st.sampled_from(basis), min_size=1, max_size=2, unique_by=id)
        h = CliffordPolynomial.zero(m, range(2, m + 1))
        for b in draw(picks):
            h = h + b * draw(st.one_of(st.just(Multivector.scalar(m, 1)), constants))
        seeds.append(draw(st.one_of(st.just(Multivector.scalar(m, 1)), constants))
                     * h.dirac_y("right"))
    return seeds


def _two_sided_reference(family, seeds):
    # the order-1 construction on A = M - e1 M e1 in Fraction arithmetic: each seed
    # term phi(z) A and c_1 (I phi)(zb) dy A, c_1 = -1/2, I the antiderivative in z:
    # exp -> exp, cos -> sin, sin -> -cos and z^k -> z^(k+1)/(k+1)
    diffs = [seed - e1_sandwich(seed) for seed in seeds]
    if family == "exp":
        pairs = [(EXP_Z, EXP_ZBAR, Fraction(-1, 2))]
    elif family == "trig":
        cos, sin = SteeringSymbol.cosine(1), SteeringSymbol.sine(1)
        pairs = [(cos, sin.conjugate(), Fraction(-1, 2)), (sin, cos.conjugate(), Fraction(1, 2))]
    else:
        pairs = [
            (SteeringSymbol.power_exp(k), SteeringSymbol.power_exp(k + 1, bar=True),
             Fraction(-1, 2 * (k + 1)))
            for k in range(len(seeds))
        ]
    terms = []
    for (sym, target, weight), a in zip(pairs, diffs):
        terms += [(sym, a), (target, _dy(a) * weight)]
    return SteeringExpression(seeds[0].m, terms)


class TestTwoSidedConstructor:
    def test_exponential_example(self):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        got = construct_two_sided("exp", seed)
        expected = exp_pair(
            M,
            x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3)),
            CliffordPolynomial.constant(M, -e(M, 2)),
        )
        assert got == expected
        assert not got.cr_left() and not got.cr_right()

    def test_constant_seed(self):
        got = construct_two_sided("exp", CliffordPolynomial.constant(M, 5, YSCOPE))
        assert got == SteeringExpression(M, [(EXP_Z, 10)])
        assert not got.cr_left() and not got.cr_right()

    def test_trig_family(self):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        got = construct_two_sided("trig", (seed, seed))
        assert not got.cr_left() and not got.cr_right()

    def test_power_family(self):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        other = (x(M, 2, yonly=True) * e(M, 2) - x(M, 3, yonly=True) * e(M, 3)) * Fraction(1, 2)
        got = construct_two_sided("power", (seed, other))
        assert not got.cr_left() and not got.cr_right()

    def test_trig_family_by_value(self):
        # cos(z)A + sin(z)B + cos(zb)(1/2 dy B) + sin(zb)(-1/2 dy A), A = M - e1 M e1
        seed_m, seed_n = _right_monogenic_pair(M)
        a, b = _e1_difference(seed_m), _e1_difference(seed_n)
        assert a and b and _dy(a) and _dy(b)
        expected = SteeringExpression(
            M,
            [
                (SteeringSymbol.cosine(1), a),
                (SteeringSymbol.sine(1), b),
                (SteeringSymbol.cosine(1, bar=True), _dy(b) * Fraction(1, 2)),
                (SteeringSymbol.sine(1, bar=True), _dy(a) * Fraction(-1, 2)),
            ],
        )
        assert construct_two_sided("trig", (seed_m, seed_n)) == expected

    def test_power_family_by_value(self):
        # sum_k z^k A_k + sum_k zb^k (-1/(2k)) dy A_(k-1)
        seed_m, seed_n = _right_monogenic_pair(M)
        seeds = [seed_m, seed_n, seed_m * 3]
        diffs = [_e1_difference(s) for s in seeds]
        terms = [(SteeringSymbol.power_exp(k), a) for k, a in enumerate(diffs)]
        for k in range(1, len(diffs) + 1):
            tail = _dy(diffs[k - 1]) * Fraction(-1, 2 * k)
            assert tail
            terms.append((SteeringSymbol.power_exp(k, bar=True), tail))
        assert construct_two_sided("power", seeds) == SteeringExpression(M, terms)

    @given(two_sided_seeds())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_a_fraction_reference(self, seeds):
        for family, arg in (("exp", seeds[0]), ("trig", seeds[:2]), ("power", seeds)):
            got = construct_two_sided(family, arg)
            assert got == _two_sided_reference(family, seeds)
            assert got.to_obj() == _two_sided_reference(family, seeds).to_obj()

    def test_rejects_non_right_monogenic_seed(self):
        with pytest.raises(ValueError, match="right monogenic"):
            construct_two_sided("exp", x(M, 2, yonly=True) * e(M, 2))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            construct_two_sided("hyperbolic", CliffordPolynomial.constant(M, 1, YSCOPE))


class TestEigenConstructor:
    def test_unit_rate_example(self):
        seed = ymono(M, {2: 1}, e(M, 2) * 2)
        fr = construct_eigen(1, seed)
        assert fr == SteeringExpression(M, [(EXP_Z, seed), (EXP_ZBAR, 1)])
        assert fr.at_origin() == scalar(M, 1)
        assert fr.hypercomplex_d() == fr

    def test_eigenrelation_for_sampled_rates(self):
        rng = random.Random(33)
        for rate in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 2)):
            seed = random_harmonic(rng, M, rng.randint(1, 3))
            fr = construct_eigen(rate, seed)
            assert not fr.cr_left()
            assert fr.hypercomplex_d() == fr * rate

    def test_negative_rate_example(self):
        fr = construct_eigen(-2, x(M, 3, yonly=True))
        assert fr.hypercomplex_d() == fr * Fraction(-2)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            construct_eigen(0, x(M, 2, yonly=True))

    def test_unit_rate_is_the_first_order_exponential(self):
        rng = random.Random(36)
        for degree in (0, 1, 2, 3):
            h = random_harmonic(rng, M, degree)
            assert construct_eigen(1, h) == construct_exp_left(h, 1)


def _monogenic_seed(m):
    return x(m, 2, yonly=True) * e(m, 2) - x(m, 3, yonly=True) * e(m, 3)


class TestDsolve:
    def test_single_root(self):
        h = ymono(M, {2: 1}, e(M, 2) * 2)
        spec = DSolveSpec(M, (1, -1), (RootSpec(Fraction(1), 1, h),))
        solution = dsolve(spec)
        assert d_equation_residual(solution, (1, -1)).is_zero
        assert solution.at_origin() == scalar(M, 1)

    def test_two_distinct_roots(self):
        h = random_harmonic(random.Random(34), M, 2)
        spec = DSolveSpec(
            M, (1, 1, -2), (RootSpec(Fraction(1), 1, h), RootSpec(Fraction(-2), 1, h))
        )
        assert d_equation_residual(dsolve(spec), (1, 1, -2)).is_zero

    def test_zero_root_with_multiplicity(self):
        mono = _monogenic_seed(M)
        spec = DSolveSpec(M, (1, 0, 0), (RootSpec(Fraction(0), 2, None, (mono, mono)),))
        solution = dsolve(spec)
        assert solution == SteeringExpression(
            M, [(CONST, mono), (SteeringSymbol.power_exp(1, 0), mono)]
        )
        d1 = solution.hypercomplex_d()
        assert d1 == SteeringExpression(M, [(CONST, mono)])
        assert not d1.hypercomplex_d()

    def test_repeated_nonzero_root(self):
        h = random_harmonic(random.Random(35), M, 2)
        mono = _monogenic_seed(M)
        spec = DSolveSpec(
            M, (1, -2, 1), (RootSpec(Fraction(1), 2, h, (mono, mono)),)
        )
        assert d_equation_residual(dsolve(spec), (1, -2, 1)).is_zero

    def test_eigen_pair_is_construct_eigen(self):
        rng = random.Random(37)
        for rate in (Fraction(1), Fraction(-2), Fraction(3, 2)):
            h = random_harmonic(rng, M, 2)
            spec = DSolveSpec(M, (1, -rate), (RootSpec(rate, 1, h),))
            assert dsolve(spec) == construct_eigen(rate, h)

    def test_non_root_rejected(self):
        h = ymono(M, {2: 1}, e(M, 2))
        spec = DSolveSpec(M, (1, -1), (RootSpec(Fraction(3), 1, h),))
        with pytest.raises(ValueError, match="not a root"):
            dsolve(spec)

    def test_over_declared_multiplicity_rejected(self):
        h = ymono(M, {2: 1}, e(M, 2))
        spec = DSolveSpec(M, (1, -2, 1), (RootSpec(Fraction(1), 3, h),))
        with pytest.raises(ValueError, match="multiplicities|degree"):
            dsolve(spec)

    def test_zero_root_refuses_harmonic_seed(self):
        h = ymono(M, {2: 1}, e(M, 2))
        spec = DSolveSpec(M, (1, 0), (RootSpec(Fraction(0), 1, h),))
        with pytest.raises(ValueError, match="monogenic seeds only"):
            dsolve(spec)

    def test_non_monogenic_seed_rejected(self):
        spec = DSolveSpec(
            M, (1, 0), (RootSpec(Fraction(0), 1, None, (x(M, 2, yonly=True),)),)
        )
        with pytest.raises(ValueError, match="left monogenic"):
            dsolve(spec)


def _y2(m=M):
    return x(m, 2, yonly=True)


def _one(m=M):
    return CliffordPolynomial.constant(m, 1, range(2, m + 1))


def _not_harmonic(m=M):
    return ymono(m, {2: 2})


def _dsolve_zero_root(*seeds):
    coeffs = (1,) + (0,) * len(seeds)
    return dsolve(DSolveSpec(M, coeffs, (RootSpec(Fraction(0), len(seeds), None, seeds),)))


# every refusal of the constructors and of dsolve's seed checks, with its exact
# type and text; the first fault found is the one reported
REFUSALS = [
    ("exp-order-0", lambda: construct_exp_left(_y2(), 0), ValueError,
     "order must be an integer of at least 1, got 0"),
    ("trig-order-0", lambda: construct_trig_left(_y2(), _y2(), 0), ValueError,
     "order must be an integer of at least 1, got 0"),
    ("power-order-0", lambda: construct_power_left([_y2()], 0), ValueError,
     "order must be an integer of at least 1, got 0"),
    ("exp-not-polynomial", lambda: construct_exp_left(e(M, 2), 1), TypeError,
     "seed must be a CliffordPolynomial"),
    ("sin-not-polynomial", lambda: construct_trig_left(_y2(), 1, 1), TypeError,
     "sin seed must be a CliffordPolynomial"),
    ("exp-seed-in-x0", lambda: construct_exp_left(x(M, 0), 1), ValueError,
     "seed must depend on x2..x4 only "
     "(monomial uses x0 outside the declared variable scope)"),
    ("power-seed-in-x0", lambda: construct_power_left([_y2(), x(M, 0)], 1), ValueError,
     "seed 1 must depend on x2..x4 only "
     "(monomial uses x0 outside the declared variable scope)"),
    ("exp-not-harmonic", lambda: construct_exp_left(_not_harmonic(), 1), ValueError,
     "seed is not annihilated by laplacian^1"),
    ("cos-not-harmonic", lambda: construct_trig_left(_not_harmonic(), _y2(), 1), ValueError,
     "cos seed is not annihilated by laplacian^1"),
    ("sin-not-harmonic", lambda: construct_trig_left(_y2(), _not_harmonic(), 1), ValueError,
     "sin seed is not annihilated by laplacian^1"),
    ("power-not-harmonic", lambda: construct_power_left([_y2(), _not_harmonic()], 1),
     ValueError, "seed 1 is not annihilated by laplacian^1"),
    ("exp-not-biharmonic", lambda: construct_exp_left(ymono(M, {2: 4}), 2), ValueError,
     "seed is not annihilated by laplacian^2"),
    ("trig-m-mismatch", lambda: construct_trig_left(_y2(4), _y2(5), 1), ValueError,
     "dimension mismatch: m=4 vs m=5"),
    ("cos-not-harmonic-sin-m-mismatch",
     lambda: construct_trig_left(_not_harmonic(4), _y2(5), 1), ValueError,
     "cos seed is not annihilated by laplacian^1"),
    ("power-m-mismatch", lambda: construct_power_left([_y2(4), _y2(5)], 1), ValueError,
     "dimension mismatch: m=4 vs m=5"),
    ("power-not-harmonic-before-m-mismatch",
     lambda: construct_power_left([_not_harmonic(4), _y2(5)], 1), ValueError,
     "seed 0 is not annihilated by laplacian^1"),
    ("power-x0-before-not-harmonic",
     lambda: construct_power_left([_not_harmonic(), x(M, 0)], 1), ValueError,
     "seed 1 must depend on x2..x4 only "
     "(monomial uses x0 outside the declared variable scope)"),
    ("power-empty", lambda: construct_power_left([], 1), ValueError,
     "at least one seed is required"),
    ("two-sided-power-empty", lambda: construct_two_sided("power", []), ValueError,
     "at least one seed is required"),
    ("two-sided-unknown-family", lambda: construct_two_sided("hyperbolic", _y2()), ValueError,
     "unknown steering family 'hyperbolic'"),
    ("two-sided-exp-not-right-monogenic",
     lambda: construct_two_sided("exp", _y2() * e(M, 2)), ValueError,
     "seed is not right monogenic in the y variables"),
    ("two-sided-cos-not-right-monogenic",
     lambda: construct_two_sided("trig", (_y2() * e(M, 2), _one())), ValueError,
     "cos seed is not right monogenic in the y variables"),
    ("two-sided-power-not-right-monogenic",
     lambda: construct_two_sided("power", [_one(), _y2() * e(M, 2)]), ValueError,
     "seed 1 is not right monogenic in the y variables"),
    ("two-sided-exp-seed-in-x0", lambda: construct_two_sided("exp", x(M, 0)), ValueError,
     "seed must depend on x2..x4 only "
     "(monomial uses x0 outside the declared variable scope)"),
    ("two-sided-trig-m-mismatch", lambda: construct_two_sided("trig", (_one(4), _one(5))),
     ValueError, "dimension mismatch: m=4 vs m=5"),
    ("two-sided-power-m-mismatch", lambda: construct_two_sided("power", [_one(4), _one(5)]),
     ValueError, "dimension mismatch: m=4 vs m=5"),
    ("two-sided-trig-three-seeds",
     lambda: construct_two_sided("trig", (_one(), _one(), _one())), ValueError,
     "too many values to unpack (expected 2)"),
    ("eigen-rate-0", lambda: construct_eigen(0, _y2()), ValueError,
     "eigenvalue rate must be nonzero"),
    ("eigen-inexact-rate", lambda: construct_eigen(0.5, _y2()), TypeError,
     "expected an exact rational (int or Fraction), got float"),
    ("eigen-not-harmonic", lambda: construct_eigen(2, _not_harmonic()), ValueError,
     "seed is not annihilated by laplacian^1"),
    ("dsolve-harmonic-seed-m-mismatch",
     lambda: dsolve(DSolveSpec(M, (1, -1), (RootSpec(Fraction(1), 1, _y2(5)),))),
     ValueError, "root 1 harmonic seed: dimension mismatch: m=5 vs m=4"),
    ("dsolve-harmonic-seed-not-harmonic",
     lambda: dsolve(DSolveSpec(M, (1, -1), (RootSpec(Fraction(1), 1, _not_harmonic()),))),
     ValueError, "root 1 harmonic seed is not annihilated by laplacian^1"),
    ("dsolve-seed-m-mismatch-after-later-fault",
     lambda: _dsolve_zero_root(_monogenic_seed(5), _y2()), ValueError,
     "root 0 seed 0: dimension mismatch: m=5 vs m=4"),
    ("dsolve-seed-not-monogenic", lambda: _dsolve_zero_root(_y2()), ValueError,
     "root 0 seed 0 is not left monogenic in the y variables"),
]


@pytest.mark.parametrize("call, kind, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_construction_refusals(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def _dsolve_root_1(*roots):
    return dsolve(DSolveSpec(M, (1, -2, 1), roots))


# every refusal of a D-equation spec, of its roots and of an expression's keys
# that is not an integer bound, with its exact type and text
SPEC_REFUSALS = [
    ("spec-degree-0", lambda: DSolveSpec(M, (1,), ()), ValueError,
     "need at least degree 1 (two coefficients)"),
    ("spec-leading-zero", lambda: DSolveSpec(M, (0, 1), ()), ValueError,
     "leading coefficient a0 must be nonzero"),
    ("root-declared-twice",
     lambda: _dsolve_root_1(RootSpec(Fraction(1)), RootSpec(Fraction(1))), ValueError,
     "root 1 declared more than once"),
    ("seeds-exceed-multiplicity",
     lambda: _dsolve_root_1(RootSpec(Fraction(1), 1, None, (_monogenic_seed(M),) * 2)),
     ValueError, "root 1: 2 monogenic seeds exceed multiplicity 1"),
    ("expression-key-not-a-symbol", lambda: SteeringExpression(M, [("cos", 1)]), TypeError,
     "term keys must be SteeringSymbol, got str"),
    ("d-equation-no-coefficients", lambda: d_equation_residual(SteeringExpression(M), ()),
     ValueError, "at least one coefficient is required"),
]


@pytest.mark.parametrize("call, kind, message", [r[1:] for r in SPEC_REFUSALS],
                         ids=[r[0] for r in SPEC_REFUSALS])
def test_spec_refusals(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_dsolve_skips_a_zero_monogenic_seed():
    zero = CliffordPolynomial.zero(M, YSCOPE)
    seed = _monogenic_seed(M)
    solution = _dsolve_root_1(RootSpec(Fraction(1), 2, None, (zero, seed)))
    assert solution == SteeringExpression(M, [(SteeringSymbol.power_exp(1, 1), seed)])
    assert d_equation_residual(solution, (1, -2, 1)).is_zero


def _constructions():
    # every family on the left at orders 1 and 2 and on both sides, eigen, and
    # dsolve specs: eigen pairs at two roots, a root whose eigen pair and k = 0
    # monogenic seed share exp(z), and the zero root
    rng = random.Random(42)
    out = []
    for m in (4, 5):
        def seed(order):
            total = CliffordPolynomial.zero(m, range(2, m + 1))
            for b in polyharmonic_basis(3, order, m)[:3]:
                total = total + b * e(m, 2) * Fraction(rng.randint(1, 3), rng.randint(1, 3))
            return total

        for order in (1, 2):
            out += [construct_exp_left(seed(order), order),
                    construct_trig_left(seed(order), seed(order), order),
                    construct_power_left([seed(order), seed(order), seed(order)], order)]
        first, second = _right_monogenic_pair(m)
        out += [construct_two_sided("exp", second),
                construct_two_sided("trig", (first, second)),
                construct_two_sided("power", [first, second, first]),
                construct_eigen(Fraction(-3, 2), seed(1))]
        mono = _monogenic_seed(m)
        specs = [
            ((1, 1, -2), (RootSpec(Fraction(1), 1, seed(1)), RootSpec(Fraction(-2), 1, seed(1)))),
            ((1, -2, 1), (RootSpec(Fraction(1), 2, seed(1), (mono, mono * 3)),)),
            ((1, 0, 0), (RootSpec(Fraction(0), 2, None, (mono, mono)),)),
        ]
        out += [dsolve(DSolveSpec(m, *spec)) for spec in specs]
    return out


def test_constructions_equal_their_terms_through_the_validating_constructor():
    for built in _constructions():
        again = SteeringExpression(built.m, built.items())
        assert built == again and built.to_obj() == again.to_obj()
        assert all(poly for _, poly in built.items())


def test_dsolve_sums_shared_symbol_terms_and_drops_them_where_they_cancel():
    mono, h = _monogenic_seed(M), random_harmonic(random.Random(43), M, 2)
    summed = dsolve(DSolveSpec(M, (1, -1), (RootSpec(Fraction(1), 1, h, (mono,)),)))
    assert summed.coefficient(EXP_Z) == h + mono
    # -mono is harmonic with a zero y-Dirac derivative: its eigen pair is
    # exp(z)(-mono), which the k = 0 seed exp(z) mono cancels
    roots = (RootSpec(Fraction(1), 1, -mono, (mono,)), RootSpec(Fraction(-2), 1, h))
    solution = dsolve(DSolveSpec(M, (1, 1, -2), roots))
    assert EXP_Z not in dict(solution.items())
    assert solution == dsolve(DSolveSpec(M, (1, 2), (RootSpec(Fraction(-2), 1, h),)))
    assert solution.to_obj() == SteeringExpression(M, solution.items()).to_obj()


class TestExpressionJson:
    def test_roundtrip(self):
        rng = random.Random(36)
        for _ in range(20):
            expr = random_steering(rng, M)
            assert SteeringExpression.from_obj(expr.to_obj()) == expr

    def test_canonical_term_order(self):
        a = SteeringExpression(M, [(EXP_ZBAR, 1), (EXP_Z, x(M, 2, yonly=True))])
        b = SteeringExpression(M, [(EXP_Z, x(M, 2, yonly=True)), (EXP_ZBAR, 1)])
        assert a.to_obj() == b.to_obj()


def test_at_origin_reads_each_symbol_at_zero():
    # cos(0) = 1, sin(0) = 0, z^0 exp(0) = 1 and z^1 exp(z) = 0, with or without a bar;
    # only a coefficient's constant term survives X = 0
    a, b, c = e(M, 2) + 3, e(M, 1, 3), Fraction(-2, 5)
    y2 = x(M, 2, yonly=True)
    expr = SteeringExpression(M, [
        (SteeringSymbol.cosine(2), y2 + a),
        (SteeringSymbol.cosine(Fraction(1, 2), bar=True), y2 * e(M, 4) + b),
        (SteeringSymbol.sine(3), y2 + 7),
        (SteeringSymbol.sine(1, bar=True), e(M, 2)),
        (CONST, c),
        (SteeringSymbol.power_exp(1, 1), 5),
    ])
    assert expr.at_origin() == a + b + c
    assert SteeringExpression(M, [(SteeringSymbol.sine(2), 1)]).at_origin() == 0


class TestLinearStructure:
    def test_cancelling_coefficients_drop_their_symbol(self):
        y2 = x(M, 2, yonly=True)
        a = SteeringExpression(M, [(EXP_Z, y2), (EXP_ZBAR, 1)])
        b = SteeringExpression(M, [(EXP_Z, -y2), (CONST, 2)])
        assert (a + b).symbols() == (CONST, EXP_ZBAR)
        assert (a - a).symbols() == () and not a - a
        assert (a + (-a)) == SteeringExpression.zero(M)

    def test_other_operands_are_refused(self):
        a = SteeringExpression(M, [(EXP_Z, x(M, 2, yonly=True))])
        for other in (x(M, 2, yonly=True), scalar(M, 1), 1):
            with pytest.raises(TypeError):
                a + other
            with pytest.raises(TypeError):
                other + a
            with pytest.raises(TypeError):
                a - other
        assert (a == 1) is False and (a != 1) is True
        assert SteeringExpression.zero(M) != 0

    def test_sums_and_multiples_match_the_constructor(self):
        # the parent path: every term handed to the validating constructor
        rng = random.Random(91)
        for _ in range(40):
            a, b = random_steering(rng, M), random_steering(rng, M)
            if rng.random() < 0.5:
                b = b + a * Fraction(-1)  # cancels a's coefficients in a + b
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            cases = [
                (a + b, list(a.items()) + list(b.items())),
                (a - b, list(a.items()) + [(s, -p) for s, p in b.items()]),
                (a * q, [(s, p * q) for s, p in a.items()]),
                (q * a, [(s, p * q) for s, p in a.items()]),
                (-a, [(s, -p) for s, p in a.items()]),
            ]
            for got, terms in cases:
                assert got.to_obj() == SteeringExpression(M, terms).to_obj()
