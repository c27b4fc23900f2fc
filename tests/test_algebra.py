import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliffsteer.algebra import (
    Multivector,
    blade_product,
    e1_sandwich,
    format_fraction,
    parse_fraction,
)
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import SteeringExpression, SteeringSymbol
from helpers import e, random_multivector, scalar, x


class TestGeometricProduct:
    def test_generator_squares_to_minus_one(self):
        assert e(4, 1) * e(4, 1) == -1

    def test_generators_anticommute(self):
        assert e(4, 2) * e(4, 1) == -e(4, 1, 2)
        assert e(4, 1) * e(4, 2) == e(4, 1, 2)

    def test_bilinear_expansion(self):
        one = scalar(4, 1)
        assert (one + e(4, 1)) * (one - e(4, 1)) == 2

    def test_blade_merge_matches_iterated_single_generators(self):
        # the transposition-count sign must agree with multiplying e_j one at a time
        rng = random.Random(7)
        m = 5
        for _ in range(300):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            via_mask = Multivector(m, {a: 1}) * Multivector(m, {b: 1})
            step = scalar(m, 1)
            for j in range(1, m + 1):
                if a >> (j - 1) & 1:
                    step = step * e(m, j)
            for j in range(1, m + 1):
                if b >> (j - 1) & 1:
                    step = step * e(m, j)
            assert via_mask == step

    def test_exhaustive_m3_table_is_consistent(self):
        m = 3
        for a in range(8):
            for b in range(8):
                sign, mask = blade_product(a, b)
                assert mask == a ^ b
                assert sign in (-1, 1)
                # involution through reversal: (e_A e_B)(e_B^-1 e_A^-1) = 1
                prod = Multivector(m, {a: 1}) * Multivector(m, {b: 1})
                assert prod.norm_sq() == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            e(3, 1) * e(4, 1)

    def test_scalar_multiplication(self):
        a = e(3, 1) * Fraction(1, 2) + scalar(3, 3)
        assert a * 2 == e(3, 1) + scalar(3, 6)
        assert 2 * a == a * 2
        assert a / 2 == e(3, 1) * Fraction(1, 4) + scalar(3, Fraction(3, 2))
        assert a * 0 == 0 and not a * 0
        with pytest.raises(ZeroDivisionError):
            a / 0

    def test_scalars_as_operands(self):
        a = e(3, 1) + scalar(3, 2)
        assert a + 1 == 1 + a == e(3, 1) + scalar(3, 3)
        assert a - 2 == e(3, 1) and 2 - a == -e(3, 1)
        assert a - a == 0 and not (a - a)
        assert scalar(3, 5) == 5 and Multivector.zero(3) == 0
        assert a != 2 and a != "a" and a != 2.0

    def test_sum_with_a_polynomial_is_a_polynomial(self):
        p = x(3, 2)
        for total in (e(3, 1) + p, p + e(3, 1)):
            assert isinstance(total, CliffordPolynomial)
            assert total == p + CliffordPolynomial.constant(3, e(3, 1))
        assert isinstance(e(3, 1) - p, CliffordPolynomial)
        assert e(3, 1) - p == CliffordPolynomial.constant(3, e(3, 1)) - p


class TestConjugation:
    def test_vector_flips(self):
        assert e(4, 1).conjugate() == -e(4, 1)

    def test_bivector_flips(self):
        assert e(4, 1, 2).conjugate() == -e(4, 1, 2)

    def test_scalar_fixed(self):
        assert scalar(4, 7).conjugate() == 7

    def test_trivector_fixed(self):
        assert e(4, 1, 2, 3).conjugate() == e(4, 1, 2, 3)

    def test_anti_involution(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(2, 5)
            a = random_multivector(rng, m)
            b = random_multivector(rng, m)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()


class TestGradeProjection:
    def test_scalar_projection(self):
        a = scalar(4, 2) + e(4, 1) * 3
        assert a.grade(0) == 2

    def test_missing_grade_is_zero(self):
        assert not e(4, 1, 2).grade(1)

    def test_partition(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_multivector(rng, 4, max_terms=6)
            total = Multivector.zero(4)
            for k in range(5):
                total = total + a.grade(k)
            assert total == a

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="grade"):
            e(4, 1).grade(5)


class TestNorm:
    def test_examples(self):
        assert (scalar(4, 1) + e(4, 1)).norm_sq() == 2
        assert Multivector.zero(4).norm_sq() == 0
        assert e(4, 1, 2, 3).norm_sq() == 1

    def test_matches_scalar_part_of_a_abar(self):
        rng = random.Random(5)
        for _ in range(200):
            a = random_multivector(rng, rng.randint(2, 5))
            assert a.norm_sq() == (a * a.conjugate()).grade(0).scalar_part()


class TestE1Sandwich:
    def test_examples(self):
        assert e1_sandwich(scalar(4, 1)) == -1
        assert e1_sandwich(e(4, 2)) == e(4, 2)
        assert e1_sandwich(e(4, 1)) == -e(4, 1)

    def test_double_sandwich_is_identity(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_multivector(rng, rng.randint(2, 5))
            assert e1_sandwich(e1_sandwich(a)) == a


@st.composite
def multivectors(draw, m=3):
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return Multivector(m, draw(st.dictionaries(masks, coefs, max_size=4)))


@given(multivectors(), multivectors(), multivectors())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(multivectors(), multivectors())
def test_product_distributes(a, b):
    c = a + b
    assert c * c == a * a + a * b + b * a + b * b


class TestConstructionAndJson:
    def test_zero_pruning(self):
        a = Multivector(3, {0: Fraction(1), 1: Fraction(0)})
        assert len(a) == 1

    def test_equality_needs_the_same_dimension(self):
        assert Multivector.scalar(3, 1) != Multivector.scalar(4, 1)
        assert CliffordPolynomial.zero(3) != CliffordPolynomial.zero(4)
        assert SteeringExpression.zero(3) != SteeringExpression.zero(4)
        assert Multivector.scalar(4, 1) == Multivector.scalar(4, 1)

    def test_duplicate_masks_accumulate(self):
        a = Multivector(3, [(1, 1), (1, 2)])
        assert a == e(3, 1) * 3

    def test_invalid_mask(self):
        with pytest.raises(ValueError, match=r"^blade mask must be an integer in 0\.\.3, got 8$"):
            Multivector(2, {8: 1})

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            Multivector(1, {})
        with pytest.raises(ValueError):
            Multivector(17, {})

    def test_document_m_checked(self):
        for m in (True, 1, 17, -3, "4", None):
            with pytest.raises(ValueError, match=r"field 'm' must be an integer in 2\.\.16"):
                Multivector.from_obj({"m": m, "terms": []})

    def test_boolean_blade_index_rejected(self):
        message = r"^generator index must be an integer in 1\.\.4, got True$"
        for blades in ([True], [1, True]):
            with pytest.raises(ValueError, match=message):
                Multivector.from_obj({"m": 4, "terms": [{"blades": blades, "coef": "1"}]})

    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            Multivector(3, {0: 0.5})

    def test_json_roundtrip(self):
        a = scalar(4, Fraction(5, 128)) - e(4, 1, 2) * Fraction(7, 256) + e(4, 3)
        obj = a.to_obj()
        assert obj["terms"][0]["blades"] == []
        assert Multivector.from_obj(obj) == a

    def test_json_is_canonical(self):
        a = Multivector(3, [(5, Fraction(1, 2)), (0, 2)])
        b = Multivector(3, [(0, 2), (5, Fraction(1, 2))])
        assert a.to_obj() == b.to_obj()

    def test_zero_and_repeated_document_terms_rejected(self):
        def doc(*terms):
            return {"m": 3, "terms": [{"blades": b, "coef": q} for b, q in terms]}

        with pytest.raises(ValueError, match="zero coefficient"):
            Multivector.from_obj(doc(([1], "0")))
        for terms in ((([1], "1"), ([1], "-1")), (([], "1/2"), ([2], "1"), ([], "1/2"))):
            with pytest.raises(ValueError, match="more than once"):
                Multivector.from_obj(doc(*terms))
        assert Multivector.from_obj(doc()) == Multivector.zero(3)

    def test_fraction_strings(self):
        assert format_fraction(Fraction(-7, 256)) == "-7/256"
        assert parse_fraction("-7/256") == Fraction(-7, 256)
        assert parse_fraction(3) == 3
        with pytest.raises(TypeError):
            parse_fraction(0.5)
        for text in ("1e5000", "2E3", "1.5e-2"):
            with pytest.raises(ValueError, match=f"'{text}' uses exponent notation"):
                parse_fraction(text)


# -- the shared term-map behaviour of all three value types ---------------------


def sample_multivector(m):
    return Multivector(m, {0b0110: Fraction(-1, 2), 0: 3, 0b0001: Fraction(2, 7)})


def sample_polynomial(m):
    x2, x3 = (0, 0, 1) + (0,) * (m - 2), (0, 0, 0, 2) + (0,) * (m - 3)
    return CliffordPolynomial(m, {x3: sample_multivector(m), x2: 5}, var_scope=range(2, m + 1))


def sample_expression(m):
    terms = [
        (SteeringSymbol.sine(Fraction(1, 3), bar=True), sample_polynomial(m)),
        (SteeringSymbol.power_exp(1, -2), Multivector.blade(m, (2, 3))),
    ]
    return SteeringExpression(m, terms)


MIXED = "(3/1) + (2/7)*e1 + (-1/2)*e2*e3"
POLY = f"[(5/1)]*x2 + [{MIXED}]*x3^2"
TERM_MAPS = [
    (sample_multivector, f"Multivector(m=4, {MIXED})", [0, 1, 6]),
    (
        sample_polynomial,
        f"CliffordPolynomial(m=4, {POLY})",
        [(0, 0, 1, 0, 0), (0, 0, 0, 2, 0)],
    ),
    (
        sample_expression,
        f"SteeringExpression(m=4, z*exp(-2/1*z)*([(1/1)*e2*e3]) + sin(1/3*zb)*({POLY}))",
        [SteeringSymbol.power_exp(1, -2), SteeringSymbol.sine(Fraction(1, 3), bar=True)],
    ),
]


@pytest.mark.parametrize(
    "build", [row[0] for row in TERM_MAPS], ids=["multivector", "polynomial", "expression"]
)
def test_zero_term_map_writes_0(build):
    zero = type(build(4))(4)
    assert (str(zero), repr(zero)) == ("0", f"{type(zero).__name__}(m=4, 0)")


@pytest.mark.parametrize(
    "build", [row[0] for row in TERM_MAPS], ids=["multivector", "polynomial", "expression"]
)
def test_rationals_scale_on_either_side_and_other_operands_are_refused(build):
    value = build(4)
    q = Fraction(-3, 7)
    assert value * q == q * value == value / Fraction(-7, 3)
    assert (value * 0, 0 * value) == (type(value)(4), type(value)(4))
    assert value._times("x", False) is NotImplemented
    for other in ("x", 1.5, [1]):
        with pytest.raises(TypeError):
            value * other
        with pytest.raises(TypeError):
            other * value


def test_polynomial_products_keep_the_operand_order():
    # the coefficients do not commute, so a reflected product must not swap them
    p = CliffordPolynomial(4, {(0, 0, 1, 0, 0): e(4, 2), (0, 0, 0, 0, 0): 1})
    q = CliffordPolynomial(4, {(0, 0, 0, 1, 0): e(4, 3)})
    assert p * q != q * p
    assert p.__rmul__(q) == q * p and q.__rmul__(p) == p * q
    assert p.__rmul__(e(4, 3)) == e(4, 3) * p != p * e(4, 3)


@pytest.mark.parametrize(
    "build, text, keys", TERM_MAPS, ids=["multivector", "polynomial", "expression"]
)
def test_term_map_container(build, text, keys):
    value = build(4)
    assert repr(value) == text
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    # the writers pin the canonical key order; items() keeps merge order, so
    # only its set of keys is pinned
    coefs = dict(value.items())
    assert set(coefs) == set(keys)
    written = [type(value)(4, [(key, coefs[key])]).to_obj()["terms"] for key in keys]
    assert value.to_obj()["terms"] == [term for (term,) in written]
    assert (len(value), bool(value)) == (len(keys), True)
    zero = type(value)(4)
    assert (len(zero), bool(zero), list(zero.items())) == (0, False, [])
    with pytest.raises(ValueError) as info:
        value + build(5)
    assert str(info.value) == "dimension mismatch: m=4 vs m=5"
