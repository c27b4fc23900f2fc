import itertools
import random
from fractions import Fraction

import pytest
import sympy

from cliffsteer.algebra import Multivector
from cliffsteer.polynomials import (
    CliffordPolynomial, NumeratorForm, homogeneous_exponents, polyharmonic_basis
)
from cliffsteer.steering import SteeringExpression, construct_exp_left, construct_trig_left
from helpers import e, random_multivector, random_poly, scalar, x, ymono


class TestRingOperations:
    def test_variables_commute_coefficients_do_not(self):
        m = 4
        p = x(m, 2) * e(m, 1)
        q = x(m, 2) * e(m, 2)
        assert p * q == CliffordPolynomial.monomial(m, {2: 2}, e(m, 1, 2))

    def test_generator_square_inside_polynomials(self):
        m = 4
        p = CliffordPolynomial.constant(m, e(m, 1))
        assert p * p == CliffordPolynomial.constant(m, -1)

    def test_multiplicative_identity(self):
        rng = random.Random(1)
        p = random_poly(rng, 3, range(0, 4))
        assert p * CliffordPolynomial.constant(3, 1) == p

    def test_left_vs_right_multivector_action(self):
        m = 3
        p = CliffordPolynomial.constant(m, e(m, 2))
        assert e(m, 1) * p == CliffordPolynomial.constant(m, e(m, 1, 2))
        assert p * e(m, 1) == CliffordPolynomial.constant(m, -e(m, 1, 2))

    def test_scope_union_on_multiplication(self):
        m = 3
        p = x(m, 2, yonly=True)
        q = x(m, 0)
        assert (p * q).var_scope == frozenset(range(0, m + 1))

    def test_cancelling_sum_keeps_both_scopes(self):
        m = 4
        p = x(m, 2, yonly=True) + x(m, 0)
        q = CliffordPolynomial(m, dict(p.items()), var_scope=range(0, 3))
        for zero in (p + (-q), p - q, -q + p):
            assert not zero
            assert zero.var_scope == frozenset(range(0, m + 1))
        y = ymono(m, {3: 1})
        assert (y - y).var_scope == frozenset(range(2, m + 1))

    def test_zero_multiple_keeps_the_scope(self):
        p = ymono(4, {2: 1, 3: 2}, e(4, 1, 3))
        for zero in (0 * p, p * 0, p * Fraction(0)):
            assert not zero and zero.var_scope == frozenset(range(2, 5))

    def test_comparison_with_a_multivector_or_scalar(self):
        m = 3
        c = CliffordPolynomial.constant(m, e(m, 1, 2), var_scope=range(2, m + 1))
        assert c == e(m, 1, 2) and e(m, 1, 2) == c
        assert c != e(m, 1) and x(m, 1) != e(m, 1)
        assert CliffordPolynomial.constant(m, 3) == 3 and CliffordPolynomial.zero(m) == 0
        assert c != "c" and c != 1.0

    def test_scalar_division(self):
        p = ymono(4, {2: 1}, e(4, 2)) * 3
        assert p / 3 == ymono(4, {2: 1}, e(4, 2))
        assert (p / Fraction(3, 2)).var_scope == p.var_scope
        with pytest.raises(ZeroDivisionError):
            p / 0

    def test_scope_violation_rejected(self):
        with pytest.raises(ValueError, match="outside the declared variable scope"):
            CliffordPolynomial.monomial(3, {0: 1}, 1, var_scope=range(2, 4))

    def test_restrict_scope(self):
        p = ymono(4, {2: 1, 3: 2}, e(4, 1, 3))
        assert p.restrict_scope(range(2, 5)) is p
        wider = p.restrict_scope(range(0, 5))
        assert wider == p and wider.var_scope == frozenset(range(0, 5))
        with pytest.raises(ValueError, match="outside the declared variable scope"):
            p.restrict_scope(range(3, 5))


class TestDerivatives:
    def test_partial_examples(self):
        m = 4
        sq = CliffordPolynomial.monomial(m, {2: 2}, 1)
        assert sq.partial(2) == x(m, 2) * 2
        assert x(m, 2).partial(3) == CliffordPolynomial.zero(m)
        p = CliffordPolynomial.monomial(5, {2: 1, 3: 1}, e(5, 5))
        assert p.partial(2) == x(5, 3) * e(5, 5)

    def test_partials_commute(self):
        rng = random.Random(2)
        for _ in range(50):
            m = rng.randint(2, 4)
            p = random_poly(rng, m, range(0, m + 1))
            i, j = rng.randint(0, m), rng.randint(0, m)
            assert p.partial(i).partial(j) == p.partial(j).partial(i)

    def test_dirac_left_examples(self):
        m = 4
        assert x(m, 2).dirac_y("left") == CliffordPolynomial.constant(m, e(m, 2))
        p = CliffordPolynomial.monomial(m, {2: 2}, 1) + CliffordPolynomial.monomial(m, {3: 2}, 1)
        assert p.dirac_y("left").dirac_y("left") == CliffordPolynomial.constant(m, -4)

    def test_dirac_right_example(self):
        m = 4
        p = x(m, 2) * e(m, 2, 3)
        assert p.dirac_y("right") == CliffordPolynomial.constant(m, e(m, 3))

    def test_dirac_twice_is_minus_laplacian(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(2, 4)
            p = random_poly(rng, m, range(2, m + 1))
            assert p.dirac_y("left").dirac_y("left") == -p.laplacian()
            assert p.dirac_y("right").dirac_y("right") == -p.laplacian()

    def test_cr_examples(self):
        m = 4
        assert x(m, 0).cr_left() == CliffordPolynomial.constant(m, 1)
        z = x(m, 0) + x(m, 1) * e(m, 1)
        assert not z.cr_left()
        zbar = x(m, 0) - x(m, 1) * e(m, 1)
        assert zbar.cr_left() == CliffordPolynomial.constant(m, 2)

    def test_cr_factorizes_laplacian_both_orders(self):
        rng = random.Random(4)
        for _ in range(60):
            m = rng.randint(2, 4)
            p = random_poly(rng, m, range(0, m + 1))
            conj = p.partial(0)
            for j in range(1, m + 1):
                conj = conj - e(m, j) * p.partial(j)
            lap = p.laplacian()
            assert conj.cr_left() == lap
            conj_after = p.cr_left()
            conj_after = conj_after.partial(0) * 2 - conj_after.cr_left()
            assert conj_after == lap

    def test_laplacian_examples(self):
        m = 4
        p = CliffordPolynomial.monomial(m, {2: 2}, 1) - CliffordPolynomial.monomial(m, {3: 2}, 1)
        assert not p.laplacian()
        sq = CliffordPolynomial.monomial(m, {2: 2}, 1)
        assert sq.laplacian() == CliffordPolynomial.constant(m, 2)
        quartic = CliffordPolynomial.monomial(m, {2: 4}, 1)
        assert quartic.laplacian().laplacian() == CliffordPolynomial.constant(m, 24)

    def test_absent_variables_contribute_zero(self):
        m = 3
        p = x(m, 2)
        assert not p.laplacian()  # x0, x1 and x3 are in scope but absent


def _sympy_kernel_basis(degree, order, nvars):
    """Kernel of laplacian^order on degree-``degree`` forms as sympy's nullspace vectors.

    Columns follow the package's monomial order (graded-lex, earliest variable
    largest first), so the vectors are the reduced-echelon basis in that order.
    """
    symbols = sympy.symbols(f"t0:{nvars}")
    monos = sorted(
        sympy.polys.monomials.itermonomials(symbols, degree, degree),
        key=sympy.polys.orderings.monomial_key("grlex", symbols),
        reverse=True,
    )
    exponents = [sympy.Poly(mono, *symbols).monoms()[0] for mono in monos]
    if degree < 2 * order:
        return exponents, [sympy.eye(len(monos)).col(i) for i in range(len(monos))]
    lap = lambda f: sum(sympy.diff(f, s, 2) for s in symbols)
    images = []
    for mono in monos:
        image = mono
        for _ in range(order):
            image = sympy.expand(lap(image))
        images.append(sympy.Poly(image, *symbols).as_dict() if image != 0 else {})
    targets = sorted({t for image in images for t in image})
    matrix = sympy.Matrix([[image.get(t, 0) for image in images] for t in targets])
    return exponents, matrix.nullspace()


class TestPolyharmonicBasis:
    def test_degree_two_harmonics_in_three_vars(self):
        basis = polyharmonic_basis(2, 1, 4)
        assert len(basis) == 5
        for b in basis:
            assert not b.laplacian()

    def test_degree_one_is_full(self):
        basis = polyharmonic_basis(1, 1, 4)
        assert len(basis) == 3

    def test_biharmonic_quadratics_are_everything(self):
        basis = polyharmonic_basis(2, 2, 4)
        assert len(basis) == 6

    def test_elements_match_sympy_nullspace(self):
        points = ((3, 1, 4), (4, 1, 4), (4, 2, 4), (5, 2, 4), (3, 1, 3), (6, 2, 5), (5, 1, 5))
        # x2 chains of three or more steps past the free slots, at m = 3 (y is x2, x3)
        # and at m = 2 (y is x2 alone)
        points += ((8, 1, 3), (9, 2, 3), (10, 3, 4), (7, 3, 3))
        for degree, order, m in points + ((3, 2, 4), (5, 3, 2)):  # these have no Laplacian rows
            ours = polyharmonic_basis(degree, order, m)
            exponents, vectors = _sympy_kernel_basis(degree, order, m - 1)
            assert len(ours) == len(vectors)
            for poly, vec in zip(ours, vectors):
                got = {}
                for mono, mv in poly.items():
                    assert mv == mv.scalar_part()
                    got[mono[2:]] = mv.scalar_part()
                expected = {e: Fraction(int(q.p), int(q.q)) for e, q in zip(exponents, vec) if q}
                assert got == expected

    def test_harmonic_elements_are_the_classical_series(self):
        # at order 1 the element of x2^f0 r is sum_s (-1)^s f0!/(f0+2s)! x2^(f0+2s) L^s r,
        # L the Laplacian in x3..x5, written out in sympy
        degree, m = 7, 5
        t = sympy.symbols("t2:6")
        lap = lambda f: sum(sympy.diff(f, v, 2) for v in t[1:])
        free = sorted(
            (ys for ys in itertools.product(range(degree + 1), repeat=m - 1)
             if sum(ys) == degree and ys[0] < 2),
            reverse=True,
        )
        ours = polyharmonic_basis(degree, 1, m)
        assert len(ours) == len(free)
        for poly, (f0, *rest) in zip(ours, free):
            r = sympy.prod(v**k for v, k in zip(t[1:], rest))
            expected, s = 0, 0
            while r != 0:
                weight = (-1) ** s * sympy.factorial(f0) / sympy.factorial(f0 + 2 * s)
                expected += weight * t[0] ** (f0 + 2 * s) * r
                r, s = sympy.expand(lap(r)), s + 1
            got = sum(
                sympy.Rational(mv.scalar_part().numerator, mv.scalar_part().denominator)
                * sympy.prod(v**k for v, k in zip(t, mono[2:]))
                for mono, mv in poly.items()
            )
            assert sympy.expand(got - expected) == 0

    def test_low_part_is_one_free_monomial(self):
        # the part of x2-degree below 2*order is a single monomial with
        # coefficient 1; these run over all free monomials in order
        for degree, order, m in ((4, 1, 4), (5, 2, 4), (6, 3, 5), (2, 2, 4)):
            lows = []
            for poly in polyharmonic_basis(degree, order, m):
                low = [(mono, mv) for mono, mv in poly.items() if mono[2] < 2 * order]
                assert len(low) == 1 and low[0][1] == 1
                lows.append(low[0][0])
            free = [
                (0, 0) + ys
                for ys in itertools.product(range(degree + 1), repeat=m - 1)
                if sum(ys) == degree and ys[0] < 2 * order
            ]
            assert lows == sorted(free, reverse=True)

    def test_every_element_is_annihilated_and_independent(self):
        for degree, order in ((4, 1), (5, 2), (3, 1)):
            basis = polyharmonic_basis(degree, order, 4)
            for b in basis:
                p = b
                for _ in range(order):
                    p = p.laplacian()
                assert not p
            # independence: the scalar coefficient matrix has full rank
            monomials = sorted({mono for b in basis for mono, _ in b.items()})

            def scalar_at(poly, mono):
                for mo, mv in poly.items():
                    if mo == mono:
                        return mv.scalar_part()
                return Fraction(0)

            matrix = sympy.Matrix(
                [[sympy.Rational(scalar_at(b, mono)) for mono in monomials] for b in basis]
            )
            assert matrix.rank() == len(basis)

    def test_deterministic(self):
        a = polyharmonic_basis(4, 2, 4)
        b = polyharmonic_basis(4, 2, 4)
        assert a == b

    def test_homogeneous(self):
        for b in polyharmonic_basis(3, 1, 4):
            assert {sum(e) for e, _ in b.items()} == {3}

    def test_listing_is_graded_lex(self):
        # the earliest variable takes the largest exponent first
        # no variables: one empty monomial of degree 0, none of any other degree
        for count in range(0, 7):
            for degree in range(8):
                every = itertools.product(range(degree + 1), repeat=count)
                expected = sorted((e for e in every if sum(e) == degree), reverse=True)
                assert list(homogeneous_exponents(count, degree)) == expected

    def test_shared_coefficients_survive_every_use(self):
        # the elements share one coefficient object per value; no use of one
        # element may change another one's terms
        m = 5
        basis = polyharmonic_basis(6, 2, m)
        coefs = [mv for b in basis for _, mv in b.items()]
        assert len({id(mv) for mv in coefs}) < len(coefs)
        before = [b.to_obj() for b in basis]
        e2 = Multivector.blade(m, (2,))
        for b in basis:
            construct_exp_left(b, 2)
            construct_trig_left(b, b, 2)
            NumeratorForm(b).laplacian().build()
            (b * Fraction(3, 7) + b - b / 2) * e2
            e2 * b
            b.dirac_y()
            b.laplacian()
            b.to_obj()
        assert [b.to_obj() for b in basis] == before


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(20):
            m = rng.randint(2, 4)
            p = random_poly(rng, m, range(0, m + 1))
            assert CliffordPolynomial.from_obj(p.to_obj()) == p

    def test_vars_field_lists_scope(self):
        p = ymono(4, {2: 1})
        assert p.to_obj()["vars"] == [2, 3, 4]

    def test_monomial_keys_are_strings(self):
        p = CliffordPolynomial.monomial(3, {0: 2, 2: 1}, 1)
        term = p.to_obj()["terms"][0]
        assert term["monomial"] == {"0": 2, "2": 1}

    def _doc(self, monomial):
        return {
            "m": 3,
            "vars": [0, 1, 2, 3],
            "terms": [{"monomial": monomial, "coef": scalar(3, 1).to_obj()}],
        }

    def test_boolean_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            CliffordPolynomial.from_obj(self._doc({"2": True}))
        with pytest.raises(ValueError, match="nonnegative exponents"):
            CliffordPolynomial(3, {(0, 0, True, 0): 1})

    def test_boolean_scope_index_rejected(self):
        doc = {"m": 4, "vars": [True, 2, 3, 4], "terms": []}
        with pytest.raises(ValueError, match="var_scope"):
            CliffordPolynomial.from_obj(doc)
        for scope in ([True], [2, False]):
            with pytest.raises(ValueError, match="var_scope"):
                CliffordPolynomial(4, (), var_scope=scope)
        ok = CliffordPolynomial.from_obj({"m": 4, "vars": [1, 2, 3, 4], "terms": []})
        assert ok.to_obj()["vars"] == [1, 2, 3, 4]

    def test_colliding_monomial_keys_rejected(self):
        for monomial in ({"2": 1, "02": 1}, {"2": 0, "02": 3}):
            with pytest.raises(ValueError, match="monomial key '02' must be written '2'"):
                CliffordPolynomial.from_obj(self._doc(monomial))

    def test_non_canonical_monomial_key_rejected(self):
        for key in ("02", " 2", "+2", "2 "):
            with pytest.raises(ValueError, match="must be written '2'"):
                CliffordPolynomial.from_obj(self._doc({key: 1}))
        assert CliffordPolynomial.from_obj(self._doc({"2": 1})) == x(3, 2)


@pytest.mark.parametrize("m", [0, 1, 17, 40])
@pytest.mark.parametrize(
    "build",
    [
        CliffordPolynomial,
        lambda m: CliffordPolynomial.zero(m, range(2, 5)),
        SteeringExpression,
    ],
    ids=["polynomial", "zero-polynomial-in-y", "expression"],
)
def test_a_term_map_without_terms_checks_its_generator_count(build, m):
    with pytest.raises(ValueError) as info:
        build(m)
    assert str(info.value) == f"generator count must be an integer in 2..16, got {m}"
