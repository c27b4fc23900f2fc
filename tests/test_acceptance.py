"""Acceptance battery: one test per exit criterion, at its stated tolerance.

Every check is an exact-zero or exact-equality assertion over rational
arithmetic; the stated runtime bounds are asserted with perf_counter.
Each test prints a single pass/fail line (run with `pytest -s` to see the
lines as they pass).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from cliffsteer.algebra import Multivector
from cliffsteer.cli import main as cli_main
from cliffsteer.polynomials import CliffordPolynomial, polyharmonic_basis
from cliffsteer.steering import (
    DSolveSpec,
    RootSpec,
    SteeringExpression,
    SteeringSymbol,
    _c,
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
from cliffsteer.verify import (
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)
from helpers import dirac_y_power, e, random_harmonic, random_multivector, scalar, x, ymono

M = 4
YSCOPE = range(2, M + 1)
EXP_Z = SteeringSymbol.power_exp(0, 1)
EXP_ZBAR = SteeringSymbol.power_exp(0, 1, bar=True)

REMARK_TABLE = (
    Fraction(-1, 2),
    Fraction(1, 8),
    Fraction(-1, 16),
    Fraction(5, 128),
    Fraction(-7, 256),
)


def announce(number, detail):
    print(f"criterion {number:02d}: PASS - {detail}")


def test_criterion_01_coefficient_table():
    _c.cache_clear()
    start = time.perf_counter()
    table = ck_table(5)
    elapsed = time.perf_counter() - start
    assert table.c == REMARK_TABLE
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    announce(1, f"c_1..c_5 exact in {elapsed * 1e6:.0f} us")


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


def test_criterion_02_matrix_power_closed_form():
    base = (((0,), (0, 1)), ((0, 1), (2,)))
    start = time.perf_counter()
    power = base
    for n in range(2, 11):
        power = _mat_mul(power, base)
        assert tn_closed_form(n) == power, f"mismatch at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed * 1000:.1f} ms"
    announce(2, f"closed form equals brute force for n=2..10 in {elapsed * 1000:.1f} ms")


def test_criterion_03_first_order_example_battery():
    half = Fraction(1, 2)
    cases = []
    for j in range(2, M + 1):
        cases.append(
            SteeringExpression(
                M, [(EXP_Z, x(M, j, yonly=True)), (EXP_ZBAR, e(M, j) * -half)]
            )
        )
    for j in range(2, M + 1):
        for k in range(2, M + 1):
            if j == k:
                continue
            cases.append(
                SteeringExpression(
                    M,
                    [
                        (EXP_Z, ymono(M, {j: 2}) - ymono(M, {k: 2})),
                        (
                            EXP_ZBAR,
                            -(x(M, j, yonly=True) * e(M, j) - x(M, k, yonly=True) * e(M, k)),
                        ),
                    ],
                )
            )
            if j < k:
                cases.append(
                    SteeringExpression(
                        M,
                        [
                            (EXP_Z, ymono(M, {j: 1, k: 1})),
                            (
                                EXP_ZBAR,
                                (x(M, k, yonly=True) * e(M, j) + x(M, j, yonly=True) * e(M, k))
                                * -half,
                            ),
                        ],
                    )
                )
    worst = 0.0
    for expr in cases:
        start = time.perf_counter()
        residual = expr.cr_left()
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert not residual, f"nonzero residual for {expr}"
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    announce(3, f"{len(cases)} displayed examples, exact zeros, worst {worst * 1000:.2f} ms")


def test_criterion_04_two_sided_example():
    expr = SteeringExpression(
        M,
        [
            (EXP_Z, x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))),
            (EXP_ZBAR, -e(M, 2)),
        ],
    )
    assert not expr.cr_left()
    assert not expr.cr_right()
    seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
    assert construct_two_sided("exp", seed) == expr
    announce(4, "exp(z)(x2 + x3 e2e3) - exp(zb) e2 passes both sides")


DISPLAYED_TAILS = {
    2: ((1, Fraction(-1, 2)), (3, Fraction(1, 8))),
    3: ((1, Fraction(-1, 2)), (3, Fraction(1, 8)), (5, Fraction(-1, 16))),
    4: (
        (1, Fraction(-1, 2)),
        (3, Fraction(1, 8)),
        (5, Fraction(-1, 16)),
        (7, Fraction(5, 128)),
    ),
    5: (
        (1, Fraction(-1, 2)),
        (3, Fraction(1, 8)),
        (5, Fraction(-1, 16)),
        (7, Fraction(5, 128)),
        (9, Fraction(-7, 256)),
    ),
}


def _sweep_cases():
    for order in range(1, 6):
        for degree in range(0, 6):
            for seed in polyharmonic_basis(degree, order, M):
                yield order, seed


def test_criterion_05_exponential_polymonogenic_sweep():
    start = time.perf_counter()
    count = 0
    for order, seed in _sweep_cases():
        expr = construct_exp_left(seed, order)
        assert n_monogenic_residual(expr, order, "left").is_zero, (
            f"order {order}, seed {seed}"
        )
        if order >= 2:
            tail = expr.coefficient(EXP_ZBAR)
            displayed = CliffordPolynomial.zero(M, YSCOPE)
            for power, coef in DISPLAYED_TAILS[order]:
                displayed = displayed + dirac_y_power(seed, power) * coef
            assert tail == displayed, f"tail mismatch at order {order}"
        count += 1
    for order in (2, 3, 4, 5):
        assert ck_table(order).c == REMARK_TABLE[:order]
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    announce(5, f"{count} seed/order cases with displayed tails, {elapsed:.1f} s")


def test_criterion_06_necessity_spot_check():
    bump = SteeringExpression(M, [(EXP_ZBAR, e(M, 2))])
    count = 0
    for order, seed in _sweep_cases():
        expr = construct_exp_left(seed, order) + bump
        assert not n_monogenic_residual(expr, order, "left").is_zero, (
            f"perturbed case passed: order {order}, seed {seed}"
        )
        count += 1
    announce(6, f"{count} perturbed cases all rejected")


def test_criterion_07_trigonometric_signed_tails():
    zero = CliffordPolynomial.zero(M, YSCOPE)
    count = 0
    for order in (1, 2, 3):
        table = ck_table(order).c
        for degree in range(0, 5):
            for seed in polyharmonic_basis(degree, order, M):
                expr = construct_trig_left(seed, seed, order)
                assert n_monogenic_residual(expr, order, "left").is_zero
                cos_tail = expr.coefficient(SteeringSymbol.cosine(1, bar=True))
                sin_tail = expr.coefficient(SteeringSymbol.sine(1, bar=True))
                expected_cos = zero
                expected_sin = zero
                for k in range(1, order + 1):
                    d = dirac_y_power(seed, 2 * k - 1)
                    expected_cos = expected_cos + d * (Fraction((-1) ** k) * table[k - 1])
                    expected_sin = expected_sin + d * (
                        Fraction((-1) ** (k + 1)) * table[k - 1]
                    )
                assert cos_tail == expected_cos
                assert sin_tail == expected_sin
                count += 1
    announce(7, f"{count} trig cases: zero residuals, signed tails match c_k")


def test_criterion_08_power_series_tails():
    rng = random.Random(80)
    count = 0
    for order in (1, 2, 3):
        seeds = []
        for degree in range(0, 4):
            basis = polyharmonic_basis(degree, order, M)
            seeds.append(basis[rng.randrange(len(basis))])
        expr = construct_power_left(seeds, order)
        assert n_monogenic_residual(expr, order, "left").is_zero, f"order {order}"
        count += 1
        if order == 1:
            for k in range(1, 4):
                expected = seeds[k - 1].dirac_y("left") * Fraction(-1, 2 * k)
                got = expr.coefficient(SteeringSymbol.power_exp(k, 0, bar=True))
                assert got == expected, f"first-order tail mismatch at k={k}"
    assert power_coefficient(2, 3) == Fraction(1, 48)
    assert power_coefficient(3, 5) == Fraction(-1, 1920)
    announce(8, f"{count} power sweeps zero; tail coefficients 1/48 and -1/1920 exact")


def test_criterion_09_hypercomplex_eigenrelation():
    rng = random.Random(90)
    rates = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 2))
    seeds = [random_harmonic(rng, M, rng.randint(1, 4)) for _ in range(10)]
    checked = 0
    for seed in seeds:
        for rate in rates:
            fr = construct_eigen(rate, seed)
            assert fr.hypercomplex_d() == fr * rate
            checked += 1
    special = construct_eigen(1, ymono(M, {2: 1}, e(M, 2) * 2))
    assert special.hypercomplex_d() == special
    assert special.at_origin() == scalar(M, 1)
    announce(9, f"{checked} eigen checks exact; special case has D F = F and F(0) = 1")


def test_criterion_10_d_equation_solutions(tmp_path, capsys):
    h = ymono(M, {2: 1}, e(M, 2) * 2)
    mono = x(M, 2, yonly=True) * e(M, 2) - x(M, 3, yonly=True) * e(M, 3)
    specs = (
        DSolveSpec(M, (1, -1), (RootSpec(Fraction(1), 1, h),)),
        DSolveSpec(M, (1, 1, -2), (RootSpec(Fraction(1), 1, h), RootSpec(Fraction(-2), 1, h))),
        DSolveSpec(M, (1, 0, 0), (RootSpec(Fraction(0), 2, None, (mono, mono)),)),
    )
    for spec in specs:
        solution = dsolve(spec)
        assert d_equation_residual(solution, spec.coeffs).is_zero, str(spec.coeffs)
    spec_doc = {
        "m": M,
        "roots": [{"root": "3", "multiplicity": 1, "harmonic_seed": h.to_obj()}],
    }
    path = tmp_path / "bad_root.json"
    path.write_text(json.dumps(spec_doc))
    code = cli_main(["dsolve", "--coeffs", "1,-1", "--spec-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a root" in err
    announce(10, "three coefficient sets solved exactly; non-root exits 2")


def test_criterion_11_appell_sequence():
    from cliffsteer.appell import appell_poly

    start = time.perf_counter()
    for m in (2, 3, 4):
        previous = None
        for k in range(0, 7):
            pk = appell_poly(k, m)
            if k == 0:
                assert pk == CliffordPolynomial.constant(m, 1)
            else:
                assert not pk.constant_term()
                assert pk.hypercomplex_d() == previous * k
            assert not pk.cr_left()
            previous = pk
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"took {elapsed:.1f} s"
    announce(11, f"k<=6, m=2..4 recursion and monogenicity exact in {elapsed:.2f} s")


def test_criterion_12_sandwich_and_elasticity_battery():
    e1 = e(M, 1)
    infra_seed = (ymono(M, {2: 2}) + ymono(M, {3: 2})) * e(M, 2, 4) * Fraction(1, 2)
    mono = (x(M, 2, yonly=True) * e(M, 2) - x(M, 3, yonly=True) * e(M, 3)) * Fraction(1, 2)
    displayed = SteeringExpression(
        M,
        [
            (EXP_Z, infra_seed - e1 * infra_seed * e1),
            (EXP_ZBAR, mono + e1 * mono * e1),
        ],
    )
    assert inframonogenic_residual(displayed).is_zero
    d = infra_seed.dirac_y("left")
    universal = SteeringExpression(
        M,
        [
            (EXP_Z, infra_seed - e1 * infra_seed * e1),
            (EXP_ZBAR, (d + e1 * d * e1) * Fraction(-1, 2)),
        ],
    )
    for mu, lam in ((1, 1), (2, 5), (3, 1)):
        assert lame_navier_residual(universal, mu, lam).is_zero, f"(mu, lam) = ({mu}, {lam})"
    assert not universal.cr_left().cr_right()
    assert not universal.cr_left().cr_left()
    two_sided = construct_two_sided("exp", mono)
    for alpha, beta in ((1, 1), (2, -3)):
        assert alpha_beta_residual(two_sided, alpha, beta).is_zero
    for p, q in ((1, 1), (2, 1), (1, 2)):
        assert infrapoly_residual(two_sided, p, q).is_zero
    announce(12, "sandwich example, universal elasticity solution and mixed orders all zero")


def test_criterion_13_algebra_kernel_properties():
    rng = random.Random(130)
    for _ in range(1000):
        m = rng.randint(2, 5)
        a = random_multivector(rng, m)
        b = random_multivector(rng, m)
        c = random_multivector(rng, m)
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert a.norm_sq() == (a * a.conjugate()).grade(0).scalar_part()
    rng = random.Random(131)
    for _ in range(1000):
        m = rng.randint(2, 5)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(m + 1))
            terms[exps] = random_multivector(rng, m)
        p = CliffordPolynomial(m, terms)
        conj = p.partial(0)
        for j in range(1, m + 1):
            conj = conj - Multivector.blade(m, (j,)) * p.partial(j)
        lap = p.laplacian()
        assert conj.cr_left() == lap
        back = p.cr_left()
        assert back.partial(0) * 2 - back.cr_left() == lap
    announce(13, "1000 randomized algebra cases and 1000 factorization cases exact")
