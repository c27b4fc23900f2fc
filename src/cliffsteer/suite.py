"""The verification battery behind ``cliffsteer suite``.

Each criterion takes the suite settings, read as the attributes ``m``,
``max_n``, ``max_degree``, ``cases``, ``rng_seed`` and ``perturb`` of one
object, and returns ``(passed, detail)``.  ``CRITERIA`` lists them in the
order they run and print; ``run`` refuses settings outside the battery's
range, then times each criterion.  A criterion that raises has failed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations
from typing import Callable

from .algebra import MAX_GENERATORS, Multivector, e1_sandwich, integer_in
from .appell import appell_poly
from .polynomials import CliffordPolynomial, dirac, polyharmonic_basis
from .steering import (
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
    tn_closed_form,
)
from .verify import (
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)


def _coefficient_table(args):
    expected = (
        Fraction(-1, 2),
        Fraction(1, 8),
        Fraction(-1, 16),
        Fraction(5, 128),
        Fraction(-7, 256),
    )
    ok = ck_table(5).c == expected
    return ok, "c_1..c_5 match the closed fractions"


def _mat_mul_int(a, b):
    """Product of two 2x2 matrices over Z[x], entries as coefficient tuples."""

    def entry(r, c):
        out = [0] * (max(len(a[r][k]) + len(b[k][c]) for k in (0, 1)) - 1)
        for k in (0, 1):
            for i, p in enumerate(a[r][k]):
                for j, q in enumerate(b[k][c]):
                    out[i + j] += p * q
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    return tuple(tuple(entry(r, c) for c in (0, 1)) for r in (0, 1))


def _matrix_power(args):
    base = (((0,), (0, 1)), ((0, 1), (2,)))
    power = base
    for n in range(2, 11):
        power = _mat_mul_int(power, base)
        if tn_closed_form(n) != power:
            return False, f"mismatch against brute force at n={n}"
    return True, "closed form equals brute-force powers for n=2..10"


def _residuals_vanish(cases, noun):
    """Apply cr_left^order to each (expression, order, failure) until one is nonzero."""
    count = 0
    for expr, order, failure in cases:
        if not n_monogenic_residual(expr, order, "left").is_zero:
            return False, failure
        count += 1
    return True, f"{count} {noun}, all residuals zero"


def _sweep_seeds(m, max_n, max_degree):
    """(order, seed) for orders 1..max_n and kernel basis seeds of degree <= max_degree."""
    for order in range(1, max_n + 1):
        for degree in range(0, max_degree + 1):
            for seed in polyharmonic_basis(degree, order, m):
                yield order, seed


def _e2_fault(m):
    """+e2 exp(z-bar), the fault that ``--perturb`` and criterion 06 add to solutions."""
    return SteeringExpression(
        m, [(SteeringSymbol.power_exp(0, 1, bar=True), Multivector.blade(m, (2,)))]
    )


def _ymono(m, exponents, coef=1):
    """A monomial in x_2..x_m, with that variable scope, times ``coef``."""
    return CliffordPolynomial.monomial(m, exponents, coef, range(2, m + 1))


def _exp_examples(args):
    # the displayed families: x_j ; x_j^2 - x_k^2 ; x_j x_k  (j != k, both >= 2)
    m = args.m
    seeds = [_ymono(m, {j: 1}) for j in range(2, m + 1)]
    for j, k in permutations(range(2, m + 1), 2):
        seeds.append(_ymono(m, {j: 2}) - _ymono(m, {k: 2}))
        if j < k:
            seeds.append(_ymono(m, {j: 1, k: 1}))
    cases = (
        (construct_exp_left(seed, 1), 1, f"nonzero residual for seed {seed}") for seed in seeds
    )
    return _residuals_vanish(cases, "first-order examples")


def _two_sided(args):
    m = args.m
    seed = (
        CliffordPolynomial.variable(m, 2)
        + CliffordPolynomial.monomial(m, {3: 1}, Multivector.blade(m, (2, 3)))
    ) * Fraction(1, 2)
    expr = construct_two_sided("exp", seed)
    left = n_monogenic_residual(expr, 1, "left").is_zero
    right = n_monogenic_residual(expr, 1, "right").is_zero
    return left and right, "two-sided seed (x2 + x3 e2e3)/2 passes both sides"


def _exp_sweep(args):
    def cases():
        for k, (order, seed) in enumerate(_sweep_seeds(args.m, args.max_n, args.max_degree)):
            expr = construct_exp_left(seed, order)
            if args.perturb and k == 0:
                expr = expr + _e2_fault(args.m)
            yield expr, order, f"nonzero residual: order {order}, seed {seed}"

    return _residuals_vanish(cases(), "seed/order cases")


def _exp_necessity(args):
    fault = _e2_fault(args.m)
    cases = 0
    for order, seed in _sweep_seeds(args.m, args.max_n, min(args.max_degree, 3)):
        expr = construct_exp_left(seed, order)
        if n_monogenic_residual(expr + fault, order, "left").is_zero:
            return False, f"perturbed solution still passes: order {order}, seed {seed}"
        cases += 1
    return True, f"{cases} perturbed cases, all rejected"


def _trig_sweep(args):
    zero = CliffordPolynomial.zero(args.m, range(2, args.m + 1))
    seeds = _sweep_seeds(args.m, min(3, args.max_n), min(args.max_degree, 4))
    cases = (
        (construct_trig_left(a, b, order), order, f"nonzero residual: order {order}, seed {seed}")
        for order, seed in seeds
        for a, b in ((seed, zero), (zero, seed))
    )
    return _residuals_vanish(cases, "seed/order cases")


def _power_sweep(args):
    rng = random.Random(args.rng_seed)
    degrees = range(0, min(args.max_degree, 3) + 1)

    def seeds(order):  # one random basis element of each degree
        return [rng.choice(polyharmonic_basis(degree, order, args.m)) for degree in degrees]

    cases = (
        (construct_power_left(seeds(order), order), order, f"nonzero residual at order {order}")
        for order in range(1, min(3, args.max_n) + 1)
    )
    return _residuals_vanish(cases, "seed lists")


def _eigen(args):
    m = args.m
    expr = construct_eigen(1, _ymono(m, {2: 1}, Multivector.blade(m, (2,), 2)))
    if expr.hypercomplex_d() != expr:
        return False, "D F != F for the unit-rate eigenfunction"
    if expr.at_origin() != Multivector.scalar(m, 1):
        return False, "F(0) != 1"
    for rate in (Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 2)):
        for basis_seed in polyharmonic_basis(2, 1, m):
            fr = construct_eigen(rate, basis_seed)
            if fr.hypercomplex_d() != fr * rate:
                return False, f"eigenrelation fails at rate {rate}"
    return True, "D F_r = r F_r for all sampled rates; F(0) = 1 case passes"


def _dsolve(args):
    m = args.m
    e2, e3 = Multivector.blade(m, (2,)), Multivector.blade(m, (3,))
    h = _ymono(m, {2: 1}, e2 * 2)
    mono = _ymono(m, {2: 1}, e2) - _ymono(m, {3: 1}, e3)
    one, minus_two = RootSpec(Fraction(1), 1, h), RootSpec(Fraction(-2), 1, h)
    specs = [
        DSolveSpec(m, (1, -1), (one,)),
        DSolveSpec(m, (1, 1, -2), (one, minus_two)),
        DSolveSpec(m, (1, 0, 0), (RootSpec(Fraction(0), 2, None, (mono, mono)),)),
    ]
    for spec in specs:
        solution = dsolve(spec)
        if not d_equation_residual(solution, spec.coeffs).is_zero:
            return False, f"nonzero residual for coefficients {spec.coeffs}"
    return True, "three coefficient sets solved with zero residual"


def _appell(args):
    for m in (2, 3, 4):
        previous = None
        for k in range(0, 7):
            pk = appell_poly(k, m)
            if k == 0 and pk != CliffordPolynomial.constant(m, 1):
                return False, "P_0 != 1"
            if k >= 1 and pk.constant_term():
                return False, f"P_{k}(0) != 0 at m={m}"
            if pk.cr_left():
                return False, f"P_{k} not left monogenic at m={m}"
            if previous is not None and pk.hypercomplex_d() != previous * k:
                return False, f"D P_{k} != {k} P_{k - 1} at m={m}"
            previous = pk
    return True, "kernel and derivative recursion hold for k<=6, m=2..4"


def _further_systems(args):
    m = args.m
    quad = _ymono(m, {2: 2}) + _ymono(m, {3: 2})
    infra_seed = quad * Multivector.blade(m, (2, 4)) * Fraction(1, 2)
    e2, e3 = Multivector.blade(m, (2,)), Multivector.blade(m, (3,))
    mono = (_ymono(m, {2: 1}, e2) - _ymono(m, {3: 1}, e3)) * Fraction(1, 2)
    infra_part = (SteeringSymbol.power_exp(0, 1), infra_seed - e1_sandwich(infra_seed))
    barred = SteeringSymbol.power_exp(0, 1, bar=True)
    displayed = SteeringExpression(m, [infra_part, (barred, mono + e1_sandwich(mono))])
    if not inframonogenic_residual(displayed).is_zero:
        return False, "displayed sandwich example has nonzero residual"
    d_infra = infra_seed.dirac_y("left")
    universal_tail = (d_infra + e1_sandwich(d_infra)) * Fraction(-1, 2)
    universal = SteeringExpression(m, [infra_part, (barred, universal_tail)])
    for mu, lam in ((1, 1), (2, 5), (3, 1)):
        if not lame_navier_residual(universal, mu, lam).is_zero:
            return False, f"universal solution fails at (mu, lambda) = ({mu}, {lam})"
    sandwich, second = inframonogenic_residual(universal), n_monogenic_residual(universal, 2)
    if not (sandwich.is_zero and second.is_zero):
        return False, "universal solution components are not individually zero"
    two_sided = construct_two_sided("exp", mono)
    for alpha, beta in ((1, 1), (2, -3)):
        if not alpha_beta_residual(two_sided, alpha, beta).is_zero:
            return False, f"two-sided solution fails alpha_beta({alpha}, {beta})"
    for p, q in ((1, 1), (2, 1), (1, 2)):
        if not infrapoly_residual(two_sided, p, q).is_zero:
            return False, f"two-sided solution fails infrapoly({p}, {q})"
    return True, "sandwich, universal and mixed-order checks all zero"


def _random_multivector(rng, m):
    # repeated masks add up in the constructor
    terms = []
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1 << m)
        terms.append((mask, Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
    return Multivector(m, terms)


def _algebra_random(args):
    rng = random.Random(args.rng_seed)
    cases = args.cases
    for _ in range(cases):
        m = rng.randint(2, 5)
        a = _random_multivector(rng, m)
        b = _random_multivector(rng, m)
        c = _random_multivector(rng, m)
        if (a * b) * c != a * (b * c):
            return False, "associativity failure"
        if (a * b).conjugate() != b.conjugate() * a.conjugate():
            return False, "anti-involution failure"
        if a.norm_sq() != (a * a.conjugate()).grade(0).scalar_part():
            return False, "norm identity failure"
    rng2 = random.Random(args.rng_seed + 1)
    for _ in range(cases):
        m = rng2.randint(2, 4)
        terms = {}
        for _ in range(rng2.randint(1, 3)):
            exps = tuple(rng2.randint(0, 2) for _ in range(m + 1))
            terms[exps] = _random_multivector(rng2, m)
        p = CliffordPolynomial(m, terms)
        laplacian = p.laplacian()
        if dirac(p, "left", -1).cr_left() != laplacian:
            return False, "factorization failure (cr after conjugate)"
        cr = p.cr_left()
        if cr.partial(0) * 2 - cr.cr_left() != laplacian:
            return False, "factorization failure (conjugate after cr)"
    return True, f"{cases} random algebra and factorization cases"


CRITERIA: list[tuple[str, Callable]] = [
    ("01_coefficient_table", _coefficient_table),
    ("02_matrix_power_closed_form", _matrix_power),
    ("03_exp_monogenic_examples", _exp_examples),
    ("04_two_sided_example", _two_sided),
    ("05_exp_polymonogenic_sweep", _exp_sweep),
    ("06_exp_necessity_spot_check", _exp_necessity),
    ("07_trig_polymonogenic_sweep", _trig_sweep),
    ("08_power_polymonogenic_sweep", _power_sweep),
    ("09_eigenfunction_relation", _eigen),
    ("10_d_equation_solutions", _dsolve),
    ("11_appell_sequence", _appell),
    ("12_sandwich_and_elasticity", _further_systems),
    ("13_algebra_randomized", _algebra_random),
]


def run(args) -> list[tuple[str, bool, str, float]]:
    """(id, passed, detail, seconds) for every criterion, in order; settings
    outside the battery's range raise ValueError before any criterion runs."""
    integer_in(args.m, 4, MAX_GENERATORS, "--m")  # criterion 12 builds blades on e_2..e_4
    for option, value, least in (
        ("--max-n", args.max_n, 1),
        ("--max-degree", args.max_degree, 0),
        ("--cases", args.cases, 1),
    ):
        integer_in(value, least, None, option)
    rows = []
    for case_id, check in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = check(args)
        except Exception as exc:  # a crashed case is a failed case
            ok, detail = False, f"error: {exc}"
        rows.append((case_id, ok, detail, time.perf_counter() - start))
    return rows
