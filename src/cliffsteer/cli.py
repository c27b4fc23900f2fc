"""Batch command line surface: JSON documents in, JSON documents out.

Subcommands: construct, verify, coeffs, basis, appell, dsolve, suite.
Exit codes: 0 success (and zero residual where one is computed),
1 nonzero residual, 2 malformed input or a violated precondition.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import Multivector, parse_fraction
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

EXIT_OK = 0
EXIT_NONZERO = 1
EXIT_INPUT = 2


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_document(args) -> object:
    if getattr(args, "seed", None):
        return json.loads(args.seed)
    path = getattr(args, "seed_file", None) or getattr(args, "in_path", None)
    if path:
        with open(path, "r", encoding="ascii") as handle:
            return json.load(handle)
    return json.load(sys.stdin)


def _parse_function(obj) -> SteeringExpression | CliffordPolynomial:
    # polynomial documents carry a "vars" field, expression documents do not
    if isinstance(obj, dict) and "vars" in obj:
        return CliffordPolynomial.from_obj(obj)
    return SteeringExpression.from_obj(obj)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _coeff_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_frac(part.strip()) for part in text.split(",") if part.strip())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    _emit(ck_table(args.n).to_obj(), args.out)
    return EXIT_OK


def cmd_basis(args) -> int:
    polys = polyharmonic_basis(args.degree, args.n, args.m)
    _emit([p.to_obj() for p in polys], args.out)
    return EXIT_OK


def cmd_appell(args) -> int:
    _emit(appell_poly(args.k, args.m).to_obj(), args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    doc = _load_document(args)
    if args.side == "right":
        raise ValueError(
            "right-handed construction is not supported; use --side left or --side both"
        )
    both = args.side == "both"
    if args.family == "exp":
        seed = CliffordPolynomial.from_obj(doc)
        expr = construct_two_sided("exp", seed) if both else construct_exp_left(seed, args.n)
    elif args.family == "trig":
        keys = ("M", "N") if both else ("a1", "b1")
        a, b = (CliffordPolynomial.from_obj(doc[k]) for k in keys)
        expr = construct_two_sided("trig", (a, b)) if both else construct_trig_left(a, b, args.n)
    else:
        seeds = [CliffordPolynomial.from_obj(entry) for entry in doc["seeds"]]
        expr = construct_two_sided("power", seeds) if both else construct_power_left(seeds, args.n)
    if args.m is not None and expr.m != args.m:
        raise ValueError(f"seed dimension m={expr.m} does not match --m {args.m}")
    _emit(expr.to_obj(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    func = _parse_function(_load_document(args))
    op = args.op
    side = args.side
    if op == "cr-left":
        op, side = "cr", "left"
    elif op == "cr-right":
        op, side = "cr", "right"
    if op == "cr":
        if side == "both":
            left = n_monogenic_residual(func, args.n, "left")
            right = n_monogenic_residual(func, args.n, "right")
            _emit([left.to_obj(), right.to_obj()], args.out)
            return EXIT_OK if left.is_zero and right.is_zero else EXIT_NONZERO
        report = n_monogenic_residual(func, args.n, side)
    elif op == "infra":
        report = inframonogenic_residual(func)
    elif op == "lame":
        if args.mu is None or args.lam is None:
            raise ValueError("--op lame needs --mu and --lambda")
        report = lame_navier_residual(func, args.mu, args.lam)
    elif op == "alphabeta":
        if args.alpha is None or args.beta is None:
            raise ValueError("--op alphabeta needs --alpha and --beta")
        report = alpha_beta_residual(func, args.alpha, args.beta)
    elif op == "infrapoly":
        report = infrapoly_residual(func, args.p, args.q)
    elif op == "deq":
        if not args.coeffs:
            raise ValueError("--op deq needs --coeffs")
        report = d_equation_residual(func, args.coeffs)
    else:
        raise ValueError(f"unknown operator {op!r}")
    _emit(report.to_obj(), args.out)
    return EXIT_OK if report.is_zero else EXIT_NONZERO


def _root_from_obj(obj) -> RootSpec:
    harmonic = obj.get("harmonic_seed")
    monogenic = obj.get("monogenic_seeds", [])
    return RootSpec(
        value=parse_fraction(obj["root"]),
        multiplicity=obj.get("multiplicity", 1),
        harmonic_seed=None if harmonic is None else CliffordPolynomial.from_obj(harmonic),
        monogenic_seeds=tuple(CliffordPolynomial.from_obj(s) for s in monogenic),
    )


def cmd_dsolve(args) -> int:
    doc = _load_document(args)
    spec = DSolveSpec(
        m=doc["m"],
        coeffs=args.coeffs,
        roots=tuple(_root_from_obj(entry) for entry in doc["roots"]),
    )
    solution = dsolve(spec)
    report = d_equation_residual(solution, args.coeffs)
    _emit({"solution": solution.to_obj(), "residual": report.to_obj()}, args.out)
    return EXIT_OK if report.is_zero else EXIT_NONZERO


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------


def _suite_coefficient_table(args):
    expected = (
        Fraction(-1, 2),
        Fraction(1, 8),
        Fraction(-1, 16),
        Fraction(5, 128),
        Fraction(-7, 256),
    )
    ok = ck_table(5).c == expected
    return ok, "c_1..c_5 match the closed fractions"


def _poly_mul_int(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add_int(p, q):
    size = max(len(p), len(q))
    out = [0] * size
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mat_mul_int(a, b):
    def dot(r, c):
        return _poly_add_int(
            _poly_mul_int(a[r][0], b[0][c]), _poly_mul_int(a[r][1], b[1][c])
        )

    return ((dot(0, 0), dot(0, 1)), (dot(1, 0), dot(1, 1)))


def _suite_matrix_power(args):
    base = (((0,), (0, 1)), ((0, 1), (2,)))
    power = base
    for n in range(2, 11):
        power = _mat_mul_int(power, base)
        if tn_closed_form(n) != power:
            return False, f"mismatch against brute force at n={n}"
    return True, "closed form equals brute-force powers for n=2..10"


def _first_degree_examples(m):
    # the displayed families: x_j ; x_j^2 - x_k^2 ; x_j x_k  (j != k, both >= 2)
    out = []
    for j in range(2, m + 1):
        out.append(CliffordPolynomial.variable(m, j, range(2, m + 1)))
    for j in range(2, m + 1):
        for k in range(2, m + 1):
            if j == k:
                continue
            out.append(
                CliffordPolynomial.monomial(m, {j: 2}, 1, range(2, m + 1))
                - CliffordPolynomial.monomial(m, {k: 2}, 1, range(2, m + 1))
            )
            if j < k:
                out.append(CliffordPolynomial.monomial(m, {j: 1, k: 1}, 1, range(2, m + 1)))
    return out


def _suite_exp_examples(args):
    m = args.m
    count = 0
    for seed in _first_degree_examples(m):
        expr = construct_exp_left(seed, 1)
        if not n_monogenic_residual(expr, 1, "left").is_zero:
            return False, f"nonzero residual for seed {seed}"
        count += 1
    return True, f"{count} first-order examples, all residuals zero"


def _suite_two_sided(args):
    m = args.m
    seed = (
        CliffordPolynomial.variable(m, 2)
        + CliffordPolynomial.monomial(m, {3: 1}, Multivector.blade(m, (2, 3)))
    ) * Fraction(1, 2)
    expr = construct_two_sided("exp", seed)
    left = n_monogenic_residual(expr, 1, "left").is_zero
    right = n_monogenic_residual(expr, 1, "right").is_zero
    return left and right, "two-sided seed (x2 + x3 e2e3)/2 passes both sides"


def _sweep_seeds(m, max_degree, order):
    for degree in range(0, max_degree + 1):
        for seed in polyharmonic_basis(degree, order, m):
            yield seed


def _suite_exp_sweep(args):
    m = args.m
    cases = 0
    for order in range(1, args.max_n + 1):
        for seed in _sweep_seeds(m, args.max_degree, order):
            expr = construct_exp_left(seed, order)
            if args.perturb and cases == 0:
                bump = SteeringExpression(
                    m,
                    [(SteeringSymbol.power_exp(0, 1, bar=True), Multivector.blade(m, (2,)))],
                )
                expr = expr + bump
            if not n_monogenic_residual(expr, order, "left").is_zero:
                return False, f"nonzero residual: order {order}, seed {seed}"
            cases += 1
    return True, f"{cases} seed/order cases, all residuals zero"


def _suite_exp_necessity(args):
    m = args.m
    cases = 0
    for order in range(1, args.max_n + 1):
        for seed in _sweep_seeds(m, min(args.max_degree, 3), order):
            expr = construct_exp_left(seed, order)
            bump = SteeringExpression(
                m, [(SteeringSymbol.power_exp(0, 1, bar=True), Multivector.blade(m, (2,)))]
            )
            if n_monogenic_residual(expr + bump, order, "left").is_zero:
                return False, f"perturbed solution still passes: order {order}, seed {seed}"
            cases += 1
    return True, f"{cases} perturbed cases, all rejected"


def _suite_trig_sweep(args):
    m = args.m
    zero = CliffordPolynomial.zero(m, range(2, m + 1))
    cases = 0
    for order in range(1, min(3, args.max_n) + 1):
        for seed in _sweep_seeds(m, min(args.max_degree, 4), order):
            for a1, b1 in ((seed, zero), (zero, seed)):
                expr = construct_trig_left(a1, b1, order)
                if not n_monogenic_residual(expr, order, "left").is_zero:
                    return False, f"nonzero residual: order {order}, seed {seed}"
                cases += 1
    return True, f"{cases} seed/order cases, all residuals zero"


def _suite_power_sweep(args):
    m = args.m
    rng = random.Random(args.rng_seed)
    cases = 0
    for order in range(1, min(3, args.max_n) + 1):
        seeds = []
        for degree in range(0, min(args.max_degree, 3) + 1):
            basis = polyharmonic_basis(degree, order, m)
            seeds.append(basis[rng.randrange(len(basis))])
        expr = construct_power_left(seeds, order)
        if not n_monogenic_residual(expr, order, "left").is_zero:
            return False, f"nonzero residual at order {order}"
        cases += 1
    return True, f"{cases} seed lists, all residuals zero"


def _suite_eigen(args):
    m = args.m
    seed = CliffordPolynomial.monomial(
        m, {2: 1}, Multivector.blade(m, (2,), 2), range(2, m + 1)
    )
    expr = construct_eigen(1, seed)
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


def _suite_dsolve(args):
    m = args.m
    yvars = range(2, m + 1)
    h = CliffordPolynomial.monomial(m, {2: 1}, Multivector.blade(m, (2,), 2), yvars)
    mono = CliffordPolynomial.variable(m, 2, yvars) * Multivector.blade(m, (2,)) - (
        CliffordPolynomial.variable(m, 3, yvars) * Multivector.blade(m, (3,))
    )
    specs = [
        DSolveSpec(m, (1, -1), (RootSpec(Fraction(1), 1, h),)),
        DSolveSpec(
            m,
            (1, 1, -2),
            (RootSpec(Fraction(1), 1, h), RootSpec(Fraction(-2), 1, h)),
        ),
        DSolveSpec(
            m,
            (1, 0, 0),
            (RootSpec(Fraction(0), 2, None, (mono, mono)),),
        ),
    ]
    for spec in specs:
        solution = dsolve(spec)
        if not d_equation_residual(solution, spec.coeffs).is_zero:
            return False, f"nonzero residual for coefficients {spec.coeffs}"
    return True, "three coefficient sets solved with zero residual"


def _suite_appell(args):
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


def _suite_further_systems(args):
    m = args.m
    yvars = range(2, m + 1)
    e1 = Multivector.blade(m, (1,))
    quad = CliffordPolynomial.monomial(m, {2: 2}, 1, yvars) + CliffordPolynomial.monomial(
        m, {3: 2}, 1, yvars
    )
    infra_seed = quad * Multivector.blade(m, (2, 4)) * Fraction(1, 2)
    mono = (
        CliffordPolynomial.variable(m, 2, yvars) * Multivector.blade(m, (2,))
        - CliffordPolynomial.variable(m, 3, yvars) * Multivector.blade(m, (3,))
    ) * Fraction(1, 2)
    displayed = SteeringExpression(
        m,
        [
            (SteeringSymbol.power_exp(0, 1), infra_seed - e1 * infra_seed * e1),
            (SteeringSymbol.power_exp(0, 1, bar=True), mono + e1 * mono * e1),
        ],
    )
    if not inframonogenic_residual(displayed).is_zero:
        return False, "displayed sandwich example has nonzero residual"
    d_infra = infra_seed.dirac_y("left")
    universal = SteeringExpression(
        m,
        [
            (SteeringSymbol.power_exp(0, 1), infra_seed - e1 * infra_seed * e1),
            (
                SteeringSymbol.power_exp(0, 1, bar=True),
                (d_infra + e1 * d_infra * e1) * Fraction(-1, 2),
            ),
        ],
    )
    for mu, lam in ((1, 1), (2, 5), (3, 1)):
        if not lame_navier_residual(universal, mu, lam).is_zero:
            return False, f"universal solution fails at (mu, lambda) = ({mu}, {lam})"
    if universal.cr_left().cr_right() or universal.cr_left().cr_left():
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
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1 << m)
        terms[mask] = terms.get(mask, Fraction(0)) + Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        )
    return Multivector(m, terms)


def _suite_algebra_random(args):
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
        if dirac(p, "left", -1).cr_left() != p.laplacian(range(0, m + 1)):
            return False, "factorization failure (cr after conjugate)"
        other = p.cr_left()
        other = other.partial(0) * 2 - other.cr_left()
        if other != p.laplacian(range(0, m + 1)):
            return False, "factorization failure (conjugate after cr)"
    return True, f"{cases} random algebra and factorization cases"


_SUITE: list[tuple[str, Callable]] = [
    ("01_coefficient_table", _suite_coefficient_table),
    ("02_matrix_power_closed_form", _suite_matrix_power),
    ("03_exp_monogenic_examples", _suite_exp_examples),
    ("04_two_sided_example", _suite_two_sided),
    ("05_exp_polymonogenic_sweep", _suite_exp_sweep),
    ("06_exp_necessity_spot_check", _suite_exp_necessity),
    ("07_trig_polymonogenic_sweep", _suite_trig_sweep),
    ("08_power_polymonogenic_sweep", _suite_power_sweep),
    ("09_eigenfunction_relation", _suite_eigen),
    ("10_d_equation_solutions", _suite_dsolve),
    ("11_appell_sequence", _suite_appell),
    ("12_sandwich_and_elasticity", _suite_further_systems),
    ("13_algebra_randomized", _suite_algebra_random),
]


def cmd_suite(args) -> int:
    failures = 0
    rows = []
    for case_id, fn in sorted(_SUITE):
        start = time.perf_counter()
        try:
            ok, detail = fn(args)
        except Exception as exc:  # a crashed case is a failed case
            ok, detail = False, f"error: {exc}"
        elapsed = time.perf_counter() - start
        rows.append((case_id, ok, detail, elapsed))
        if not ok:
            failures += 1
    width = max(len(r[0]) for r in rows)
    for case_id, ok, detail, elapsed in rows:
        status = "pass" if ok else "FAIL"
        print(f"{case_id:<{width}}  {status}  {elapsed * 1000:9.2f} ms  {detail}")
    print(f"{len(rows) - failures}/{len(rows)} cases passed")
    return EXIT_OK if failures == 0 else EXIT_NONZERO


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsteer",
        description="Construct and verify steering-type solutions of iterated "
        "Cauchy-Riemann systems over R_{0,m}, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="emit the conjugate-side coefficient table")
    coeffs.add_argument("--n", type=int, required=True, help="table length")
    coeffs.add_argument("--out", help="write JSON here instead of stdout")
    coeffs.set_defaults(func=cmd_coeffs)

    basis = sub.add_parser(
        "basis", help="emit a homogeneous basis of the iterated-Laplacian kernel"
    )
    basis.add_argument("--m", type=int, default=4)
    basis.add_argument("--degree", type=int, required=True)
    basis.add_argument("--n", type=int, default=1, help="Laplacian power")
    basis.add_argument("--out")
    basis.set_defaults(func=cmd_basis)

    appell = sub.add_parser("appell", help="emit the k-th Appell polynomial")
    appell.add_argument("--k", type=int, required=True)
    appell.add_argument("--m", type=int, default=3)
    appell.add_argument("--out")
    appell.set_defaults(func=cmd_appell)

    construct = sub.add_parser("construct", help="build a steering solution")
    construct.add_argument("--family", choices=("exp", "trig", "power"), required=True)
    construct.add_argument("--n", type=int, default=1, help="monogenicity order")
    construct.add_argument("--side", choices=("left", "right", "both"), default="left")
    construct.add_argument("--m", type=int, help="optional dimension cross-check")
    construct.add_argument("--seed", help="inline JSON seed document")
    construct.add_argument("--seed-file", help="path to the JSON seed document")
    construct.add_argument("--out")
    construct.set_defaults(func=cmd_construct)

    verify = sub.add_parser("verify", help="apply an operator chain and report the residual")
    verify.add_argument(
        "--op",
        choices=("cr", "cr-left", "cr-right", "infra", "lame", "alphabeta", "infrapoly", "deq"),
        required=True,
    )
    verify.add_argument("--side", choices=("left", "right", "both"), default="left")
    verify.add_argument("--n", type=int, default=1)
    verify.add_argument("--mu", type=_frac)
    verify.add_argument("--lambda", dest="lam", type=_frac)
    verify.add_argument("--alpha", type=_frac)
    verify.add_argument("--beta", type=_frac)
    verify.add_argument("--p", type=int, default=1)
    verify.add_argument("--q", type=int, default=1)
    verify.add_argument("--coeffs", type=_coeff_list, help='e.g. "1,-1"')
    verify.add_argument("--in", dest="in_path", help="input document (default: stdin)")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    dsolve_p = sub.add_parser(
        "dsolve", help="solve a constant coefficient equation in the hypercomplex derivative"
    )
    dsolve_p.add_argument("--coeffs", type=_coeff_list, required=True, help='e.g. "1,1,-2"')
    dsolve_p.add_argument("--spec-file", dest="seed_file", required=True)
    dsolve_p.add_argument("--out")
    dsolve_p.set_defaults(func=cmd_dsolve)

    suite = sub.add_parser("suite", help="run the verification battery")
    suite.add_argument("--m", type=int, default=4)
    suite.add_argument("--max-n", type=int, default=4)
    suite.add_argument("--max-degree", type=int, default=4)
    suite.add_argument("--cases", type=int, default=1000, help="randomized case count")
    suite.add_argument("--rng-seed", type=int, default=0)
    suite.add_argument(
        "--perturb",
        action="store_true",
        help="inject a +e2 fault into one constructed solution (the battery must fail)",
    )
    suite.set_defaults(func=cmd_suite)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TypeError, KeyError, IndexError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
