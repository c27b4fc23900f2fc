"""The four workloads: their inputs, their cases and the checks on them.

A case is one unit of work whose outcome can be checked: ``run`` is the
timed call into the program, ``check`` the untimed oracle that compares
the outcome with ``expected``.  A check never calls into the program, so
the traced rounds count only the work of ``run``.  Every input is drawn from
``random.Random(seed)`` during set-up; the program only ever receives the
generated values.  Each builder takes the freshly imported ``cliffsteer``
package, so set-up can be repeated with a clean import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import oracles

WORKLOADS = ("sweep", "dense", "basis", "pipeline")


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    expected: Any


@dataclass
class Workload:
    cases: list[Case]  # the first one doubles as the set-up warm-up
    fingerprint: str  # digest of the generated inputs, for the determinism check


def build(name: str, cs, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Generate the named workload's inputs from ``seed``.

    ``tiny`` shrinks every size so the self-test runs in seconds.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        return _sweep(cs, rng, tiny)
    if name == "dense":
        return _dense(cs, rng, tiny)
    if name == "basis":
        return _basis(cs, tiny)
    if name == "pipeline":
        return _pipeline(cs, rng, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _bump(cs, m):
    """The +e2 fault of ``suite --perturb``: exp(zb) e2, whose own
    Cauchy-Riemann residual is nonzero, so adding it to a solution must
    make every checked operator reject it."""
    sym = cs.SteeringSymbol.power_exp(0, 1, bar=True)
    return cs.SteeringExpression(m, [(sym, cs.Multivector.blade(m, (2,)))])


def _perturbed_share(rng, count: int, share: float) -> set[int]:
    return set(rng.sample(range(count), round(count * share)))


def _random_mv(cs, rng, blades, m, terms=3):
    """A multivector with ``terms`` distinct blades drawn from ``blades``
    and small integer coefficients drawn from ``rng``."""
    masks = blades.sample(range(1 << m), terms)
    return cs.Multivector(m, {mask: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for mask in masks})


def _dense_sum(cs, rng, blades, elements, m):
    """The ROADMAP's dense seed: every element left-multiplied by its own
    random 3-term multivector, summed.  The seed draws the coefficients;
    ``blades``, the same for every seed, draws where they sit, so the term
    count and with it the cost of a round do not change with the seed."""
    total = cs.CliffordPolynomial.zero(m, range(2, m + 1))
    for b in elements:
        total = total + _random_mv(cs, rng, blades, m) * b
    return total


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# sweep: the acceptance sweep at m=4
# ---------------------------------------------------------------------------


def _sweep(cs, rng, tiny) -> Workload:
    m = 4
    orders = range(1, 3 if tiny else 6)
    degrees = range(0, 3 if tiny else 6)
    specs = []  # (label, build expression, operators, expected z-side coefficients)
    z = oracles.z_symbol
    exp_z, cos_z, sin_z = z("powexp", 0, 1), z("cos", 0, 1), z("sin", 0, 1)

    def left(o):
        return lambda f: [cs.n_monogenic_residual(f, o, "left")]

    def both(f):
        return [cs.n_monogenic_residual(f, 1, "left"), cs.n_monogenic_residual(f, 1, "right")]

    def d_equation(coeffs):
        # the D-equation is defined only on left monogenic input, so that is
        # checked first; a perturbed input stops there, rejected
        def ops(f):
            first = cs.n_monogenic_residual(f, 1, "left")
            if not first.is_zero:
                return [first]
            return [first, cs.d_equation_residual(f, coeffs)]

        return ops

    zero = cs.CliffordPolynomial.zero(m, range(2, m + 1))
    for o in orders:
        for d in degrees:
            basis = cs.polyharmonic_basis(d, o, m)
            dense = [oracles.as_dense(b) for b in basis]
            for i, b in enumerate(basis):
                nxt = basis[(i + 1) % len(basis)]
                tag = f"o{o}/d{d}/{i}"
                specs.append(
                    (
                        f"exp/{tag}",
                        lambda b=b, o=o: cs.construct_exp_left(b, o),
                        left(o),
                        {exp_z: dense[i]},
                    )
                )
                specs.append(
                    (
                        f"trig/{tag}",
                        lambda b=b, n=nxt, o=o: cs.construct_trig_left(b, n, o),
                        left(o),
                        {cos_z: dense[i], sin_z: dense[(i + 1) % len(basis)]},
                    )
                )
                specs.append(
                    (
                        f"power/{tag}",
                        lambda b=b, d=d, o=o: cs.construct_power_left([zero] * d + [b], o),
                        left(o),
                        {z("powexp", d): dense[i]},
                    )
                )
    # two-sided seeds: the y-Dirac derivative of a scalar harmonic is
    # monogenic on both sides; it is odd in e2..em, so M - e1 M e1 would
    # vanish, and the constant left factor e2 keeps it right monogenic
    # while making that difference nonzero
    e2 = cs.Multivector.blade(m, (2,))
    harmonic = [b for d in range(1, 4 if tiny else 7) for b in cs.polyharmonic_basis(d, 1, m)]
    monogenic = [h.dirac_y("left") for h in harmonic]
    two_sided = [e2 * s for s in monogenic]
    sandwiched = [oracles.sandwich_difference(oracles.as_dense(s)) for s in two_sided]
    for i, s in enumerate(two_sided):
        j = (i + 1) % len(two_sided)
        nxt = two_sided[j]
        specs.append(
            (
                f"2side-exp/{i}",
                lambda s=s: cs.construct_two_sided("exp", s),
                both,
                {exp_z: sandwiched[i]},
            )
        )
        specs.append(
            (
                f"2side-trig/{i}",
                lambda s=s, n=nxt: cs.construct_two_sided("trig", (s, n)),
                both,
                {cos_z: sandwiched[i], sin_z: sandwiched[j]},
            )
        )
        specs.append(
            (
                f"2side-power/{i}",
                lambda s=s, n=nxt: cs.construct_two_sided("power", [n, s]),
                both,
                {z("powexp", 0): sandwiched[j], z("powexp", 1): sandwiched[i]},
            )
        )
    rates = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3, 2))
    harmonic_low = [b for d in range(0, 3 if tiny else 5) for b in cs.polyharmonic_basis(d, 1, m)]
    for i, h in enumerate(harmonic_low):
        for r in rates:
            specs.append(
                (
                    f"eigen/{r}/{i}",
                    lambda h=h, r=r: cs.construct_eigen(r, h),
                    d_equation((1, -r)),
                    {z("powexp", 0, r): oracles.as_dense(h)},
                )
            )
    for i, h in enumerate(harmonic_low):
        mono = monogenic[i % len(monogenic)]
        dh, dm = oracles.as_dense(h), oracles.as_dense(mono)
        for coeffs, roots, leading in (
            (
                (1, 1, -2),
                (cs.RootSpec(Fraction(1), 1, h), cs.RootSpec(Fraction(-2), 1, h)),
                {exp_z: dh, z("powexp", 0, -2): dh},
            ),
            (
                (1, -2, 1),
                (cs.RootSpec(Fraction(1), 2, h, (mono, mono)),),
                {exp_z: oracles.added(dh, dm), z("powexp", 1, 1): dm},
            ),
            (
                (1, 0, 0),
                (cs.RootSpec(Fraction(0), 2, None, (mono, mono)),),
                {z("powexp", 0): dm, z("powexp", 1): dm},
            ),
        ):
            spec = cs.DSolveSpec(m, coeffs, roots)
            specs.append(
                (
                    f"dsolve/{coeffs}/{i}",
                    lambda spec=spec: cs.dsolve(spec),
                    d_equation(coeffs),
                    leading,
                )
            )

    bump = _bump(cs, m)
    perturbed = _perturbed_share(rng, len(specs), 1 / 8)
    cases = []
    for k, (label, make, ops, leading) in enumerate(specs):
        bad = k in perturbed
        if bad:
            run = lambda make=make, ops=ops: _solve(make, ops, bump)
        else:
            run = lambda make=make, ops=ops: _solve(make, ops)
        check = lambda outcome, expected, leading=leading: oracles.solution_agrees(
            outcome, expected, leading
        )
        cases.append(Case(label + ("+e2" if bad else ""), run, check, not bad))
    return Workload(cases, _digest(sorted(perturbed)))


def _solve(make, ops, bump=None):
    """Construct, add the fault if one is given, and check with the
    defining operators; the expression is returned for the oracle."""
    expr = make()
    if bump is not None:
        expr = expr + bump
    return expr, ops(expr)


# ---------------------------------------------------------------------------
# dense: few large expressions at m=6 and m=8
# ---------------------------------------------------------------------------


def _dense(cs, rng, tiny) -> Workload:
    # (family, m, degree, order) of the seed basis behind each left case and
    # (family, m, degree) behind each two-sided one
    if tiny:
        left_specs = [("exp", 4, 3, 2), ("trig", 4, 2, 1)]
        two_sided_specs = [("exp", 4, 2)]
    else:
        # thirteen cases, so that the median case time is one case's time,
        # and that case sits among others of like cost: with twelve, the
        # median fell between two cases a quarter apart and jumped by 10%
        # from seed to seed as they traded places
        left_specs = [
            ("exp", 8, 3, 3),
            ("exp", 8, 5, 3),
            ("exp", 8, 4, 2),
            ("exp", 8, 4, 3),
            ("trig", 8, 4, 2),
            ("exp", 6, 5, 2),
            ("exp", 6, 5, 3),
            ("exp", 6, 6, 3),
            ("trig", 6, 4, 3),
            ("trig", 6, 5, 2),
        ]
        two_sided_specs = [("trig", 6, 4), ("trig", 6, 3), ("exp", 6, 4)]
    specs = []  # (label, m, build expression, operators, expected z-side coefficients)
    inputs = []
    z = oracles.z_symbol
    blades = random.Random("dense:blades")
    for family, m, d, o in left_specs:
        basis = cs.polyharmonic_basis(d, o, m)
        a = _dense_sum(cs, rng, blades, basis, m)
        if family == "exp":
            make = lambda a=a, o=o: cs.construct_exp_left(a, o)
            leading = {z("powexp", 0, 1): oracles.as_dense(a)}
        else:
            b = _dense_sum(cs, rng, blades, basis, m)
            inputs.append(b.to_obj())
            make = lambda a=a, b=b, o=o: cs.construct_trig_left(a, b, o)
            leading = {z("cos", 0, 1): oracles.as_dense(a), z("sin", 0, 1): oracles.as_dense(b)}
        inputs.append(a.to_obj())
        ops = lambda f, o=o: [cs.n_monogenic_residual(f, o, "left")]
        specs.append((f"{family}/m{m}/d{d}/o{o}", m, make, ops, leading))
    for family, m, d in two_sided_specs:
        # y-Dirac derivatives of scalar harmonics are two-sided monogenic,
        # and a constant left factor keeps them right monogenic
        monogenic = [h.dirac_y("left") for h in cs.polyharmonic_basis(d + 1, 1, m)]
        s = _dense_sum(cs, rng, blades, monogenic, m)
        inputs.append(s.to_obj())
        if family == "exp":
            make = lambda s=s: cs.construct_two_sided("exp", s)
            leading = {z("powexp", 0, 1): oracles.sandwich_difference(oracles.as_dense(s))}
        else:
            t = _dense_sum(cs, rng, blades, monogenic, m)
            inputs.append(t.to_obj())
            make = lambda s=s, t=t: cs.construct_two_sided("trig", (s, t))
            leading = {
                z("cos", 0, 1): oracles.sandwich_difference(oracles.as_dense(s)),
                z("sin", 0, 1): oracles.sandwich_difference(oracles.as_dense(t)),
            }
        mu, lam = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))
        alpha, beta = Fraction(rng.randint(1, 4)), Fraction(-rng.randint(1, 4))

        def ops(f, mu=mu, lam=lam, alpha=alpha, beta=beta):
            return [
                cs.n_monogenic_residual(f, 1, "left"),
                cs.n_monogenic_residual(f, 1, "right"),
                cs.inframonogenic_residual(f),
                cs.lame_navier_residual(f, mu, lam),
                cs.alpha_beta_residual(f, alpha, beta),
            ]

        specs.append((f"2side-{family}/m{m}/d{d}", m, make, ops, leading))

    # a seeded third of the expressions carries the +e2 fault; the fault
    # adds one term, so the choice leaves the cost of a round unchanged
    perturbed = _perturbed_share(rng, len(specs), 1 / 3)
    cases = []
    for k, (label, m, make, ops, leading) in enumerate(specs):
        check = lambda outcome, expected, leading=leading: oracles.solution_agrees(
            outcome, expected, leading
        )
        if k in perturbed:
            run = lambda make=make, ops=ops, bump=_bump(cs, m): _solve(make, ops, bump)
            cases.append(Case(label + "+e2", run, check, False))
        else:
            run = lambda make=make, ops=ops: _solve(make, ops)
            cases.append(Case(label, run, check, True))
    return Workload(cases, _digest(inputs + sorted(perturbed)))


# ---------------------------------------------------------------------------
# basis: kernel bases and Appell polynomials, no steering or verify
# ---------------------------------------------------------------------------

# (m, degree, order) grid points.  The full m=6..8, degree 4..8, order 1..4
# grid is pruned to points under about half a second, since m=8 degree 8
# order 1 alone takes tens of seconds; degrees 2 and 3 add cheap calls
BASIS_GRID = (
    [(m, d, o) for m in (6, 7, 8) for d in (2, 3) for o in range(1, 5)]
    + [(6, d, o) for d in range(4, 7) for o in range(1, 5)]
    + [(6, 7, o) for o in range(2, 5)]
    + [(6, 8, 2)]
    + [(7, d, o) for d in range(4, 6) for o in range(1, 5)]
    + [(7, 6, o) for o in range(2, 5)]
    + [(7, 7, 4)]
    + [(8, d, o) for d in range(4, 6) for o in range(1, 5)]
    + [(8, 6, 4)]
)
APPELL_GRID = [(k, m) for m in (3, 4) for k in range(0, 9)]


def _basis(cs, tiny) -> Workload:
    grid = [(4, d, o) for d in range(2, 5) for o in (1, 2)] if tiny else BASIS_GRID
    appell = [(k, 3) for k in range(0, 4)] if tiny else APPELL_GRID
    cases = []
    for m, d, o in grid:
        cases.append(
            Case(
                f"basis/m{m}/d{d}/o{o}",
                lambda m=m, d=d, o=o: cs.polyharmonic_basis(d, o, m),
                lambda polys, dim, m=m, d=d, o=o: oracles.check_basis(polys, dim, d, o, m),
                oracles.kernel_dimension(d, o, m - 1),
            )
        )
    for k, m in appell:
        cases.append(
            Case(
                f"appell/k{k}/m{m}",
                lambda k=k, m=m: cs.appell_poly(k, m),
                lambda pk, k, m=m: oracles.check_appell(pk, k, m),
                k,
            )
        )
    return Workload(cases, _digest(grid + appell))


# ---------------------------------------------------------------------------
# pipeline: the CLI contract, in process, through JSON files
# ---------------------------------------------------------------------------


def _write(path, obj) -> None:
    with open(path, "w", encoding="ascii") as handle:
        json.dump(obj, handle)


def _cli(cs, argv):
    """Run ``cliffsteer.cli.main`` with its stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cs.cli.main(argv)
    return code, err.getvalue()


def _check_pipeline(outcome, expected, expr_path, out_path, leading) -> bool:
    """The exit codes are the labelled ones; a refused input leaves one
    stderr line and no traceback; otherwise the constructed document
    carries its seeds and the verify document's is_zero flags agree with
    its exit code."""
    codes, stderr = outcome
    if tuple(codes) != expected:
        return False
    if expected[-1] == 2:
        return stderr.count("\n") == 1 and "Traceback" not in stderr
    with open(expr_path, encoding="ascii") as handle:
        expr_doc = json.load(handle)
    with open(out_path, encoding="ascii") as handle:
        doc = json.load(handle)
    # so that a later round cannot read a stale document
    os.remove(expr_path)
    os.remove(out_path)
    if not oracles.leads_with(oracles.expression_doc_terms(expr_doc), leading):
        return False
    reports = doc if isinstance(doc, list) else [doc]
    return all(r["is_zero"] for r in reports) == (expected[-1] == 0)


def _pipeline(cs, rng, workdir, tiny) -> Workload:
    # (family, m, degree, order, kind) where kind is ok / bad / refused
    slots = []
    for m in (4, 5):
        for o in (1, 2, 3):
            slots += [("exp", m, o, o, "ok"), ("exp", m, o + 1, o, "bad")]
        slots += [("trig", m, 2, 1, "ok"), ("trig", m, 2, 2, "ok"), ("trig", m, 1, 2, "bad")]
        slots += [("both", m, 2, 1, "ok"), ("both", m, 3, 1, "bad")]
        slots += [("exp", m, 4, 2, "refused"), ("both", m, 3, 1, "refused")]
    if tiny:
        slots = [s for s in slots if s[1] == 4 and s[3] == 1]

    def combo(m, d, o):
        # every basis element with a seeded rational weight, so that the
        # seed changes the coefficients but not the size of the document
        total = cs.CliffordPolynomial.zero(m, range(2, m + 1))
        for b in cs.polyharmonic_basis(d, o, m):
            total = total + b * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        return total

    def monogenic(m, d):
        # right monogenic, with M - e1 M e1 nonzero (see _sweep)
        return cs.Multivector.blade(m, (2,)) * combo(m, d + 1, 1).dirac_y("left")

    z = oracles.z_symbol
    cases = []
    inputs = []
    for n, (family, m, d, o, kind) in enumerate(slots):
        seed_path = os.path.join(workdir, f"seed{n}.json")
        expr_path = os.path.join(workdir, f"expr{n}.json")
        check_in = os.path.join(workdir, f"check_in{n}.json")
        out_path = os.path.join(workdir, f"report{n}.json")
        if family == "exp":
            seed_poly = combo(m, d, o)
            if kind == "refused":
                # not annihilated by laplacian^o: construct must refuse it
                seed_poly = seed_poly + cs.CliffordPolynomial.monomial(
                    m, {2: 2 * o}, 1, range(2, m + 1)
                )
            seed_doc = seed_poly.to_obj()
            construct = ["construct", "--family", "exp", "--n", str(o)]
            verify = ["verify", "--op", "cr-left", "--n", str(o)]
            expr = cs.construct_exp_left(seed_poly, o) if kind != "refused" else None
            leading = {z("powexp", 0, 1): oracles.from_doc(seed_doc)}
        elif family == "trig":
            a, b = combo(m, d, o), combo(m, d, o)
            seed_doc = {"a1": a.to_obj(), "b1": b.to_obj()}
            construct = ["construct", "--family", "trig", "--n", str(o)]
            verify = ["verify", "--op", "cr-left", "--n", str(o)]
            expr = cs.construct_trig_left(a, b, o)
            leading = {
                z("cos", 0, 1): oracles.from_doc(seed_doc["a1"]),
                z("sin", 0, 1): oracles.from_doc(seed_doc["b1"]),
            }
        else:
            s = monogenic(m, d)
            if kind == "refused":
                # not right monogenic: the two-sided construction must refuse it
                s = s + cs.CliffordPolynomial.monomial(m, {2: 1}, 1, range(2, m + 1))
            seed_doc = s.to_obj()
            construct = ["construct", "--family", "exp", "--side", "both"]
            verify = ["verify", "--op", "cr", "--side", "both"]
            expr = cs.construct_two_sided("exp", s) if kind != "refused" else None
            leading = {z("powexp", 0, 1): oracles.sandwich_difference(oracles.from_doc(seed_doc))}
        _write(seed_path, seed_doc)
        inputs.append(seed_doc)
        construct += ["--seed-file", seed_path, "--out", expr_path]
        # a perturbed case verifies the constructed document with the +e2
        # fault written into it during set-up
        if kind == "bad":
            _write(check_in, (expr + _bump(cs, m)).to_obj())
            verify += ["--in", check_in, "--out", out_path]
        else:
            verify += ["--in", expr_path, "--out", out_path]

        def run(construct=construct, verify=verify):
            code, err = _cli(cs, construct)
            if code != 0:
                return (code,), err
            code2, err2 = _cli(cs, verify)
            return (code, code2), err + err2

        def check(outcome, expected, paths=(expr_path, out_path), leading=leading):
            return _check_pipeline(outcome, expected, *paths, leading)

        expected = {"ok": (0, 0), "bad": (0, 1), "refused": (2,)}[kind]
        cases.append(Case(f"{family}/{kind}/m{m}/d{d}/o{o}", run, check, expected))
    return Workload(cases, _digest(inputs))
