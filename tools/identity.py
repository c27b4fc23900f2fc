"""Check that the working tree's outputs are byte-identical to a base commit's.

    python3 tools/identity.py                  # the digest lines of the working tree
    python3 tools/identity.py --base HEAD~1    # the same lines for HEAD~1, compared

Every workload of ``perfbench.workloads.WORKLOADS`` is built at seeds 7 and
11 and each of its cases runs once.  One line ``<workload> seed <s> <sha256
prefix>`` digests the workload's input fingerprint and its outcomes: each
case's returned expressions, reports and polynomials as their documents, and
for ``pipeline`` each case's exit codes and stderr plus every document the
commands wrote.  One line digests the documents of ``appell_poly(k, m)`` for
m 2..6 and k 0..8, a wider grid than the ``basis`` workload's.  The
``symbols`` line digests the constructions whose symbols have rates that are
not integers, which the workloads reach only at integer rates:
``construct_eigen`` at rates 3/2 and -1/3 for m 4 and 5, and a ``dsolve`` spec
with the double root 1/2 (``symbol_outcomes``), each with its report from every
``verify`` operator.  One more line digests the output of
``cliffsteer suite --max-n 5 --max-degree 5`` with its ms column masked, and
its exit status.  The first kernel-basis line digests the documents of
``polyharmonic_basis(d, o, m)`` for m 2..6, d 0..9 and o 1..5, which reach
m = 2 (a listing over one variable) and degree 0, unlike any workload; the
second, for m 3..5, d 10..12 and o 1..5, reaches x_2 chains that run past
the free slots 0..2o-1 for up to six steps, where the first stops at four.  The
``subcommands`` line digests the
exit code and stdout bytes of each emitting subcommand on fixed arguments
(``SUBCOMMANDS``: ``coeffs``, ``basis``, ``appell``, a criterion-10 ``dsolve``
spec, ``construct``, and ``verify`` with every operator on the constructed
document) and the document ``construct`` wrote.  The ``refusals`` line digests
the exit code, stdout and stderr of ``construct``, of ``verify`` and of
``verify`` on an expression with the document as its one coefficient, for
each document of ``refusal_documents``: the ``construct`` seed with one
coefficient spelled in each way a reader may meet (accepted or refused), or
with one fault of a polynomial's terms, or with three faults, which pins the
refusal that comes first.  The ``kernel`` line digests ``NumeratorForm.dirac``
on seeded integer forms at m 2..7 (``kernel_outcomes``): every side, sign 1
and -1, with and without ``y_only``, times 1..3, each output's denominator
and built document.  The ``two-sided`` line digests ``construct_two_sided``
for each family at m 3, 5 and 7 on seeds where M - e1 M e1 is zero and where
it is not (``two_sided_outcomes``), with both Cauchy-Riemann reports.  The
``products`` line digests seeded ``Multivector`` products at m 2..8 in every
shape (one term times many, many times one term, many times many), a
polynomial times a blade on each side, and ``e1_sandwich`` of seeded
polynomials and a multivector (``product_outcomes``).

``--base REV`` computes the same lines in a child process on the committed
files of REV (``git archive``, unpacked in a temporary directory, as
``tools/bench_pairs.py`` does), names each line that differs on stderr and
exits 1 if any does.  The lines of the working tree are printed either way.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

SEEDS = (7, 11)
SUITE = ["suite", "--max-n", "5", "--max-degree", "5"]
TINY_SUITE = ["suite", "--max-n", "1", "--max-degree", "1", "--cases", "10"]
APPELL = (range(2, 7), range(0, 9))  # m, k
TINY_APPELL = (range(2, 4), range(0, 4))
# m, degree, order: every order's free slots at degree 0..9, then x2 chains of
# up to six steps past them at degree 10..12
BASES = (
    (range(2, 7), range(0, 10), range(1, 6)),
    (range(3, 6), range(10, 13), range(1, 6)),
)
TINY_BASES = (
    (range(2, 4), range(0, 4), range(1, 3)),
    (range(3, 4), range(6, 8), range(1, 3)),
)
# at m=4, the criterion-10 harmonic seed 2 x2 e2, and the harmonic seed
# x2 x3 e2 + (x2^2 - x4^2)/2 e3 that construct reads
_H = {"m": 4, "vars": [2, 3, 4], "terms": [
    {"monomial": {"2": 1}, "coef": {"m": 4, "terms": [{"blades": [2], "coef": "2"}]}},
]}
_SEED = {"m": 4, "vars": [2, 3, 4], "terms": [
    {"monomial": {"2": 1, "3": 1}, "coef": {"m": 4, "terms": [{"blades": [2], "coef": "1"}]}},
    {"monomial": {"2": 2}, "coef": {"m": 4, "terms": [{"blades": [3], "coef": "1/2"}]}},
    {"monomial": {"4": 2}, "coef": {"m": 4, "terms": [{"blades": [3], "coef": "-1/2"}]}},
]}
# the documents the subcommands read, by name; "{name}" in an argv is its path
INPUTS = {
    "spec": {"m": 4, "roots": [{"root": r, "harmonic_seed": _H} for r in ("1", "-2")]},
    "seed": _SEED,
}
SUBCOMMANDS = [
    ["coeffs", "--n", "6"],
    ["basis", "--m", "5", "--degree", "4", "--n", "2"],
    ["appell", "--k", "6", "--m", "4"],
    ["dsolve", "--coeffs", "1,1,-2", "--spec-file", "{spec}"],
    ["construct", "--family", "exp", "--seed-file", "{seed}", "--out", "{expr}"],
    ["verify", "--op", "lame", "--mu", "1", "--lambda", "1", "--in", "{expr}"],
    ["verify", "--op", "deq", "--coeffs", "1,1", "--in", "{expr}"],  # D f + f = 2f, exit 1
    # the document is left monogenic, not right: each check with a right
    # Cauchy-Riemann factor and no left one before it exits 1
    ["verify", "--op", "cr-right", "--in", "{expr}"],
    ["verify", "--op", "infra", "--in", "{expr}"],
    ["verify", "--op", "alphabeta", "--alpha", "2", "--beta", "-3", "--in", "{expr}"],
    ["verify", "--op", "infrapoly", "--p", "0", "--q", "2", "--in", "{expr}"],
    ["verify", "--op", "cr", "--side", "both", "--in", "{expr}"],
]


_EXP = {"bar": False, "kind": "powexp", "power": 0, "rate": "1/1"}
# the spellings of _SEED's first coefficient, 1, in the refusals line: the one the
# writers use, others a reader accepts, and each refused kind
_SPELLINGS = ["1/1", "2/4", "-0/1", "+1/2", " 1/2", "1_0/3", "1.5", "1/0", "1e3", "\u0663/4", 7,
              "9" * 4301 + "/1"]


# the commands of the refusals line, each with the input it reads
_REFUSAL_RUNS = (
    (["construct", "--family", "exp", "--seed-file"], "seed"),
    (["verify", "--op", "cr-left", "--in"], "seed"),
    (["verify", "--op", "cr-left", "--in"], "expr"),
)


def _blades(*terms, m: int = 4) -> dict:
    return {"m": m, "terms": [{"blades": blades, "coef": coef} for blades, coef in terms]}


def refusal_documents(tiny: bool = False) -> list:
    """(name, polynomial document) pairs: ``_SEED`` with its first coefficient
    spelled each way of ``_SPELLINGS``, then with one fault of its terms each,
    then with three: a repeated monomial, x0 outside ``vars`` and a zero blade
    in the last term.  Every term is read before the polynomial's rules are
    checked and repeats are refused last, so the zero blade is named; ``tiny``
    keeps the first four documents."""
    first, *rest = _SEED["terms"]
    docs = [(f"coef {str(spelling)[:12]}", {**_SEED, "terms": [
        {"monomial": first["monomial"], "coef": _blades(([2], spelling))}, *rest
    ]}) for spelling in _SPELLINGS]
    faults = {
        "repeated blade": [{**first, "coef": _blades(([2], "1"), ([2], "1"))}],
        "zero blade": [{**first, "coef": _blades(([2], "1"), ([3], "0/5"))}],
        "repeated monomial": [first, first],
        "empty coefficient": [{**first, "coef": _blades()}],
        "exponent outside vars": [first, {"monomial": {"0": 1}, "coef": _blades(([2], "1"))}],
        "negative exponent": [first, {"monomial": {"3": -1}, "coef": _blades(([2], "1"))}],
        "coefficient m": [{**first, "coef": _blades(([2], "1"), m=5)}],
        "three faults": [
            first, first, {"monomial": {"0": 1}, "coef": _blades(([2], "1"))},
            {"monomial": {"4": 1}, "coef": _blades(([2], "1"), ([3], "0/1"))},
        ],
    }
    docs += [(name, {**_SEED, "terms": terms + rest}) for name, terms in faults.items()]
    return docs[:4] if tiny else docs


def refusal_outcomes(cs, documents: list) -> list:
    """``[name, command, input, exit code, stdout, stderr]`` of each
    ``_REFUSAL_RUNS`` command on each document (``seed``) and on the expression
    exp(z) times it (``expr``)."""
    parts = []
    with tempfile.TemporaryDirectory() as workdir:
        paths = {stem: Path(workdir) / f"{stem}.json" for stem in ("seed", "expr")}
        for name, doc in documents:
            expr = {"m": doc["m"], "terms": [{"symbol": _EXP, "coef": doc}]}
            for stem, written in (("seed", doc), ("expr", expr)):
                paths[stem].write_text(json.dumps(written), encoding="ascii")
            for argv, stem in _REFUSAL_RUNS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cs.cli.main([*argv, str(paths[stem])])
                parts.append([name, argv[0], stem, code, out.getvalue(), err.getvalue()])
    return parts


# generator counts of the kernel line, of the two-sided line and of the products line
KERNELS = range(2, 8)
TINY_KERNELS = range(2, 4)
TWO_SIDED = (3, 5, 7)
TINY_TWO_SIDED = (3,)
PRODUCTS = range(2, 9)
TINY_PRODUCTS = range(2, 4)


def _monomials(rng, m: int, first: int, count: int) -> dict:
    """``count`` seeded monomials over x_first..x_m, each with numerators in
    -5..5 on three blades, then one whose numerators are all zero."""
    out = {}
    for _ in range(count):
        exps = tuple(rng.randint(0, 2) if i >= first else 0 for i in range(m + 1))
        masks = rng.sample(range(1 << m), 3)
        out[exps] = {mask: rng.randint(-5, 5) for mask in masks}
    out[(0,) * first + (1,) * (m + 1 - first)] = {0: 0, (1 << m) - 1: 0}
    return out


def kernel_outcomes(cs, ms) -> list:
    """``[m, form, side, sign, y_only, times, den, document]`` of
    ``NumeratorForm.dirac`` on a seeded polynomial form and a seeded expression
    form at each m of ``ms``, for both sides, sign 1 and -1, with and without
    ``y_only``, and times 1..3.  The expression's symbols are barred and
    unbarred at rates 0, 1, -2 and 3/2, and each form holds one monomial whose
    numerators are all zero.  Two small expression forms more pin which output
    entries a pass makes, through the next pass's denominator.  The document is
    the built output's."""
    form_of = cs.polynomials.NumeratorForm
    kinds = [("powexp", p, r) for p in range(3) for r in (0, 1, -2, Fraction(3, 2))]
    kinds += [(kind, 0, r) for kind in ("cos", "sin") for r in (1, Fraction(3, 2))]
    parts = []
    for m in ms:
        rng = random.Random(f"kernel:{m}")
        poly = (cs.CliffordPolynomial.zero(m), {None: _monomials(rng, m, 0, 4)})
        symbols = [cs.SteeringSymbol(kind, bar, p, r)
                   for kind, p, r in kinds for bar in (False, True)]
        expr = (cs.SteeringExpression.zero(m),
                {sym: _monomials(rng, m, 2, 2) for sym in rng.sample(symbols, 5)})
        # a second pass's denominator shows which symbols the first made an entry
        # for: sin(3/2 z) with only a constant monomial, which no e_j d/dx_j writes,
        # and cos(3/2 zb) with only a zero monomial, whose d/dz-bar target is made
        x2, one, zero = (0, 0, 1) + (0,) * (m - 2), (0,) * (m + 1), (0, 0) + (1,) * (m - 1)
        exp_z = {cs.SteeringSymbol("powexp", False, 0, 1): {x2: {0: 1}}}
        sin_z = {cs.SteeringSymbol("sin", False, 0, Fraction(3, 2)): {one: {1: 3}}}
        cos_zb = {cs.SteeringSymbol("cos", True, 0, Fraction(3, 2)): {zero: {0: 0}}}
        forms = [("polynomial", poly), ("expression", expr),
                 ("constant", (expr[0], {**exp_z, **sin_z})),
                 ("zero", (expr[0], {**exp_z, **cos_zb}))]
        for name, (f, terms) in forms:
            form = form_of(f, terms, rng.randint(1, 6))
            for side in ("left", "right"):
                for sign in (1, -1):
                    for y_only in (False, True):
                        for times in (1, 2, 3):
                            out = form.dirac(side, sign, y_only, times)
                            parts.append([m, name, side, sign, y_only, times, out.den,
                                          out.build().to_obj()])
    return parts


def product_outcomes(cs, ms) -> list:
    """``[m, document]`` of seeded ``Multivector`` products at each m of ``ms``:
    a one-term factor with coefficient 1, -1 and 3/2 times twelve terms on each
    side, six terms times nine both ways, and (e1 + e2)^2, whose like terms
    cancel; then of a seeded polynomial times a blade on each side, and of
    ``e1_sandwich`` of that polynomial, of its decoded document (an integer
    form) and of a multivector."""
    parts = []
    for m in ms:
        rng = random.Random(f"products:{m}")

        def mv(count):
            masks = rng.sample(range(1 << m), min(count, 1 << m))
            return cs.Multivector(
                m, {mask: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for mask in masks}
            )

        made = []
        for coef in (1, -1, Fraction(3, 2)):
            one, many = cs.Multivector(m, {rng.randrange(1 << m): coef}), mv(12)
            made += [one * many, many * one]
        few, more = mv(6), mv(9)
        pair = cs.Multivector.blade(m, (1,)) + cs.Multivector.blade(m, (2,))
        made += [few * more, more * few, pair * pair]
        poly = cs.CliffordPolynomial(m, {
            tuple(rng.randint(0, 2) for _ in range(m + 1)): mv(rng.randint(1, 8)) for _ in range(4)
        })
        blade = cs.Multivector.blade(m, sorted(rng.sample(range(1, m + 1), 2)), -1)
        decoded = cs.CliffordPolynomial.from_obj(poly.to_obj())
        made += [blade * poly, poly * blade, cs.e1_sandwich(poly), cs.e1_sandwich(decoded),
                 cs.e1_sandwich(mv(10))]
        parts += [[m, value.to_obj()] for value in made]
    return parts


def two_sided_outcomes(cs, ms) -> list:
    """The document and the left and right Cauchy-Riemann reports of
    ``construct_two_sided`` for each family at each m of ``ms``, on seeded
    right monogenic seeds: y-Dirac derivatives M of scalar harmonics, odd in
    e2..em, so that M - e1 M e1 is zero, and e2 M, for which it is not."""
    parts = []
    for m in ms:
        rng = random.Random(f"two-sided:{m}")
        y = range(2, m + 1)
        harmonic = cs.polyharmonic_basis(3, 1, m)
        zero_diff = []
        for _ in range(2):
            h = cs.CliffordPolynomial.zero(m, y)
            for b in rng.sample(harmonic, 2):
                h = h + b * Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            zero_diff.append(h.dirac_y("left"))
        e2 = cs.Multivector.blade(m, (2,))
        nonzero_diff = [e2 * s for s in zero_diff]
        for seeds in (zero_diff, nonzero_diff, [zero_diff[0], nonzero_diff[1]]):
            for family, arg in (("exp", seeds[0]), ("trig", tuple(seeds)), ("power", seeds)):
                f = cs.construct_two_sided(family, arg)
                reports = [cs.n_monogenic_residual(f, 1, side) for side in ("left", "right")]
                parts.append([m, family, f.to_obj(), *(r.to_obj() for r in reports)])
    return parts


def load(tree: Path):
    """``cliffsteer`` from ``tree/src`` and ``perfbench.workloads`` from ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import cliffsteer
    import cliffsteer.cli  # noqa: F401  (the pipeline workload calls cli.main)
    from perfbench import workloads

    where = Path(cliffsteer.__file__).resolve()
    if not where.is_relative_to((tree / "src").resolve()):
        raise ImportError(f"cliffsteer was imported from {where}, not from {tree / 'src'}")
    return cliffsteer, workloads


def _plain(value):
    """``value`` with each of the program's objects written as its document."""
    if hasattr(value, "to_obj"):
        return value.to_obj()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode() + b"\n")
    return h.hexdigest()[:16]


def digest_lines(cs, workloads, tiny: bool = False) -> list[str]:
    """One line per workload and seed, one each for Appell, symbols and the
    suite, two for the kernel bases, one for the refusals and one each for the
    Dirac kernel, the two-sided construction and the products; ``tiny`` shrinks
    every workload, each grid, the suite, the refusals and the last three, for
    a quick self-test."""
    lines = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                workload = workloads.build(name, cs, seed, workdir, tiny)
                parts = [workload.fingerprint]
                for case in workload.cases:
                    try:
                        outcome = json.dumps(_plain(case.run()), sort_keys=True)
                    except Exception as exc:  # a raising case is one more outcome
                        outcome = f"raised {type(exc).__name__}: {exc}"
                    # the temporary directory's name differs from run to run
                    parts.append([case.label, outcome.replace(workdir, "<workdir>")])
                # the documents the pipeline's commands wrote, by name
                for path in sorted(Path(workdir).iterdir()):
                    parts.append([path.name, path.read_text(encoding="ascii")])
            lines.append(f"{name} seed {seed} {_digest(parts)}")
    ms, ks = TINY_APPELL if tiny else APPELL
    appell = [cs.appell_poly(k, m).to_obj() for m in ms for k in ks]
    lines.append(f"appell m {ms[0]}..{ms[-1]} k {ks[0]}..{ks[-1]} {_digest(appell)}")
    lines.append(f"symbols {_digest(symbol_outcomes(cs))}")
    argv = TINY_SUITE if tiny else SUITE
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cs.cli.main(argv)
    masked = re.sub(r" *\d+\.\d\d ms", " <ms>", out.getvalue())
    lines.append(f"{' '.join(argv)} {_digest([code, masked])}")
    for ms, degrees, orders in TINY_BASES if tiny else BASES:
        basis = [_plain(cs.polyharmonic_basis(d, o, m))
                 for m in ms for d in degrees for o in orders]
        span = f"m {ms[0]}..{ms[-1]} d {degrees[0]}..{degrees[-1]} o {orders[0]}..{orders[-1]}"
        lines.append(f"basis {span} {_digest(basis)}")
    documents = refusal_documents(tiny)
    lines.append(f"refusals {len(documents)} documents "
                 f"{_digest(refusal_outcomes(cs, documents))}")
    ms = TINY_KERNELS if tiny else KERNELS
    lines.append(f"kernel m {ms[0]}..{ms[-1]} {_digest(kernel_outcomes(cs, ms))}")
    ms = TINY_TWO_SIDED if tiny else TWO_SIDED
    lines.append(f"two-sided m {','.join(map(str, ms))} {_digest(two_sided_outcomes(cs, ms))}")
    ms = TINY_PRODUCTS if tiny else PRODUCTS
    lines.append(f"products m {ms[0]}..{ms[-1]} {_digest(product_outcomes(cs, ms))}")
    return lines


def symbol_outcomes(cs) -> list:
    """The document and the reports of ``construct_eigen`` at rates 3/2 and -1/3
    for m 4 and 5, then of ``dsolve`` on (2D - 1)^2 f = 0 with the root 1/2
    carrying the harmonic seed 2 x2 e2 and the monogenic seeds 1 and
    x2 - x3 e2 e3.  The reports are the left and right ``n_monogenic_residual``,
    ``inframonogenic_residual``, ``lame_navier_residual`` at (2, 5),
    ``alpha_beta_residual`` at (2, -3), ``infrapoly_residual`` at (0, 2) and
    (2, 1), and ``d_equation_residual`` of the equation each solves; a left
    check reads zero, a check with a right factor and no left one does not."""
    mono = cs.CliffordPolynomial.monomial
    solutions = []  # (solution, the coefficients of its D-equation)
    for m in (4, 5):
        y, e2, e3 = range(2, m + 1), cs.Multivector.blade(m, (2,)), cs.Multivector.blade(m, (3,))
        # x2 x3 e2 + (x2^2 - x4^2)/2 e3, harmonic in the y variables
        seed = mono(m, {2: 1, 3: 1}, e2, y) + (mono(m, {2: 2}, e3, y) - mono(m, {4: 2}, e3, y)) / 2
        for rate in (Fraction(3, 2), Fraction(-1, 3)):
            solutions.append((cs.construct_eigen(rate, seed), (1, -rate)))
    y, e23 = range(2, 5), cs.Multivector.blade(4, (2, 3))
    monogenic = (mono(4, {}, 1, y), mono(4, {2: 1}, 1, y) - mono(4, {3: 1}, e23, y))
    root = cs.RootSpec(Fraction(1, 2), 2, cs.CliffordPolynomial.from_obj(_H), monogenic)
    solutions.append((cs.dsolve(cs.DSolveSpec(4, (4, -4, 1), (root,))), (4, -4, 1)))
    return [
        [f.to_obj()]
        + [cs.n_monogenic_residual(f, 1, side).to_obj() for side in ("left", "right")]
        + [
            report.to_obj()
            for report in (
                cs.inframonogenic_residual(f),
                cs.lame_navier_residual(f, 2, 5),
                cs.alpha_beta_residual(f, 2, -3),
                cs.infrapoly_residual(f, 0, 2),
                cs.infrapoly_residual(f, 2, 1),
                cs.d_equation_residual(f, coeffs),
            )
        ]
        for f, coeffs in solutions
    ]


def subcommand_outcomes(cs) -> list:
    """``[argv, exit code, stdout]`` of each ``SUBCOMMANDS`` argv, then the
    document ``construct`` wrote."""
    parts = []
    with tempfile.TemporaryDirectory() as workdir:
        paths = {name: str(Path(workdir) / f"{name}.json") for name in [*INPUTS, "expr"]}
        for name, doc in INPUTS.items():
            Path(paths[name]).write_text(json.dumps(doc), encoding="ascii")
        for argv in SUBCOMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cs.cli.main([arg.format(**paths) for arg in argv])
            parts.append([argv, code, out.getvalue()])
        parts.append(Path(paths["expr"]).read_text(encoding="ascii"))
    return parts


def all_lines(tree: Path) -> list[str]:
    """Every digest line of the tree: workloads, Appell, symbols, suite, kernel
    bases, refusals, Dirac kernel, two-sided, products and subcommands."""
    cs, workloads = load(tree)
    return [*digest_lines(cs, workloads), f"subcommands {_digest(subcommand_outcomes(cs))}"]


def compare(base: list[str], change: list[str]) -> int:
    """Name on stderr each line whose digest differs between the two sides, or
    that one side lacks; 1 if there is any, else 0."""
    split = [dict(line.rsplit(" ", 1) for line in side) for side in (base, change)]
    differing = 0
    for key in dict.fromkeys([*split[0], *split[1]]):
        old, new = (side.get(key, "missing") for side in split)
        if old != new:
            print(f"differs: {key}: {old} -> {new}", file=sys.stderr)
            differing += 1
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="commit to compare the working tree with")
    parser.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.base is None:
        lines = all_lines(args.tree)
        print("\n".join(lines))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp))
        child = [sys.executable, str(Path(__file__).resolve()), "--tree", tmp]
        done = subprocess.run(child, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the digest of {args.base} exited {done.returncode}:\n{done.stderr}")
    lines = all_lines(ROOT)
    print("\n".join(lines))
    return compare(done.stdout.splitlines(), lines)


if __name__ == "__main__":
    sys.exit(main())
