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
document) and the document ``construct`` wrote.

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
    suite, and two for the kernel bases; ``tiny`` shrinks every workload, each
    grid and the suite, for a quick self-test."""
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
    bases and subcommands."""
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
