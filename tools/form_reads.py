"""Count how the benchmark's rounds read polynomials made from Fractions.

    python3 tools/form_reads.py --seed 7
    python3 tools/form_reads.py --seed 7 --workloads sweep dense

Every polynomial that ``NumeratorForm`` reads goes through one function,
``polynomials._form``; a polynomial made from Fractions works its integer
form out on its first read and keeps it.  For each workload of
``perfbench.workloads.WORKLOADS``, the workload is built at ``--seed``, one
warm-up round runs every case (its ``run``, then its ``check``, as a round
of ``perfbench/run.py`` does, though in list order), and one counted round
runs them all again.  One line per workload gives three counts of the
counted round's reads of polynomials made from Fractions: the forms worked
out (with their coefficient entries), the reads of a form worked out earlier
in the same round, and the reads of a form worked out during set-up or the
warm-up round.  A built polynomial has its form from the start, so its reads
are not counted.  Standard library only.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT  # noqa: E402
from identity import load  # noqa: E402

KINDS = ("new", "same round", "earlier")


def counts(cs, workloads, name: str, seed: int, tiny: bool = False) -> dict[str, int]:
    """The counted round's reads of ``name`` at ``seed``, by kind, and the
    coefficient entries of its new forms."""
    polynomials = cs.polynomials
    real = polynomials._form
    made = {}  # id -> (polynomial, round its form was worked out in); kept alive
    tally = dict.fromkeys(KINDS + ("entries",), 0)
    counted = False

    def read(poly):
        # a polynomial made from Fractions has no form (_den None) before its first read
        fresh = poly._den is None
        nums, den = real(poly)
        if fresh:
            made[id(poly)] = (poly, counted)
            kind = "new"
        elif id(poly) in made:
            kind = "same round" if made[id(poly)][1] == counted else "earlier"
        else:  # built
            return nums, den
        if counted:
            tally[kind] += 1
            if kind == "new":
                tally["entries"] += sum(len(blades) for blades in nums.values())
        return nums, den

    polynomials._form = read
    try:
        with tempfile.TemporaryDirectory() as workdir:
            workload = workloads.build(name, cs, seed, workdir, tiny)
            for counted in (False, True):
                for case in workload.cases:
                    case.check(case.run(), case.expected)
    finally:
        polynomials._form = real
    return tally


def main(argv=None) -> int:
    cs, workloads = load(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workloads:
        c = counts(cs, workloads, name, args.seed)
        print(
            f"{name} seed {args.seed}: {c['new']} new forms ({c['entries']} entries), "
            f"{c['same round']} reads of a form from the same round, "
            f"{c['earlier']} of a form from set-up or an earlier round"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
