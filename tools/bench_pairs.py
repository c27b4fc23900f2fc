"""Benchmark a base commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --base HEAD~1 --workloads dense \\
        --seeds 101 102 103 104 105 106 107 108 109 110 --out BENCH_<n>.json

For every workload and seed, ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once on an export of the base commit's
committed files (``git archive``, unpacked in a temporary directory) and
once on the working tree; which side runs first alternates from pair to
pair, so drift of a shared host's speed falls on both sides alike.  Each run
gets its own fresh, empty ``PYTHONPYCACHEPREFIX`` outside both trees, so both
sides compile every module alike and a ``__pycache__`` left in either tree is
never read.

The output file holds both shas, the seeds, every run's end-to-end metrics,
failure counts and package source line count, and per workload and metric
each side's median and quartiles, the number of pairs the working tree won
(ties count for neither side), and ``worse_frac``, how far the working
tree's median is worse than the base's relative to the base's, with
``beyond_bound`` set when that exceeds the metric's bound, and
``claim_met`` set when the working tree won at least nine tenths of the
pairs and its median is better than the base's by more than the base's
interquartile range.  Metric names, bounds and whether lower or higher is
better come from ``BENCHMARK.json``.  Each metric whose claim is met is
named on stdout (``claim met: <workload> <metric>``), each metric beyond its
bound on stderr (``beyond bound: ...``), neither changing the exit status.
A run that reports ``correct: false`` or a nonzero ``fail_frac`` is kept in
the file, named on stderr, and makes the exit status 1.  The package source
size of each side is printed last (``src lines: <base> -> <change>``); a side
whose runs report more than one size, a tree edited mid-run, is named with
its sizes on stderr and makes the exit status 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(rev: str, target: Path) -> None:
    """Unpack the committed files of ``rev`` into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run, compiling into a fresh bytecode cache; its result
    object plus the failure fraction."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": report["fail_frac"],
        "src_lines": report["src_lines"],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict:
    """Per metric: medians, quartiles, pair wins, whether a gain may be claimed
    and, against ``bounds`` (metric -> largest allowed relative worsening), how
    far the change's median is worse."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        q_base = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        # relative change of the median in the worse direction: 0.1 is 10% worse
        worse = sign * (base_median - change_median)
        worse_frac = worse / abs(base_median) if base_median else (0.0 if worse <= 0 else None)
        bound = (bounds or {}).get(name)
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        out[name] = {
            "better": direction,
            "base_median": base_median,
            "change_median": change_median,
            "base_quartiles": q_base,
            "change_quartiles": quartiles(change),
            "base_iqr": q_base[1] - q_base[0],
            "change_wins": wins,
            "pairs": len(pairs),
            # a gain: at least 9 of 10 pairs won, and a median gap beyond the base's IQR
            "claim_met": 10 * wins >= 9 * len(pairs) and -worse > q_base[1] - q_base[0],
            "worse_frac": worse_frac,
            "bound": bound,
            "beyond_bound": bound is not None and (worse_frac is None or worse_frac > bound),
        }
    return out


def failed_runs(doc: dict) -> list[str]:
    """One line per run that failed a case: workload, seed, side and counts."""
    lines = []
    for workload, result in doc["workloads"].items():
        for pair in result["runs"]:
            for side in ("base", "change"):
                run = pair[side]
                if not run["correct"] or run["fail_frac"] > 0:
                    lines.append(
                        f"{workload} seed {pair['seed']} {side}: correct "
                        f"{str(run['correct']).lower()}, fail_frac {run['fail_frac']}"
                    )
    return lines


def bound_breaches(doc: dict) -> list[str]:
    """One line per workload and metric whose change median is worse than the
    parent's by more than the metric's bound."""
    lines = []
    for workload, result in doc["workloads"].items():
        for name, m in result["summary"].items():
            if m["beyond_bound"]:
                worse = "from zero" if m["worse_frac"] is None else f"{m['worse_frac']:.1%}"
                lines.append(
                    f"{workload} {name}: median {m['base_median']:.4g} -> "
                    f"{m['change_median']:.4g}, worse by {worse}, bound {m['bound']:.0%}"
                )
    return lines


def src_lines(doc: dict) -> dict[str, list[int]]:
    """Per side, the distinct package source line counts its runs reported."""
    seen: dict[str, set] = {"base": set(), "change": set()}
    for result in doc["workloads"].values():
        for pair in result["runs"]:
            for side, values in seen.items():
                values.add(pair[side]["src_lines"])
    return {side: sorted(values) for side, values in seen.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    doc = {
        "base_sha": git("rev-parse", args.base),
        "change_sha": git("rev-parse", "HEAD"),
        # tracked edits anywhere, or new files under src/ that the runs import
        "change_dirty": bool(
            git("status", "--porcelain", "--untracked-files=no")
            or git("ls-files", "--others", "--exclude-standard", "--", "src")
        ),
        "command": spec["command"]
        + ["--workload", "W", "--seed", "S", "--seconds", str(args.seconds), "--trace", "0"],
        "seeds": args.seeds,
        "python": sys.version.split()[0],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(
                    f"{workload} seed {seed}: "
                    + ", ".join(
                        f"{name} {pair['base']['metrics'][name]:.4g} -> "
                        f"{pair['change']['metrics'][name]:.4g}"
                        for name in better
                    ),
                    flush=True,
                )
            doc["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, better, bounds)}
            # written after every workload, so an interrupted run keeps the finished ones
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, result in doc["workloads"].items():
        for name, m in result["summary"].items():
            if m["claim_met"]:
                print(f"claim met: {workload} {name}")
    for line in bound_breaches(doc):
        print(f"beyond bound: {line}", file=sys.stderr)
    failed = failed_runs(doc)
    for line in failed:
        print(f"failed run: {line}", file=sys.stderr)
    sizes = src_lines(doc)
    varied = [side for side, values in sizes.items() if len(values) > 1]
    for side in varied:
        print(f"src lines vary: {side} {', '.join(map(str, sizes[side]))}", file=sys.stderr)
    if not varied:
        print(f"src lines: {sizes['base'][0]} -> {sizes['change'][0]}")
    return 1 if failed or varied else 0


if __name__ == "__main__":
    sys.exit(main())
