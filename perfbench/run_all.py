"""Run every workload, untraced and then traced, and print one table.

    python3 perfbench/run_all.py --seed 1 --seconds 10

Each run is its own process, as the benchmark requires.  The table holds
the end-to-end metrics, the failure fraction, the tail percentile with its
sample count, and the tracing overhead of each workload; the per-layer
metrics of each traced run are printed above it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[:-2], json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    rows = []
    for workload in WORKLOADS:
        _, report, plain = run_one(workload, args.seed, args.seconds, 0)
        table, traced_report, traced = run_one(workload, args.seed, args.seconds, 1)
        print(f"== {workload}: per-layer metrics of the traced run")
        print("\n".join(table))
        values = {k: v["value"] for k, v in plain["metrics"].items()}
        rows.append(
            (
                workload,
                values,
                report,
                traced["metrics"]["trace.overhead_frac"]["value"],
                plain["correct"] and traced["correct"],
            )
        )
    meta = rows[0][2]
    print(
        f"\ngit {meta['git_sha'][:12]}  python {meta['python']}  nproc {meta['nproc']}  "
        f"seed {meta['seed']}  src_lines {meta['src_lines']}"
    )
    header = (
        f"{'workload':9s} {'setup_s':>8s} {'cases_per_s':>11s} {'case_p50_ms':>11s} "
        f"{'case_tail_ms':>12s} {'(pct, n)':>12s} {'peak_rss_mb':>11s} {'fail_frac':>9s} "
        f"{'overhead':>8s} correct"
    )
    print(header)
    for workload, v, report, overhead, correct in rows:
        pct = f"(p{report['tail_percentile']:g}, {report['samples']})"
        print(
            f"{workload:9s} {v['setup_s']:8.3f} {v['cases_per_s']:11.2f} {v['case_p50_ms']:11.2f} "
            f"{v['case_tail_ms']:12.2f} {pct:>12s} {v['peak_rss_mb']:11.1f} "
            f"{report['fail_frac']:9.3f} {overhead:8.1%} {correct}"
        )
    return 0 if all(row[4] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
