"""Run one workload of the cliffsteer benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The load is a closed loop: one client in one process, each case started
when the previous one has finished.  Cases run in whole rounds, each round
every case of the workload once in a seeded order, until ``--seconds``
have passed.  Each case is timed alone; its outcome is checked afterwards,
outside the timed region.  Wall times are scaled to a reference host
speed by ``perfbench/hostspeed.py``, which times a fixed routine between
cases, so that the drift of a shared host's speed cancels.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced rounds alternate, the
wrappers installed only for the traced ones, and it carries the per-layer
metrics and the tracing overhead.  The line before
it is a JSON report with the failure fraction, the tail percentile, the
sample count and the run metadata.  Spans of the last traced round are
written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, tracing, workloads  # noqa: E402

# set-up is repeated in every untraced run, at least SETUP_REPEATS times and
# for about SETUP_SECONDS in all (at most SETUP_MAX_REPEATS), and its median
# reported; the repeats are spread over the timed window
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
# a tail percentile is reported only when at least ten samples lie beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "algebra.mv_mul.calls": "count",
    "algebra.mv_mul.blade_pairs": "count",
    "algebra.mv_mul.self_s": "s",
    "algebra.mv_add.calls": "count",
    "algebra.mv_add.self_s": "s",
    "algebra.coef_bits_max": "bits",
    "polynomials.basis.calls": "count",
    "polynomials.basis.elements": "count",
    "polynomials.basis.self_s": "s",
    "polynomials.partial.calls": "count",
    "polynomials.partial.self_s": "s",
    "polynomials.dirac_y.self_s": "s",
    "polynomials.laplacian.self_s": "s",
    "polynomials.poly_mul.self_s": "s",
    "steering.construct.calls": "count",
    "steering.construct.self_s": "s",
    "steering.op.calls": "count",
    "steering.op.self_s": "s",
    "steering.terms_out": "count",
    "verify.residual.calls": "count",
    "verify.residual.self_s": "s",
    "verify.residual_terms": "count",
    "appell.poly.calls": "count",
    "appell.poly.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.decode.self_s": "s",
    "cli.encode.self_s": "s",
    "cli.doc_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
# per-layer values that must repeat exactly between traced rounds and runs
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bits", "bytes")
)


def fresh_import():
    """Import ``cliffsteer`` from ``src/`` anew, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "cliffsteer" or n.startswith("cliffsteer.")]:
        del sys.modules[name]
    # typing's caches hold annotations such as Union[Multivector, int,
    # Fraction], which keep an earlier copy's classes and with them all its
    # modules alive: about 0.3 MB a set-up, which peak_rss_mb would count
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    cs = importlib.import_module("cliffsteer")
    importlib.import_module("cliffsteer.cli")
    if not Path(cs.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cliffsteer was imported from {cs.__file__}, not from {SRC}")
    return cs


def attempt(case):
    """Time one case, then check it; returns (seconds, passed, error)."""
    start = perf_counter()
    try:
        outcome = case.run()
    except Exception as exc:  # a raising case is a failed case
        elapsed = perf_counter() - start
        return elapsed, False, f"{case.label}: raised {exc!r}"
    elapsed = perf_counter() - start
    try:
        ok = bool(case.check(outcome, case.expected))
    except Exception as exc:  # so is one whose outcome cannot be checked
        return elapsed, False, f"{case.label}: check raised {exc!r}"
    return elapsed, ok, None if ok else f"{case.label}: outcome fails its check"


class Tally:
    def __init__(self, speed: hostspeed.HostSpeed | None = None):
        self.samples: list[float] = []
        self.errors: list[str] = []
        self.speed = speed

    def run_round(self, cases, rng) -> float:
        """Every case once, in a seeded order; returns the timed seconds."""
        order = list(range(len(cases)))
        rng.shuffle(order)
        timed = 0.0
        if self.speed is not None:
            self.speed.tick()
        for i in order:
            elapsed, ok, error = attempt(cases[i])
            self.samples.append(elapsed)
            if self.speed is not None:
                self.speed.record(elapsed)
            timed += elapsed
            if not ok:
                self.errors.append(error)
        if self.speed is not None:
            self.speed.end_round()
        return timed


def tail(samples):
    """(percentile, value, samples beyond) at the highest ladder percentile
    that leaves at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - idx - 1 >= TAIL_BEYOND:
            break
    return p, ordered[idx], n - idx - 1


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported tree, not a repository of its own
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(seed: int) -> dict:
    lines = 0
    for path in sorted((SRC / "cliffsteer").glob("*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliffsteer" / "__init__.py").is_file():
        print(f"error: no cliffsteer sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        return measure(args, workdir)


def measure(args, workdir: str) -> int:
    setup_times = []  # scaled to the reference host
    setup_wall = []
    warmup_errors = []

    def set_up():
        """Import, generate the inputs and run one warm-up case, timed."""
        gc.collect()

        def timed():
            start = perf_counter()
            cs = fresh_import()
            workload = workloads.build(args.workload, cs, args.seed, workdir)
            _, ok, error = attempt(workload.cases[0])
            return cs, workload, ok, error, perf_counter() - start

        (cs, workload, ok, error, elapsed), factor = hostspeed.scale_once(timed)
        setup_wall.append(elapsed)
        setup_times.append(elapsed * factor)
        if not ok:
            warmup_errors.append(error)
        return cs, workload

    # every round runs the first set-up's cases; the later set-ups are
    # timed and dropped, so the package's own caches stay warm
    cs, workload = set_up()
    repeats = max(
        SETUP_REPEATS, min(SETUP_MAX_REPEATS, math.ceil(SETUP_SECONDS / setup_times[0]))
    )

    def between_rounds(share: float) -> None:
        # the set-ups due once ``share`` of the timed window has passed, so
        # that their median samples the host over the whole run
        due = 1 + math.floor(share * (repeats - 1))
        while len(setup_times) < due:
            set_up()
            gc.collect()

    rng = random.Random(f"order:{args.seed}")
    gc.collect()
    if args.trace:
        units = PER_LAYER_UNITS
        tally = Tally()
        metrics, extra = traced_rounds(cs, workload.cases, rng, tally, args)
    else:
        units = END_TO_END_UNITS
        tally = Tally(hostspeed.HostSpeed())
        metrics, extra = timed_rounds(workload.cases, rng, tally, args, between_rounds)
        metrics["setup_s"] = statistics.median(setup_times)
        extra["setup_runs_s"] = setup_times
        extra["wall"]["setup_s"] = statistics.median(setup_wall)
    errors = warmup_errors + tally.errors
    attempted = len(tally.samples) + len(setup_times)
    report = {"workload": args.workload, "trace": args.trace, "inputs": workload.fingerprint}
    report.update(metadata(args.seed))
    report.update(extra)
    report.update(samples=len(tally.samples), fail_frac=len(errors) / attempted)
    report["failures"] = errors[:10]
    for name in units:
        line = f"{name:32s} {metrics[name]:14.6g} {units[name]}"
        if name == "case_tail_ms":
            p, beyond = extra["tail_percentile"], extra["tail_beyond"]
            line += f"  p{p:g}, {beyond} beyond, of {len(tally.samples)}"
        print(line)
    print(json.dumps({"report": report}))
    result = {
        "correct": not errors and report.get("deterministic", True),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def timed_rounds(cases, rng, tally, args, between_rounds):
    """Whole rounds until they have taken ``--seconds``; the end-to-end
    metrics but set-up.  ``between_rounds`` gets the share of the window
    used so far; the time it takes does not count towards the window."""
    rounds = 0
    spent = 0.0
    while rounds == 0 or spent < args.seconds:
        start = perf_counter()
        tally.run_round(cases, rng)
        spent += perf_counter() - start
        rounds += 1
        between_rounds(min(spent / args.seconds, 1.0))
    metrics, p, beyond = latency_metrics(tally.speed.scaled())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {
        "rounds": rounds,
        "cases_per_round": len(cases),
        "tail_percentile": p,
        "tail_beyond": beyond,
        # the same metrics unscaled, and the speed of the host against the
        # reference one, for reading a run against a stopwatch
        "wall": latency_metrics(tally.samples)[0],
        "host_speed": hostspeed.REFERENCE_S / statistics.median(tally.speed.timings),
    }
    return metrics, extra


def latency_metrics(samples):
    """(throughput, median and tail metrics, tail percentile, samples beyond)."""
    p, tail_value, beyond = tail(samples)
    metrics = {
        "cases_per_s": len(samples) / sum(samples),
        "case_p50_ms": statistics.median(samples) * 1000,
        "case_tail_ms": tail_value * 1000,
    }
    return metrics, p, beyond


def traced_rounds(cs, cases, rng, tally, args):
    """Alternate untraced and traced rounds until the time is up.

    The wrappers are installed for each traced round and taken out again,
    so the untraced rounds run the program as it is.  The counts must be
    equal in every traced round; self times are medians over traced rounds,
    and the overhead compares the medians of the timed seconds of traced
    and untraced rounds.
    """
    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    start = perf_counter()
    while not summaries or perf_counter() - start < args.seconds:
        plain.append(tally.run_round(cases, rng))
        tracer.reset()
        tracer.install(cs)
        try:
            traced.append(tally.run_round(cases, rng))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv"))
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name.startswith("trace."):
            continue
        if name in DETERMINISTIC:
            metrics[name] = summaries[0][name]
        else:
            metrics[name] = statistics.median(s[name] for s in summaries)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
    deterministic = all(
        s[name] == summaries[0][name] for s in summaries for name in DETERMINISTIC
    )
    extra = {
        "rounds": len(traced),
        "cases_per_round": len(cases),
        "untraced_round_s": plain,
        "traced_round_s": traced,
        "deterministic": deterministic,
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
