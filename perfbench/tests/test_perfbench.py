"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Every workload is shrunk through ``workloads.build(..., tiny=True)`` and
run in process for a fraction of a second.
"""

import dataclasses
import functools
import gc
import json
import weakref
from pathlib import Path

import pytest

from perfbench import hostspeed, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = workloads.build


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "build", functools.partial(BUILD, tiny=True))


def bench(capsys, workload, seed=1, trace=0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), lines[:-2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    report, result, table = bench(capsys, workload, trace=trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert [line.split()[0] for line in table] == [m["name"] for m in declared]
    assert [line.split()[2] for line in table] == [m["unit"] for m in declared]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_frac"] == 0
    for key in ("git_sha", "python", "nproc", "seed", "src_lines"):
        assert key in report
    if not trace:
        assert {"tail_percentile", "tail_beyond", "samples"} <= set(report)
        tail_line = next(line for line in table if line.startswith("case_tail_ms"))
        assert f"p{report['tail_percentile']:g}, {report['tail_beyond']} beyond" in tail_line
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["sweep", "dense", "pipeline"])
def test_a_perturbed_case_declared_a_solution_is_counted_failed(monkeypatch, capsys, workload):
    def mislabelled(*args, **kwargs):
        built = BUILD(*args, **kwargs, tiny=True)
        cases = list(built.cases)
        k = next(i for i, c in enumerate(cases) if "+e2" in c.label or "bad" in c.label)
        truth = (0, 0) if workload == "pipeline" else True
        cases[k] = dataclasses.replace(cases[k], expected=truth)
        return dataclasses.replace(built, cases=cases)

    monkeypatch.setattr(workloads, "build", mislabelled)
    report, result, _ = bench(capsys, workload)
    assert report["fail_frac"] > 0
    assert result["failed"] > 0 and result["correct"] is False


CONSTRUCTORS = (
    "construct_exp_left",
    "construct_trig_left",
    "construct_power_left",
    "construct_two_sided",
    "construct_eigen",
    "dsolve",
)


@pytest.mark.parametrize("workload", ["sweep", "dense", "pipeline"])
def test_a_construction_that_returns_nothing_is_counted_failed(monkeypatch, capsys, workload):
    # an empty expression has an empty residual, so only the check on the
    # constructed expression itself can catch it
    def hollow(fn):
        def broken(*args, **kwargs):
            expr = fn(*args, **kwargs)
            return type(expr).zero(expr.m)

        return broken

    def hollowed(name, cs, *args, **kwargs):
        built = BUILD(name, cs, *args, **kwargs, tiny=True)
        for module in (cs, cs.steering, cs.cli):
            for attr in CONSTRUCTORS:
                if hasattr(module, attr):
                    setattr(module, attr, hollow(getattr(module, attr)))
        return built

    monkeypatch.setattr(workloads, "build", hollowed)
    report, result, _ = bench(capsys, workload)
    assert report["fail_frac"] > 0
    assert result["failed"] > 0 and result["correct"] is False


def test_a_basis_with_a_repeated_element_is_counted_failed(monkeypatch, capsys):
    def repeated(*args, **kwargs):
        built = BUILD(*args, **kwargs, tiny=True)
        cases = list(built.cases)
        k = next(i for i, c in enumerate(cases) if c.label.startswith("basis/") and c.expected > 1)
        run = cases[k].run
        cases[k] = dataclasses.replace(cases[k], run=lambda: [run()[0]] * cases[k].expected)
        return dataclasses.replace(built, cases=cases)

    monkeypatch.setattr(workloads, "build", repeated)
    report, result, _ = bench(capsys, "basis")
    assert report["fail_frac"] > 0 and result["correct"] is False


def test_untraced_code_runs_without_the_wrappers():
    cs = run.fresh_import()
    modules = [cs, cs.algebra, cs.polynomials, cs.steering, cs.verify, cs.appell, cs.cli]
    classes = [cs.Multivector, cs.CliffordPolynomial, cs.SteeringSymbol, cs.SteeringExpression]
    classes.append(cs.ResidualReport)
    before = [dict(vars(owner)) for owner in modules + classes]
    tracer = tracing.Tracer()
    tracer.install(cs)
    assert cs.Multivector.__mul__ is not before[len(modules)]["__mul__"]
    tracer.uninstall()
    assert [dict(vars(owner)) for owner in modules + classes] == before


def test_a_fresh_import_frees_the_earlier_copy():
    # repeated set-ups must not pile up copies of the package, or
    # peak_rss_mb would grow with the number of set-ups in a run
    old = weakref.ref(run.fresh_import().Multivector)
    run.fresh_import()
    gc.collect()
    assert old() is None


def test_a_wrong_basis_dimension_is_counted_failed(monkeypatch, capsys):
    def mislabelled(*args, **kwargs):
        built = BUILD(*args, **kwargs, tiny=True)
        cases = list(built.cases)
        cases[0] = dataclasses.replace(cases[0], expected=cases[0].expected + 1)
        return dataclasses.replace(built, cases=cases)

    monkeypatch.setattr(workloads, "build", mislabelled)
    report, result, _ = bench(capsys, "basis")
    assert report["fail_frac"] > 0 and result["correct"] is False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(tiny, capsys, workload):
    first, a, _ = bench(capsys, workload, seed=5, trace=1)
    second, b, _ = bench(capsys, workload, seed=5, trace=1)
    assert first["inputs"] == second["inputs"]
    for name in run.DETERMINISTIC:
        assert a["metrics"][name] == b["metrics"][name], name
    assert a["correct"] and b["correct"]


@pytest.mark.parametrize("workload", ["dense", "pipeline"])
def test_another_seed_changes_the_inputs(tiny, capsys, workload):
    first, _, _ = bench(capsys, workload, seed=5)
    second, _, _ = bench(capsys, workload, seed=6)
    assert first["inputs"] != second["inputs"]


def test_layers_are_exercised_where_the_table_says(tiny, capsys):
    calls = {}
    for workload in workloads.WORKLOADS:
        _, result, _ = bench(capsys, workload, trace=1)
        calls[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert calls["dense"]["algebra.mv_mul.blade_pairs"] > 0
    assert calls["sweep"]["steering.construct.calls"] > 0
    assert calls["basis"]["polynomials.basis.calls"] > 0
    assert calls["basis"]["appell.poly.calls"] > 0
    assert calls["basis"]["steering.construct.calls"] == 0
    assert calls["basis"]["verify.residual.calls"] == 0
    assert calls["pipeline"]["cli.main.calls"] > 0
    assert calls["pipeline"]["cli.doc_bytes"] > 0
    for workload in ("sweep", "dense", "basis"):
        assert calls[workload]["cli.main.calls"] == 0


def test_without_sources_it_exits_nonzero_and_prints_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-directory" / "src")
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples) == (95.0, 190.0, 10)
    assert run.tail(samples[:100]) == (90.0, 90.0, 10)
    assert run.tail(samples[:5])[0] == 50.0


def test_scaling_cancels_a_slower_host(monkeypatch):
    # the host runs at half speed from the third timing of the routine on:
    # the routine and the cases take twice as long, and the scaled times of
    # the cases between slow timings agree with those between fast ones
    ref = hostspeed.REFERENCE_S
    timings = iter([ref] * 2 + [2 * ref] * 100)
    monkeypatch.setattr(hostspeed, "time_reference", lambda: next(timings))
    speed = hostspeed.HostSpeed()
    speed.tick()
    for elapsed in [hostspeed.EVERY_S] * 2 + [2 * hostspeed.EVERY_S] * 4:
        speed.record(elapsed)
    speed.end_round()
    scaled = speed.scaled()
    assert scaled[0] == pytest.approx(hostspeed.EVERY_S)
    assert hostspeed.EVERY_S / 2 < scaled[1] < hostspeed.EVERY_S  # between a fast and a slow timing
    assert scaled[2:] == pytest.approx([hostspeed.EVERY_S] * 4)
    _, factor = hostspeed.scale_once(lambda: None)
    assert factor == pytest.approx(0.5)
