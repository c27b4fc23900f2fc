"""``tools/bench_pairs``: medians, quartiles, pair wins, failed runs and
the source size of each side.

The tool is a script, not a package module, so it is loaded from its path.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(base, change, name="metric"):
    return [
        {"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
        for b, c in zip(base, change)
    ]


def test_wins_follow_the_metric_direction(bench_pairs):
    runs = pairs([10, 10, 10, 10], [12, 8, 11, 9])
    higher = bench_pairs.summarize(runs, {"metric": "higher"})["metric"]
    lower = bench_pairs.summarize(runs, {"metric": "lower"})["metric"]
    assert higher["change_wins"] == 2 and lower["change_wins"] == 2
    runs = pairs([10, 10, 10], [12, 13, 9])
    assert bench_pairs.summarize(runs, {"metric": "higher"})["metric"]["change_wins"] == 2
    assert bench_pairs.summarize(runs, {"metric": "lower"})["metric"]["change_wins"] == 1


def test_ties_count_for_neither_side(bench_pairs):
    runs = pairs([3.5, 2, 7], [3.5, 2, 7])
    for direction in ("higher", "lower"):
        summary = bench_pairs.summarize(runs, {"metric": direction})["metric"]
        assert summary["change_wins"] == 0 and summary["pairs"] == 3
    runs = pairs([1, 5, 5], [2, 5, 4])
    assert bench_pairs.summarize(runs, {"metric": "higher"})["metric"]["change_wins"] == 1
    assert bench_pairs.summarize(runs, {"metric": "lower"})["metric"]["change_wins"] == 1


def test_medians_quartiles_and_every_metric(bench_pairs):
    runs = [
        {"base": {"metrics": {"a": b, "b": -b}}, "change": {"metrics": {"a": c, "b": -c}}}
        for b, c in zip([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    ]
    summary = bench_pairs.summarize(runs, {"a": "higher", "b": "lower"})
    assert set(summary) == {"a", "b"}
    a = summary["a"]
    assert a["better"] == "higher"
    assert a["base_median"] == 3 and a["change_median"] == 4
    assert a["base_quartiles"] == [2, 4] and a["base_iqr"] == 2
    assert a["change_quartiles"] == [3, 5]
    assert a["change_wins"] == 5 and summary["b"]["change_wins"] == 5


def test_run_keeps_the_source_line_count(bench_pairs, monkeypatch):
    report = {"report": {"fail_frac": 0.0, "src_lines": 2718, "workload": "basis"}}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {"x": {"value": 1.5}}}

    class Done:
        returncode = 0
        stderr = ""
        stdout = f"spans\n{json.dumps(report)}\n{json.dumps(result)}\n"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: Done)
    run = bench_pairs.run_once(Path("."), "basis", 1, 1.0)
    assert run == {
        "metrics": {"x": 1.5},
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "fail_frac": 0.0,
        "src_lines": 2718,
    }


def test_each_run_compiles_into_a_fresh_cache_outside_both_trees(
    bench_pairs, monkeypatch, tmp_path
):
    report = {"report": {"fail_frac": 0.0, "src_lines": 1, "workload": "basis"}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    caches = []

    class Done:
        returncode = 0
        stderr = ""
        stdout = f"{json.dumps(report)}\n{json.dumps(result)}\n"

    def run(command, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        assert env["PATH"] == os.environ["PATH"]  # the rest of the environment is kept
        caches.append(cache)
        return Done

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for tree in (tmp_path, bench_pairs.ROOT, tmp_path, bench_pairs.ROOT):
        bench_pairs.run_once(tree, "basis", 1, 1.0)
    assert len(set(caches)) == 4
    for cache in caches:
        assert not cache.exists()  # removed after its run
        assert not cache.is_relative_to(tmp_path) and not cache.is_relative_to(bench_pairs.ROOT)


def test_a_failing_run_is_kept_named_and_exits_one(bench_pairs, monkeypatch, tmp_path, capsys):
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(tree, workload, seed, seconds):
        side = "base" if tree != bench_pairs.ROOT else "change"
        bad = (workload, seed, side) == ("basis", 2, "change")
        return {
            "metrics": {name: 1.0 for name in names},
            "correct": not bad,
            "attempted": 10,
            "failed": int(bad),
            "fail_frac": 0.1 if bad else 0.0,
            "src_lines": 1,
        }

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, target: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--workloads", "sweep", "basis", "--seeds", "1", "2", "--seconds", "1", "--out"]

    assert bench_pairs.main([*argv, str(out)]) == 1
    doc = json.loads(out.read_text())
    assert [len(doc["workloads"][w]["runs"]) for w in ("sweep", "basis")] == [2, 2]
    assert doc["workloads"]["basis"]["runs"][1]["change"]["correct"] is False
    err = capsys.readouterr().err
    assert err == "failed run: basis seed 2 change: correct false, fail_frac 0.1\n"

    def all_pass(*args):
        return {**run_once(*args), "correct": True, "fail_frac": 0.0}

    monkeypatch.setattr(bench_pairs, "run_once", all_pass)
    assert bench_pairs.main([*argv, str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_worse_medians_are_measured_against_the_bound(bench_pairs):
    runs = pairs([100, 100, 100], [70, 80, 74])
    higher = bench_pairs.summarize(runs, {"metric": "higher"}, {"metric": 0.25})["metric"]
    assert higher["worse_frac"] == pytest.approx(0.26) and higher["beyond_bound"] is True
    assert higher["bound"] == 0.25
    lower = bench_pairs.summarize(runs, {"metric": "lower"}, {"metric": 0.25})["metric"]
    assert lower["worse_frac"] == pytest.approx(-0.26) and lower["beyond_bound"] is False
    runs = pairs([10, 10, 10], [12, 12, 11])
    lower = bench_pairs.summarize(runs, {"metric": "lower"}, {"metric": 0.25})["metric"]
    assert lower["worse_frac"] == pytest.approx(0.2) and lower["beyond_bound"] is False
    unbounded = bench_pairs.summarize(runs, {"metric": "lower"})["metric"]
    assert unbounded["bound"] is None and unbounded["beyond_bound"] is False
    from_zero = bench_pairs.summarize(pairs([0, 0], [1, 1]), {"metric": "lower"}, {"metric": 0.1})
    assert from_zero["metric"]["worse_frac"] is None and from_zero["metric"]["beyond_bound"]


def test_a_breach_is_named_but_keeps_exit_zero(bench_pairs, monkeypatch, tmp_path, capsys):
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(tree, workload, seed, seconds):
        metrics = {name: 1.0 for name in names}
        if tree == bench_pairs.ROOT and workload == "dense":
            metrics["cases_per_s"] = 0.5  # half the base's throughput
        return {
            "metrics": metrics,
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "fail_frac": 0.0,
            "src_lines": 1,
        }

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, target: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--workloads", "sweep", "dense", "--seeds", "1", "2", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"]["dense"]["summary"]["cases_per_s"]
    assert summary["worse_frac"] == 0.5 and summary["beyond_bound"] is True
    err = capsys.readouterr().err
    assert err == (
        "beyond bound: dense cases_per_s: median 1 -> 0.5, worse by 50.0%, bound 25%\n"
    )


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(bench_pairs):
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # 9/10 won, median 12 against 10 with a base IQR near 0.2
    change = [12.0] * 9 + [9.0]
    met = bench_pairs.summarize(pairs(base, change), {"metric": "higher"})["metric"]
    assert met["change_wins"] == 9 and met["claim_met"] is True
    lower = bench_pairs.summarize(pairs(change, base), {"metric": "lower"})["metric"]
    assert lower["change_wins"] == 9 and lower["claim_met"] is True
    # 8/10 won by the same gap
    change = [12.0] * 8 + [9.0, 9.0]
    short = bench_pairs.summarize(pairs(base, change), {"metric": "higher"})["metric"]
    assert short["change_wins"] == 8 and short["claim_met"] is False
    # 10/10 won, but the medians differ by less than the base's IQR
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [b + 0.5 for b in base]
    close = bench_pairs.summarize(pairs(base, change), {"metric": "higher"})["metric"]
    assert close["change_wins"] == 10 and close["base_iqr"] == 2
    assert close["claim_met"] is False


def test_a_met_claim_is_named_on_stdout(bench_pairs, monkeypatch, tmp_path, capsys):
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(tree, workload, seed, seconds):
        metrics = {name: 1.0 + seed / 100 for name in names}
        if tree == bench_pairs.ROOT and workload == "dense":
            metrics["cases_per_s"] *= 2
        return {"metrics": metrics, "correct": True, "attempted": 10, "failed": 0,
                "fail_frac": 0.0, "src_lines": 1}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, target: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--workloads", "sweep", "dense", "--seeds", *map(str, range(1, 11)), "--seconds", "1"]
    assert bench_pairs.main([*argv, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("claim")] == ["claim met: dense cases_per_s"]


def test_source_size_is_printed_and_a_changing_tree_exits_one(
    bench_pairs, monkeypatch, tmp_path, capsys
):
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    sizes = {"base": {1: 2543, 2: 2543}, "change": {1: 2513, 2: 2513}}

    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "base"
        return {"metrics": {name: 1.0 for name in names}, "correct": True, "attempted": 10,
                "failed": 0, "fail_frac": 0.0, "src_lines": sizes[side][seed]}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, target: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--workloads", "sweep", "basis", "--seeds", "1", "2", "--seconds", "1"]
    argv += ["--out", str(tmp_path / "bench.json")]
    assert bench_pairs.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "src lines: 2543 -> 2513" and not captured.err
    # the working tree was edited between the runs of seed 1 and seed 2
    sizes["change"][2] = 2515
    assert bench_pairs.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "src lines vary: change 2513, 2515\n"
    assert "src lines:" not in captured.out
    sizes["base"][1] = 2600
    assert bench_pairs.main(argv) == 1
    assert capsys.readouterr().err == (
        "src lines vary: base 2543, 2600\nsrc lines vary: change 2513, 2515\n"
    )
