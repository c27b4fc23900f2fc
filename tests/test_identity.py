"""``tools/identity``: the digest lines repeat, and a differing line exits one.

The tool is a script, not a package module, so it is loaded from its path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_repeat_and_a_differing_line_exits_one(identity, capsys):
    cs, workloads = identity.load(identity.ROOT)
    first = identity.digest_lines(cs, workloads, tiny=True)
    assert first == identity.digest_lines(cs, workloads, tiny=True)
    names = [line.rsplit(" ", 1)[0] for line in first]
    expected = [f"{w} seed {s}" for w in workloads.WORKLOADS for s in identity.SEEDS]
    assert names == expected + ["appell m 2..3 k 0..3", "symbols", " ".join(identity.TINY_SUITE),
                                "basis m 2..3 d 0..3 o 1..2", "basis m 3..3 d 6..7 o 1..2",
                                "refusals 4 documents", "kernel m 2..3", "two-sided m 3",
                                "products m 2..3"]
    assert identity.compare(first, first) == 0
    assert capsys.readouterr().err == ""

    key, digest = first[2].rsplit(" ", 1)
    changed = first[:2] + [f"{key} {'0' * len(digest)}"] + first[3:-1]
    assert identity.compare(first, changed) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"differs: {key}: {digest} -> {'0' * len(digest)}",
        f"differs: {names[-1]}: {first[-1].rsplit(' ', 1)[1]} -> missing",
    ]


def test_subcommand_outcomes_repeat_with_their_exit_codes(identity):
    cs, _ = identity.load(identity.ROOT)
    first = identity.subcommand_outcomes(cs)
    assert first == identity.subcommand_outcomes(cs)
    *runs, written = first
    assert [argv for argv, _, _ in runs] == identity.SUBCOMMANDS
    # the constructed document is left monogenic, not right, and D f + f = 2f:
    # deq, cr-right, alphabeta, infrapoly and cr on both sides read a residual
    assert [code for _, code, _ in runs] == [0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1]
    reports = [json.loads(out) for argv, _, out in runs if argv[0] == "verify"]
    counts = [[r["term_count"] for r in report] if isinstance(report, list)
              else report["term_count"] for report in reports]
    assert counts == [0, 2, 2, 0, 2, 2, [0, 2]]
    for argv, _, out in runs:
        # construct writes its document to --out, not to stdout
        expected = "" if argv[0] == "construct" else json.dumps(json.loads(out), indent=2) + "\n"
        assert out == expected
    assert json.loads(written)["terms"]
