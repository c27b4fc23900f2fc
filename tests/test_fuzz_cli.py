"""The command line's exit contract on mutated documents.

Valid ``construct``, ``verify --op cr-left|deq|lame`` and ``dsolve``
documents are mutated: a node is swapped for a stray leaf (None, a bool, a
float, ``"1/0"``, ``"1e5"``, a list, an object, 2^64), a field is deleted or
added, or a list entry is duplicated.  Each mutated document runs through
``cli.main`` in process.  Every exit is 0 (a zero residual or a document
written), 1 (a nonzero residual) or 2 (bad input); an exit of 2 writes
nothing on stdout and exactly one line on stderr, with no traceback.  An
exception out of ``main`` fails the test with its traceback.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from cliffsteer.cli import main
from cliffsteer.steering import construct_eigen, construct_exp_left
from helpers import e, ymono

M = 4
X2 = ymono(M, {2: 1}, e(M, 2) * 2 + e(M, 1, 3))
X2X3 = ymono(M, {2: 1, 3: 1}, 3)
ONE = ymono(M, {}, e(M, 2, 4))

# (id, argv, document); a spec file stands for the document where argv names one
CASES = [
    ("construct-exp", ["construct", "--family", "exp", "--n", "2"], X2.to_obj()),
    ("construct-trig", ["construct", "--family", "trig", "--n", "1"],
     {"a1": X2.to_obj(), "b1": X2X3.to_obj()}),
    ("construct-power", ["construct", "--family", "power", "--n", "1"],
     {"seeds": [ONE.to_obj(), X2.to_obj()]}),
    ("verify-cr-left", ["verify", "--op", "cr-left", "--n", "1"],
     construct_exp_left(X2X3, 1).to_obj()),
    ("verify-deq", ["verify", "--op", "deq", "--coeffs", "1,2"],
     construct_eigen(-2, X2).to_obj()),
    ("verify-lame", ["verify", "--op", "lame", "--mu", "1", "--lambda", "2"],
     construct_exp_left(X2, 1).to_obj()),
    ("dsolve", ["dsolve", "--coeffs", "1,0,-1", "--spec-file"],
     {"m": M, "roots": [
         {"root": "1", "multiplicity": 1, "harmonic_seed": X2X3.to_obj()},
         {"root": "-1", "monogenic_seeds": [ONE.to_obj()]},
     ]}),
]

LEAVES = [None, True, False, 0.5, -3.0, "1/0", "1e5", "", [], {}, [1], {"x": 1},
          2**64, -(2**64), 0, -1]


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def run(argv, doc, spec_path):
    text = json.dumps(doc)
    if argv[-1] == "--spec-file":
        spec_path.write_text(text)
        argv = argv + [str(spec_path)]
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def mutate(doc, data):
    """``doc`` with one node swapped, deleted, given a field or duplicated."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    ops = ["leaf"] + ["delete"] * bool(path)
    ops += ["add"] * isinstance(node, dict) + ["duplicate"] * bool(isinstance(node, list) and node)
    op = data.draw(st.sampled_from(ops))
    if op == "add":
        node[data.draw(st.sampled_from(["extra", "m", "terms", "coef", "rate"]))] = (
            copy.deepcopy(data.draw(st.sampled_from(LEAVES))))
    elif op == "duplicate":
        node.append(copy.deepcopy(node[data.draw(st.integers(0, len(node) - 1))]))
    elif op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(LEAVES)))
    else:
        return copy.deepcopy(data.draw(st.sampled_from(LEAVES)))
    return doc


@pytest.mark.parametrize("argv, doc", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_the_documents_are_valid(argv, doc, spec_path):
    code, out, err = run(argv, doc, spec_path)
    assert (code, err) == (0, "") and out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_exit_keeps_the_contract(data, spec_path):
    _, argv, doc = data.draw(st.sampled_from(CASES))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data)
    code, out, err = run(argv, doc, spec_path)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    else:
        assert err == "" and out
