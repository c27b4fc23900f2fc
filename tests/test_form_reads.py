"""``tools/form_reads``: each workload's reads of polynomials made from Fractions.

The tool is a script, not a package module, so it is loaded from its path.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "form_reads.py"


@pytest.fixture(scope="module")
def form_reads():
    spec = importlib.util.spec_from_file_location("form_reads", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_and_the_read_function_is_restored(form_reads):
    cs, workloads = form_reads.load(form_reads.ROOT)
    read = cs.polynomials._form
    for name in workloads.WORKLOADS:
        first = form_reads.counts(cs, workloads, name, 7, tiny=True)
        assert first == form_reads.counts(cs, workloads, name, 7, tiny=True)
        assert set(first) == {"new", "same round", "earlier", "entries"}
        assert all(type(v) is int and v >= 0 for v in first.values())
        assert (first["new"] == 0) == (first["entries"] == 0)
        if name == "basis":  # builds bases only, and reads no form
            assert not any(first.values())
        if name == "sweep":  # its rounds verify constructions of the set-up's seeds
            assert first["earlier"] > 0
    assert cs.polynomials._form is read
