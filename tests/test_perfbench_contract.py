"""The benchmark's contract with the library, checked in the tier-1 suite.

perfbench/ looks duperm functions up by name and pins the outputs of
its workloads in expected.json.  One traced pass of each benchmarked
workload on the seed-0 inputs must call every function the tracer
requires and reproduce every pinned output.  perfbench/ is only read.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    pinned = json.loads((PERFBENCH / "expected.json").read_text())
    return tracer, workloads, pinned


@pytest.mark.parametrize("name", ["verify-all", "sweep-n10", "field-n20"])
def test_workload_pass_meets_contract(bench, tmp_path, name):
    tracer, workloads, pinned = bench
    seed = workloads.DEFAULT_SEED
    assert pinned["seed"] == seed
    expected = pinned["workloads"][name]
    inputs = workloads.make_inputs(name, seed)
    assert [list(i) for i in inputs] == expected["inputs"]

    trace = tracer.Tracer()
    with trace.installed():
        trace.begin_pass()
        result = workloads.PASSES[name](inputs, tmp_path, trace.mark)
    trace.require(name)
    checked, failed, messages = workloads.check(result.outputs, expected["outputs"], seed)
    assert checked > 0
    assert failed == 0, messages
