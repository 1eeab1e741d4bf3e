"""Self-test of the benchmark harness on the same workloads at tiny sizes.

n=4 synth and profile, n=3 lean verify and n=4 multicopy with w=2; each is
run once untraced and once traced, so the harness, its checker and its
tracer cannot rot unnoticed.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.TINY_WORKLOADS))
def test_tiny_workload(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)])
    out = run.bench(args, run.TINY_WORKLOADS)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.PER_LAYER if trace else run.END_TO_END)
    ctx = out["context"]
    assert ctx["seed"] == 7 and ctx["inputs_sha256"] and ctx["outputs_sha256"]
    json.dumps(out)


def test_inputs_follow_the_seed():
    w = run.TINY_WORKLOADS["verify-multicopy"]
    assert w.inputs(run.random.Random(3)) == w.inputs(run.random.Random(3))
    assert w.inputs(run.random.Random(3)) != w.inputs(run.random.Random(4))


def _circuit():
    return {
        "layers": [[{"op": "h", "params": [], "qubits": [0]}],
                   [{"op": "cnot", "params": [], "qubits": [0, 1]}]],
        "alloc": [[0, 0, "clean"], [1, 1, "dirty"]],
        "dealloc": [[1, 2]],
        "persistent": [0],
        "registers": {"D": [0]},
    }


def test_checker_counts():
    counts = checker.circuit_counts(_circuit())
    assert (counts["depth"], counts["gates"], counts["sa"], counts["width"]) == (2, 2, 3, 2)
    assert (counts["clean_sa"], counts["dirty_sa"], counts["peak_ancillae"]) == (2, 1, 1)
    assert counts["live"] == [1, 2] and counts["rotation_layers"] == 0


@pytest.mark.parametrize("defect", ["twice_in_layer", "before_alloc", "leak", "bad_arity"])
def test_checker_rejects_broken_circuits(defect):
    doc = _circuit()
    if defect == "twice_in_layer":
        doc["layers"][1].append({"op": "x", "params": [], "qubits": [1]})
    elif defect == "before_alloc":
        doc["layers"][0].append({"op": "x", "params": [], "qubits": [1]})
    elif defect == "leak":
        doc["dealloc"] = []
    else:
        doc["layers"][0][0]["qubits"] = [0, 1]
    with pytest.raises(checker.CheckFailed):
        checker.circuit_counts(doc)


def test_checker_rejects_wrong_reports():
    counts = checker.circuit_counts(_circuit())
    report = {"depth": 2, "size": 2, "sa_exact": 3, "qubit_count": 2, "clean_sa": 2,
              "dirty_sa": 1, "rotation_layers": 0}
    checker.report_matches(report, counts)
    with pytest.raises(checker.CheckFailed):
        checker.report_matches({**report, "sa_exact": 4}, counts)
    sim = {"fidelity": 1.0, "ancilla_verdicts": [[1, 2, 0.0]], "dirty_restoration": [[1, True]],
           "peak_live_qubits": 2}
    checker.simulation_ok(sim, counts)
    for bad in ({"fidelity": 1 - 1e-6}, {"ancilla_verdicts": [[1, 2, 1e-6]]},
                {"dirty_restoration": [[1, False]]}):
        with pytest.raises(checker.CheckFailed):
            checker.simulation_ok({**sim, **bad}, counts)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
