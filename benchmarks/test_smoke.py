"""Smoke test of the benchmark itself: every workload on tiny inputs, fixed seed.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that nothing fails at this commit, and that a planted wrong reference
value is counted as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("oracle", "bijection", "cli")
SEED = 7


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--profile", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail: "))[len("detail: "):])
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_no_failures(workload, trace):
    result, detail = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = run.spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(detail["metrics"]) == set(units)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert detail["metrics"]["failed_ratio"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_reference_is_a_failure(workload):
    run.load_program()
    outcome = run.measure(workload, SEED, 0, trace=False, profile="tiny", plant_wrong_reference=True)
    assert outcome["failed"] >= 1, outcome
    assert outcome["metrics"]["failed_ratio"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
