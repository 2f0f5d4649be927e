"""Self-test of the traced benchmark run.

    python3 -m pytest perfbench/test_selftest.py

Two traced runs of each workload with the same seed must give identical
work counts; layers a workload bypasses must record no work; and the layer
self times must add up to the traced ``wall_s`` within the tracing overhead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent

COUNTS = ["eigen.mu_evals", "renewal.assemblies", "eigen.matvecs", "simulate.events",
          "simulate.rng_calls", "model.jump_integral_calls", "stationary.eta_sweeps"]

BYPASSED = {
    "spectral": ["simulate.events", "stationary.eta_sweeps", "model.jump_integral_calls"],
    "branching": ["eigen.mu_evals", "renewal.assemblies", "stationary.eta_sweeps",
                  "model.jump_integral_calls"],
    "ergodic": ["eigen.mu_evals", "renewal.assemblies", "model.jump_integral_calls"],
    "certify": ["eigen.mu_evals", "renewal.assemblies", "simulate.events",
                "stationary.eta_sweeps"],
}


def traced(workload, seed=7):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_traced_counts(workload):
    first, second = traced(workload), traced(workload)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert all(first[k] == 0 for k in BYPASSED[workload])
    assert any(first[k] > 0 for k in COUNTS)
    for m in (first, second):
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert abs(m["trace.wall_s"] - layers) <= abs(m["trace.overhead_s"])
