"""The benchmark runs against this tree: one traced round of each of its
workloads exits 0 and reports every operation correct.  A library change
that breaks a call the benchmark makes, or a check it runs (the study's
slopes; the cell's symmetry, Rayleigh and refinement checks), fails here
first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["study", "cell"])
def test_traced_round_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr[-2000:]
    assert result["failed"] == 0
