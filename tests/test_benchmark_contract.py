"""The benchmark's tiny workloads end to end.

cli-tiny runs generate, train and eval through the CLI, then save_dataset,
load_dataset, the reference waveform hash and the bit-identical reload
check, the same path its cli-5k run takes. The traced compare-tiny and
placement-tiny runs wrap every layer the benchmark binds by name (among them
expharness.extract_window and expharness.featurize), so a renamed or removed
binding fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "swecbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_cli_tiny_workload_passes_every_check():
    result = run_workload("cli-tiny", 0)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


@pytest.mark.parametrize("workload", ["compare-tiny", "placement-tiny"])
def test_traced_tiny_workload_passes_every_check(workload):
    result = run_workload(workload, 1)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert last["metrics"]["featpipe.featurize.calls"]["value"] > 0, last
    assert last["metrics"]["synthgrid.extract_window.us_p50"]["value"] > 0, last
