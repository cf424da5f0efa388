"""The benchmark's cli-tiny workload end to end: generate, train and eval
through the CLI, then save_dataset, load_dataset, the reference waveform
hash and the bit-identical reload check, the same path its cli-5k run takes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_tiny_workload_passes_every_check():
    result = subprocess.run(
        [sys.executable, "swecbench/run.py", "--workload", "cli-tiny", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
