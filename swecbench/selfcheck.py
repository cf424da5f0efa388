"""Self-check of the benchmark harness on the eight-record tiny workloads.

    python3 swecbench/selfcheck.py

For each tiny workload (compare, placement, cli) it runs the benchmark
untraced once and traced twice, and asserts that
  1. every metric BENCHMARK.json names is printed with its unit;
  2. every count metric is identical across the two traced runs;
  3. the root span's self time plus its child spans add up to the traced
     wall time, within trace.overhead_s.
Exit code 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY = ("compare-tiny", "placement-tiny", "cli-tiny")


def run(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n" \
        + proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    root = next((json.loads(line[5:]) for line in lines if line.startswith("root ")),
                None)
    return result, root


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in TINY:
        plain, _ = run(workload, 0)
        traced = [run(workload, 1) for _ in range(2)]
        for trace, result in ((0, plain), (1, traced[0][0])):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], (
                f"{workload} trace={trace}: metric names or units differ: "
                f"missing {sorted(set(want[trace]) - set(got))}, "
                f"extra {sorted(set(got) - set(want[trace]))}, "
                f"units {[k for k in got if got[k] != want[trace].get(k)]}")
            assert result["correct"] and result["failed"] == 0, result
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r, _ in traced]
        assert counts[0] == counts[1], f"{workload}: counts differ {counts}"
        for result, root in traced:
            wall = result["metrics"]["trace.wall_s"]["value"]
            overhead = abs(result["metrics"]["trace.overhead_s"]["value"])
            covered = root["self"] + root["children"] - root["checks"]
            assert abs(wall - covered) <= overhead, (
                f"{workload}: root self {root['self']:.6f} + children "
                f"{root['children']:.6f} - checks {root['checks']:.6f} vs wall "
                f"{wall:.6f}, overhead {overhead:.6f}")
        print(f"{workload}: ok ({len(want[0])} end-to-end and {len(want[1])} "
              f"per-layer metrics with units; {len(counts[0])} counts repeat; "
              f"root spans cover traced wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
