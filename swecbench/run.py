"""swec benchmark: time the lab's table-producing runs end to end and by layer.

    python3 swecbench/run.py --workload compare-20k --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout (the program is imported from
./src). Each repetition runs in a fresh interpreter, as one batch job, with
the BLAS thread count the environment gives and SWEC_THREADS as set.

--trace 0 repeats the workload untraced while the next repetition still
fits in --seconds (at least once) and reports the end-to-end metrics as
medians over repetitions. --trace 1 runs one untraced and one traced
repetition on the same inputs and reports the per-layer metrics of the
traced one; trace.overhead_s is the difference of their wall times.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Exit code 1 when a
correctness check failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".swecbench_work"
SPANS_DIR = ROOT / ".swecbench_spans"
BASELINE_FILE = BENCH_DIR / "baseline" / "seed.json"
SETUP_SAMPLES = 7
REP_TIMEOUT_S = 170
# Repetition-invariant outputs; a difference between repetitions is a
# determinism failure.
INVARIANTS = ("disk_mb", "acc")

# time.monotonic is CLOCK_MONOTONIC, one clock for all processes on Linux,
# so the child's reading marks the end of set-up, before interpreter exit.
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import rep; "
    "rep.experiment_config({workload!r}, {seed}); import time; print(time.monotonic())"
)


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count through ctypes."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "swec_threads": os.environ.get("SWEC_THREADS"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to swec imported and config built."""
    code = SETUP_CODE.format(src=str(ROOT / "src"), bench=str(BENCH_DIR),
                             workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        times.append(float(out) - t0)
    return statistics.median(times)


def run_rep(workload: str, seed: int, trace: bool, index: int,
            reload: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--work", str(WORK_DIR / f"rep{index}")]
    if reload:
        cmd.append("--reload-check")
    if trace:
        cmd += ["--spans", str(SPANS_DIR / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    shutil.rmtree(WORK_DIR / f"rep{index}", ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"repetition {index} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_metrics(metrics: dict, baseline: dict) -> None:
    for name, m in metrics.items():
        ref = baseline.get(name)
        note = f"   (seed-commit median {ref['value']:.6g})" if ref else ""
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="swec benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "swec" / "__init__.py").is_file():
        print(f"error: no swec sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rep  # noqa: E402  (imports swec from ./src)
    if args.workload not in rep.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed)))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    reps = []
    try:
        if args.trace:
            reps.append(run_rep(args.workload, args.seed, False, 0))
            reps.append(run_rep(args.workload, args.seed, True, 1))
        else:
            setup_s = measure_setup(args.workload, args.seed)
            # Repeat while the next repetition is expected to end within
            # --seconds; post-run checks do not count against the budget.
            start, checks_s = time.perf_counter(), 0.0
            while True:
                reps.append(run_rep(args.workload, args.seed, False, len(reps),
                                    reload=not reps))
                checks_s += reps[-1]["post_s"]
                elapsed = time.perf_counter() - start - checks_s
                if elapsed + elapsed / len(reps) > args.seconds:
                    break
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failures = [f for r in reps for f in r["failures"]]
    for key in INVARIANTS:
        values = {json.dumps(r[key], sort_keys=True) for r in reps}
        if len(values) > 1:
            failures.append(f"determinism: {key} differs between repetitions: "
                            f"{sorted(values)}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failures and not failed:
        failed = reps[0]["attempted"]
    for r in reps:
        print(f"rep trace={int(r['trace'])} wall_s={r['wall_s']:.4f} "
              f"cpu_s={r['cpu_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.2f} "
              f"acc={json.dumps(r['acc'], sort_keys=True)} gate_margins="
              + json.dumps(r["margins"]))

    if args.trace:
        untraced, traced = reps
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in traced["layers"].items()}
        for method in ("svm", "tmlp", "autoencoder"):
            metrics[f"acc_{method}"] = {"value": traced["acc"].get(method, 0.0),
                                        "unit": "fraction"}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
        print("root " + json.dumps(traced["root"]))
    else:
        first = reps[0]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                            "unit": "MB"},
            "disk_mb": {"value": first["disk_mb"], "unit": "MB"},
            "acc_cnn": {"value": first["acc"].get("cnn", 0.0), "unit": "fraction"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
        for method in ("svm", "tmlp", "autoencoder"):
            if method in first["acc"]:
                print(f"acc_{method} {first['acc'][method]:.6g} fraction")
        print(f"error_rate {failed / attempted:.6g} fraction "
              f"({failed} of {attempted} operations)")

    baseline = {}
    if BASELINE_FILE.is_file():
        baseline = json.loads(BASELINE_FILE.read_text()).get(args.workload, {})
    print(f"metrics ({args.workload}, seed {args.seed}, {len(reps)} repetitions):")
    _print_metrics(metrics, baseline)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
