"""One repetition of one workload, in its own process.

    python3 swecbench/rep.py --workload compare-20k --seed 3 --trace 0 \
        --work .swecbench_work/rep0 [--reload-check]

The workload config is generated from the seed; the program sees only that
config. The timed region is the workload itself. Correctness hooks run on
the results of `build_dataset`, `split_stratified` and `confusion`; their
time is taken out of `wall_s` and `cpu_s`. The last line of stdout is one
JSON object with the repetition's figures, checks and (traced) layer
metrics. With --trace 1 the spans are also written to `--spans`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from swec import (baselines, cli, expharness, featpipe, metrics,  # noqa: E402
                  synthgrid, tinycnn)

from spans import Probe, Recorder, instrument  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference_hashes.json"
# The experiment seed is the workload seed modulo this; the reference file
# holds the waveform sha256 of every dataset those seeds build.
REFERENCE_SEEDS = 128
DEFAULT_COUNTS = (64, 144, 320, 72)
DEFAULT_TEST_COUNTS = (13, 29, 64, 14)
GATE_SLACK = 0.02
CLASS_TAG = {
    synthgrid.EventClass.CAPACITOR_SWITCHING: "cap",
    synthgrid.EventClass.TRANSFORMER_ENERGIZATION: "xfmr",
    synthgrid.EventClass.FAULT: "fault",
    synthgrid.EventClass.HIF: "hif",
}
LAYERS = ("synthgrid", "featpipe", "tinycnn", "baselines", "metrics",
          "expharness", "cli")


@dataclass(frozen=True)
class Workload:
    flow: str        # "compare", "placement" or "cli"
    fs: float
    tiny: bool = False

    @property
    def counts(self):
        return (2, 2, 2, 2) if self.tiny else DEFAULT_COUNTS

    @property
    def test_counts(self):
        return (1, 1, 1, 1) if self.tiny else DEFAULT_TEST_COUNTS

    @property
    def gated(self) -> bool:
        """Accuracy gates (compare: acc_cnn >= 0.90 and C8; placement: C9)
        apply at full size only."""
        return not self.tiny


WORKLOADS = {
    "compare-20k": Workload("compare", 20000.0),
    "placement-20k": Workload("placement", 20000.0),
    "cli-5k": Workload("cli", 5000.0),
    # Eight-record versions for the harness self-check.
    "compare-tiny": Workload("compare", 4000.0, tiny=True),
    "placement-tiny": Workload("placement", 4000.0, tiny=True),
    "cli-tiny": Workload("cli", 4000.0, tiny=True),
}


def tiny_grids() -> synthgrid.DatasetGrids:
    """Eight-record grid, the same as the test suite's tiny grid."""
    return synthgrid.DatasetGrids(
        cap_sizes=1, cap_angles=2, xfmr_taps=1, xfmr_angles=2,
        fault_types=("LG",), fault_locations=(632,),
        fault_resistances=1, fault_angles=2,
        hif_locations=(632,), hif_angles=2, hif_draws=1,
        declared_counts=(2, 2, 2, 2),
    )


def experiment_config(workload: str, seed: int) -> expharness.ExperimentConfig:
    w = WORKLOADS[workload]
    base = dict(seed=seed % REFERENCE_SEEDS, placement_fs=w.fs, repeats=1)
    if w.tiny:
        base.update(
            train_fraction=0.5, grids=tiny_grids(),
            cnn=tinycnn.TrainConfig(epochs=2),
            tmlp=baselines.MlpConfig(epochs=2),
            svm=baselines.SvmConfig(epochs=5),
            autoencoder=baselines.AeConfig(recon_epochs=2, head_epochs=2),
        )
    return expharness.ExperimentConfig(**base)


def dataset_config(workload: str, seed: int):
    """The dataset config the workload builds (for the reference hashes)."""
    w = WORKLOADS[workload]
    config = experiment_config(workload, seed)
    if w.flow == "cli":
        ds_seed = config.seed
    else:
        ds_seed = expharness.derive_seed(config.seed, 0,
                                         expharness._STAGE_DATASET, w.fs)
    return config.dataset_config(w.fs, ds_seed)


def reference_key(ds_config) -> str:
    return f"{sum(ds_config.grids.counts)}@{ds_config.fs:g}/{ds_config.seed}"


def waveform_sha256(dataset) -> str:
    digest = hashlib.sha256()
    for rec in dataset.records:
        digest.update(np.ascontiguousarray(rec.samples, dtype="<f8"))
    return digest.hexdigest()


def dir_mb(path: Path) -> float:
    if path.is_file():
        return path.stat().st_size / 1e6
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


# ── Correctness hooks ────────────────────────────────────────────────────────

class Checks:
    """Collects check failures. Rep-scope failures fail every operation of
    the repetition; cell-scope failures fail one cell."""

    def __init__(self, workload: Workload, reference: dict):
        self.w = workload
        self.reference = reference
        self.rep_failures: list[str] = []
        self.cell_failures: list[str] = []
        self.confusions: list[np.ndarray] = []
        self.margins: dict[str, float] = {}

    def expect(self, ok: bool, message: str, cell: bool = False) -> None:
        if not ok:
            (self.cell_failures if cell else self.rep_failures).append(message)

    def gate(self, name: str, margin: float, detail: str) -> None:
        """An accuracy gate holds when its margin is >= 0."""
        self.margins[name] = margin
        self.expect(margin >= 0, f"{name} fails: {detail}")

    def build(self, args, kwargs, dataset) -> None:
        counts = tuple(int(np.sum(dataset.labels == c)) for c in (1, 2, 3, 4))
        self.expect(len(dataset) == sum(self.w.counts) and counts == self.w.counts,
                    f"build: {len(dataset)} records, class counts {counts}")
        key = reference_key(dataset.config)
        want = self.reference.get(key)
        self.expect(want is not None and waveform_sha256(dataset) == want,
                    f"build {key}: waveform sha256 differs from the reference")

    def split(self, args, kwargs, split) -> None:
        labels = args[0].labels if isinstance(args[0], synthgrid.Dataset) \
            else np.asarray(args[0])
        counts = tuple(int(np.sum(labels[split.test] == c)) for c in (1, 2, 3, 4))
        self.expect(counts == self.w.test_counts, f"split: test counts {counts}")

    def confusion(self, args, kwargs, cm) -> None:
        self.confusions.append(np.array(cm))
        total = sum(self.w.test_counts)
        targets = tuple(int(v) for v in np.asarray(cm).sum(axis=0))
        self.expect(int(np.sum(cm)) == total and targets == self.w.test_counts,
                    f"confusion: sum {int(np.sum(cm))}, target counts {targets}",
                    cell=True)


def _records(args, kwargs, result):
    return {"records": len(args[1])}


def _train_attrs(args, kwargs, result):
    train_set, cfg = args[1], args[2]
    _, losses = result
    return {"batches": math.ceil(len(train_set) / cfg.batch_size) * cfg.epochs,
            "last_loss": float(losses[-1])}


def bindings(checks: Checks):
    """(container, key, probe) for every place callers look a layer up."""
    sg, fp, tc, bl, mt, ex = synthgrid, featpipe, tinycnn, baselines, metrics, expharness
    table = [
        ([(sg, "synth_event")], Probe(
            lambda a, k: "synthgrid.synth_event." + CLASS_TAG[a[0].event_class])),
        ([(sg, "build_dataset"), (ex, "build_dataset")], Probe(
            "synthgrid.build_dataset", attrs=lambda a, k, r: {"records": len(r)},
            hook=checks.build)),
        ([(sg, "extract_window"), (ex, "extract_window")],
         Probe("synthgrid.extract_window")),
        ([(sg, "save_dataset")], Probe("synthgrid.save_dataset",
                                       attrs=lambda a, k, r: {"path": str(r)})),
        ([(sg, "load_dataset")], Probe("synthgrid.load_dataset")),
        ([(fp, "featurize"), (ex, "featurize")], Probe("featpipe.featurize")),
        ([(tc, "train")], Probe("tinycnn.train", attrs=_train_attrs)),
        ([(tc, "predict_batch")], Probe("tinycnn.predict_batch", attrs=_records)),
        ([(tc, "save_model"), (ex._MODEL_SAVERS, "cnn")],
         Probe("tinycnn.save_model")),
        ([(tc, "load_model"), (ex._MODEL_LOADERS, "cnn")],
         Probe("tinycnn.load_model")),
        ([(mt, "confusion")], Probe("metrics.confusion", hook=checks.confusion)),
        ([(mt, "aggregate")], Probe("metrics.aggregate")),
        ([(mt, "report_rows")], Probe("metrics.report_rows")),
        ([(ex, "split_stratified")], Probe("expharness.split_stratified",
                                           hook=checks.split)),
        ([(ex, "featurize_dataset")], Probe("expharness.featurize_dataset")),
        ([(ex, "write_comparison_run")], Probe("expharness.write_comparison_run")),
        ([(ex, "sweep_placement")], Probe("expharness.sweep_placement")),
        ([(ex, "save_report")], Probe("expharness.save_report")),
    ]
    for name in ("train_svm_ovr", "train_tmlp", "train_autoencoder_clf",
                 "energy_feature_set", "flatten_features"):
        table.append(([(bl, name)], Probe(f"baselines.{name}")))
    for name in ("svm_predict", "tmlp_predict", "ae_predict"):
        table.append(([(bl, name)], Probe(f"baselines.{name}", attrs=_records)))
    return [(c, k, probe) for places, probe in table for c, k in places]


# ── Workload flows ───────────────────────────────────────────────────────────
# Each flow has a timed part and a post part (outside the timed region) that
# returns the per-method accuracies and the bytes the run wrote.

def _compare_post(work, w, checks):
    out = work / "compare"
    manifest = json.loads((out / "manifest.json").read_text())
    results = manifest["results"]
    acc = {m: r["mean_accuracy"] for m, r in results.items()}
    shared = {tuple(r["fingerprints"]) for r in results.values()}
    checks.expect(len(shared) == 1, f"compare: {len(shared)} split fingerprints")
    if w.gated:
        checks.gate("acc_cnn>=0.90", acc["cnn"] - 0.90, f"acc_cnn {acc['cnn']:.4f}")
        checks.gate("C8", min(acc["cnn"] - acc["tmlp"], acc["tmlp"] - acc["svm"])
                    + GATE_SLACK,
                    " ".join(f"{m}={acc[m]:.4f}" for m in ("cnn", "tmlp", "svm")))
    return acc, dir_mb(out)


def _placement_post(work, w, checks, rows):
    by_key = {r.key: r.mean_accuracy for r in rows}
    if w.gated:
        full = by_key[tuple(synthgrid.MONITORED_BUSES)]
        singles = {k: v for k, v in by_key.items() if len(k) == 1}
        checks.gate("C9", full - max(singles.values()) + GATE_SLACK,
                    f"three-bus {full:.4f} vs singles {singles}")
    return {"cnn": float(np.mean(list(by_key.values())))}, dir_mb(work / "placement.csv")


def run_flow(w: Workload, config, work: Path, rec: Recorder, checks: Checks):
    """Timed part of the workload; returns a callable for the post part."""
    if w.flow == "compare":
        expharness.write_comparison_run(config, work / "compare")
        return lambda: _compare_post(work, w, checks)
    if w.flow == "placement":
        rows = expharness.sweep_placement(config)
        expharness.save_report(expharness.sweep_rows(rows, "buses"),
                               work / "placement.csv")
        return lambda: _placement_post(work, w, checks, rows)
    cfg_path, ds, model = work / "config.json", work / "ds", work / "cnn.bin"
    commands = [
        ["generate", "--config", str(cfg_path), "--out", str(ds), "--fs", f"{w.fs:g}"],
        ["train", "--config", str(cfg_path), "--data", str(ds), "--model", str(model)],
        ["eval", "--config", str(cfg_path), "--data", str(ds), "--model", str(model)],
    ]
    codes = []
    for argv in commands:
        ctx = rec.span(f"cli.main.{argv[0]}") if rec.enabled else contextlib.nullcontext()
        with ctx, contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))

    def post():
        for argv, code in zip(commands, codes):
            checks.expect(code == 0, f"cli {argv[0]}: exit code {code}", cell=True)
        cm = checks.confusions[-1] if checks.confusions else np.zeros((4, 4))
        acc = float(np.trace(cm) / max(np.sum(cm), 1))
        return {"cnn": acc}, dir_mb(ds) + dir_mb(model)
    return post


def reload_check(w: Workload, config, work: Path, checks: Checks) -> None:
    """The saved dataset must reload bit for bit equal to a fresh build."""
    loaded = synthgrid.load_dataset(work / "ds")
    fresh = synthgrid.build_dataset(config.dataset_config(w.fs, config.seed))
    same = len(loaded) == len(fresh) and all(
        a.samples.shape == b.samples.shape
        and a.samples.tobytes() == b.samples.tobytes()
        for a, b in zip(loaded.records, fresh.records))
    checks.expect(same, "cli reload: waveforms differ from a fresh build_dataset")


# ── Per-layer metrics from spans ─────────────────────────────────────────────

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    ok = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    return ok[-1] if ok else 50.0


def layer_metrics(rec: Recorder, wall: float) -> dict:
    spans, selfs = rec.spans, rec.self_times()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durs(name):
        return np.array([s.duration for s in by_name.get(name, ())])

    def total(name):
        return float(durs(name).sum())

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def per_record_us(name):
        n = attr_sum(name, "records")
        return total(name) * 1e6 / n if n else 0.0

    def dist(prefix, d, scale, unit):
        n = len(d)
        p = tail_percentile(n)
        return {
            f"{prefix}.{unit}_p50": (float(np.percentile(d, 50)) * scale if n else 0.0, unit),
            f"{prefix}.{unit}_tail": (float(np.percentile(d, p)) * scale if n else 0.0, unit),
            f"{prefix}.tail_pct": (p, "pct"),
            f"{prefix}.n": (n, "count"),
        }

    m: dict[str, tuple] = {}
    for tag in CLASS_TAG.values():
        m.update(dist(f"synthgrid.synth_event.{tag}",
                      durs(f"synthgrid.synth_event.{tag}"), 1e3, "ms"))
    m["synthgrid.build_dataset.s"] = (total("synthgrid.build_dataset"), "s")
    m["synthgrid.build_dataset.records"] = (
        attr_sum("synthgrid.build_dataset", "records"), "count")
    ew = durs("synthgrid.extract_window")
    m["synthgrid.extract_window.us_p50"] = (
        float(np.percentile(ew, 50)) * 1e6 if len(ew) else 0.0, "us")
    m["synthgrid.save_dataset.s"] = (total("synthgrid.save_dataset"), "s")
    m["synthgrid.save_dataset.mb"] = (sum(
        dir_mb(Path(s.attrs["path"])) for s in by_name.get("synthgrid.save_dataset", ())),
        "MB")
    m["synthgrid.load_dataset.s"] = (total("synthgrid.load_dataset"), "s")
    m["synthgrid.load_dataset.calls"] = (len(by_name.get("synthgrid.load_dataset", ())),
                                         "count")
    fz = dist("featpipe.featurize", durs("featpipe.featurize"), 1e6, "us")
    fz["featpipe.featurize.calls"] = fz.pop("featpipe.featurize.n")
    m.update(fz)

    batches = attr_sum("tinycnn.train", "batches")
    losses = [s.attrs["last_loss"] for s in by_name.get("tinycnn.train", ())]
    m["tinycnn.train.s"] = (total("tinycnn.train"), "s")
    m["tinycnn.train.batches"] = (batches, "count")
    m["tinycnn.train.ms_per_batch"] = (
        total("tinycnn.train") * 1e3 / batches if batches else 0.0, "ms")
    m["tinycnn.train.last_loss"] = (float(np.mean(losses)) if losses else 0.0, "nats")
    m["tinycnn.predict_batch.us_per_record"] = (
        per_record_us("tinycnn.predict_batch"), "us")
    m["tinycnn.save_model.s"] = (total("tinycnn.save_model"), "s")
    m["tinycnn.load_model.s"] = (total("tinycnn.load_model"), "s")

    for name in ("train_svm_ovr", "train_tmlp", "train_autoencoder_clf",
                 "energy_feature_set", "flatten_features"):
        m[f"baselines.{name}.s"] = (total(f"baselines.{name}"), "s")
    for short, name in (("svm", "svm_predict"), ("tmlp", "tmlp_predict"),
                        ("ae", "ae_predict")):
        m[f"baselines.{short}_predict.us_per_record"] = (
            per_record_us(f"baselines.{name}"), "us")

    m["metrics.s"] = (sum(total(f"metrics.{n}")
                          for n in ("confusion", "aggregate", "report_rows")), "s")
    m["expharness.split_stratified.s"] = (total("expharness.split_stratified"), "s")
    m["expharness.featurize_dataset.s"] = (total("expharness.featurize_dataset"), "s")
    for cmd in ("generate", "train", "eval"):
        m[f"cli.main.{cmd}.s"] = (total(f"cli.main.{cmd}"), "s")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, self_s in zip(spans, selfs):
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    for layer in LAYERS:
        if layer in ("expharness", "cli"):
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.share"] = (layer_self[layer] / wall, "fraction")
    io_s = total("synthgrid.save_dataset") + total("synthgrid.load_dataset")
    m["synthgrid.io_share"] = (io_s / wall, "fraction")
    m["trace.spans"] = (len(spans), "count")
    return m


# ── One repetition ───────────────────────────────────────────────────────────

def run_rep(workload: str, seed: int, trace: bool, work: Path,
            reload: bool = False, spans_path: Path | None = None) -> dict:
    w = WORKLOADS[workload]
    config = experiment_config(workload, seed)
    reference = json.loads(REFERENCE_FILE.read_text())
    work.mkdir(parents=True, exist_ok=True)
    if w.flow == "cli":
        (work / "config.json").write_text(
            json.dumps(expharness.config_to_json(config)))
    checks = Checks(w, reference)
    rec = Recorder(run_id=f"{workload}/seed{seed}", enabled=trace)
    ops = {"compare": len(config.methods), "placement": len(config.bus_subsets),
           "cli": 3}[w.flow]
    post = None
    with instrument(rec, bindings(checks)):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            if trace:
                with rec.span("rep"):
                    post = run_flow(w, config, work, rec, checks)
            else:
                post = run_flow(w, config, work, rec, checks)
        except Exception as exc:  # a failed operation is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            checks.expect(False, f"exception: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - wall0 - rec.hook_wall
        cpu = time.process_time() - cpu0 - rec.hook_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    acc, disk = {}, 0.0
    post0 = time.perf_counter()
    if post is not None:
        try:
            acc, disk = post()
            if reload and w.flow == "cli":
                reload_check(w, config, work, checks)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            checks.expect(False, f"post-run check: {type(exc).__name__}: {exc}")
    failed = ops if checks.rep_failures else min(ops, len(checks.cell_failures))
    result = {
        "workload": workload, "seed": seed, "config_seed": config.seed,
        "trace": trace, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "disk_mb": disk, "acc": acc, "attempted": ops, "failed": failed,
        "failures": checks.rep_failures + checks.cell_failures,
        "margins": checks.margins, "post_s": time.perf_counter() - post0,
    }
    if trace:
        root = rec.spans[0]  # the "rep" span, opened first
        result["root"] = {
            "duration": root.duration,
            "self": rec.self_times()[0],
            "children": sum(s.duration for s in rec.spans if s.parent == 0),
            "checks": rec.hook_wall,
        }
        result["layers"] = layer_metrics(rec, wall)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(rec.to_json()))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--reload-check", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    result = run_rep(args.workload, args.seed, bool(args.trace), Path(args.work),
                     reload=args.reload_check,
                     spans_path=Path(args.spans) if args.spans else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
