"""Experiment orchestration: dataset builds, stratified splits, sweeps.

A run is fully determined by an ExperimentConfig plus its seed: every stage
(dataset generation, splitting, training) draws its own seed from the global
one through a fixed derivation, so sweep cells can execute in any order and
still assemble the same tables, and two executions of the same comparison
write byte-identical artifacts.

The four methods sit behind one table (METHOD_TABLE): per method, the input
features it derives from the stacked feature matrices, its trainer and its
predictor. Comparisons, sweeps and the command line all train and evaluate
through fit_method and evaluate_method, in one (repeat, fs, buses, method)
grid (run_grid) whose results the comparison and both sweeps group into
rows. Each (repeat, fs) builds one dataset, featurizes it once over the
union of the subsets' buses and drops it before any cell trains; each bus
subset takes its rows of those features, and all its methods see the same
train/test index sets; the split fingerprint recorded per run makes that
checkable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, metrics, synthgrid, tinycnn
from .featpipe import featurize
from .synthgrid import (NUM_CLASSES, ConfigError, Dataset, DatasetConfig,
                        DatasetGrids, MONITORED_BUSES, build_dataset,
                        dataclass_from_json, dataclass_to_json, extract_window)

DEFAULT_BUS_SUBSETS = (
    (675,), (671,), (632,),
    (632, 671), (671, 675), (632, 675),
    (632, 671, 675),
)
DEFAULT_FS_LIST = (1250.0, 2500.0, 5000.0, 10000.0, 20000.0)


class Method(NamedTuple):
    """How one classifier is trained and queried. Its trainer config is the
    ExperimentConfig field named after the method."""

    inputs: Callable   # (config, (N, H, W) features) -> model input
    fit: Callable      # (inputs, labels, trainer config) -> (model, epoch losses)
    predict: Callable  # (model, inputs) -> class codes


def _energy(config, xs):
    return baselines.energy_feature_set(xs, config.num_intervals)


def _fit_cnn(xs, labels, cfg):
    arch = tinycnn.CnnArch(*xs.shape[1:])
    model = tinycnn.init_model(arch, cfg.seed, cfg.init_std)
    return tinycnn.train(model, list(zip(xs, labels)), cfg)


# The entries look the trainers and predictors up on their modules at call
# time. The baseline trainers keep no per-epoch loss trace. The order fixes
# each method's training seed and the default comparison order.
METHOD_TABLE = {
    "autoencoder": Method(
        _energy,
        lambda x, y, cfg: (baselines.train_autoencoder_clf(x, y, cfg), []),
        lambda model, x: baselines.ae_predict(model, x)),
    "svm": Method(
        _energy,
        lambda x, y, cfg: (baselines.train_svm_ovr(x, y, cfg), []),
        lambda model, x: baselines.svm_predict(model, x)),
    "tmlp": Method(
        lambda config, xs: baselines.flatten_features(xs),
        lambda x, y, cfg: (baselines.train_tmlp(x, y, cfg), []),
        lambda model, x: baselines.tmlp_predict(model, x)),
    "cnn": Method(
        lambda config, xs: xs,
        _fit_cnn,
        lambda model, x: tinycnn.predict_batch(model, x)),
}
METHODS = tuple(METHOD_TABLE)

_STAGE_DATASET = 1
_STAGE_SPLIT = 2
_STAGE_TRAIN = 3


class PipelineError(RuntimeError):
    """Stage failure wrapper; str(err) names the failing stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    fs_list: tuple = DEFAULT_FS_LIST
    placement_fs: float = 20000.0
    bus_subsets: tuple = DEFAULT_BUS_SUBSETS
    train_fraction: float = 0.8
    snr_db: float = synthgrid.DEFAULT_SNR_DB
    duration: float = synthgrid.DEFAULT_DURATION
    event_time: float = synthgrid.DEFAULT_EVENT_TIME
    amplitude: float = 1.0
    jitter: bool = True
    methods: tuple = METHODS
    repeats: int = 3
    num_intervals: int = 8
    grids: DatasetGrids = field(default_factory=DatasetGrids)
    cnn: tinycnn.TrainConfig = field(default_factory=tinycnn.TrainConfig)
    tmlp: baselines.MlpConfig = field(default_factory=baselines.MlpConfig)
    svm: baselines.SvmConfig = field(default_factory=baselines.SvmConfig)
    autoencoder: baselines.AeConfig = field(default_factory=baselines.AeConfig)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train fraction {self.train_fraction} outside (0, 1)")
        if not self.fs_list:
            raise ConfigError("fs list must be non-empty")
        if len(set(self.fs_list)) < len(self.fs_list):
            raise ConfigError(f"fs list {self.fs_list} repeats a rate")
        if not self.bus_subsets:
            raise ConfigError("bus subsets must be non-empty")
        seen = set()
        for subset in self.bus_subsets:
            key = tuple(sorted(subset))
            if key in seen:
                raise ConfigError(f"duplicate bus subset {subset}")
            seen.add(key)
            if not subset or not set(subset) <= set(MONITORED_BUSES):
                raise ConfigError(
                    f"bus subset {subset} not a non-empty subset of {MONITORED_BUSES}"
                )
            for i, bus in enumerate(subset):
                if bus in subset[:i]:
                    raise ConfigError(f"bus subset {subset} repeats bus {bus}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods {self.methods} repeat a method")
        for m in METHODS:
            if (seed := getattr(self, m).seed) != 0:
                raise ConfigError(f"{m}.seed {seed}: trainer seeds derive from the "
                                  f"top-level seed; set seed instead")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        self.dataset_config(self.placement_fs, self.seed)  # checks the dataset fields

    def dataset_config(self, fs: float, seed: int) -> DatasetConfig:
        return DatasetConfig(
            fs=fs, seed=seed, snr_db=self.snr_db, duration=self.duration,
            event_time=self.event_time, amplitude=self.amplitude, grids=self.grids,
        )


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer coordinates (stage, repeat, fs, ...)."""
    entropy = [int(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# ── Config file round trip ───────────────────────────────────────────────────

def config_to_json(config: ExperimentConfig) -> dict:
    return dataclass_to_json(config)


def config_from_json(obj) -> ExperimentConfig:
    """Build a config from a JSON document; every field optional, unknown
    keys and wrong value types rejected with the dotted field name."""
    return dataclass_from_json(ExperimentConfig, obj)


def load_config(path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return config_from_json(obj)


# ── Stratified split ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SplitIndex:
    train: np.ndarray
    test: np.ndarray

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(np.asarray(self.train, dtype="<i8").tobytes())
        digest.update(b"|")
        digest.update(np.asarray(self.test, dtype="<i8").tobytes())
        return digest.hexdigest()[:16]


def largest_remainder_counts(class_counts, fraction: float) -> list[int]:
    """Apportion round(fraction * total) slots over classes by quota floors
    plus largest remainders (ties to the lower class index)."""
    quotas = [fraction * c for c in class_counts]
    total = int(math.floor(fraction * sum(class_counts) + 0.5))
    base = [int(math.floor(q)) for q in quotas]
    seats = total - sum(base)
    order = sorted(range(len(quotas)),
                   key=lambda i: (-(quotas[i] - base[i]), i))
    out = list(base)
    for i in range(seats):
        out[order[i % len(order)]] += 1
    return out


def split_stratified(dataset, train_fraction: float, seed: int) -> SplitIndex:
    """Per-class seeded shuffle; test sizes by largest-remainder apportionment."""
    labels = dataset.labels if isinstance(dataset, Dataset) else np.asarray(dataset)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train fraction {train_fraction} outside (0, 1)")
    class_codes = list(range(1, NUM_CLASSES + 1))
    counts = [int(np.sum(labels == c)) for c in class_codes]
    empty = [c for c, n in zip(class_codes, counts) if n == 0]
    if empty:
        raise ConfigError(f"classes {empty} have no records")
    test_counts = largest_remainder_counts(counts, 1.0 - train_fraction)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c, n_test in zip(class_codes, test_counts):
        members = np.flatnonzero(labels == c)
        perm = rng.permutation(members)
        test_idx.extend(perm[:n_test])
        train_idx.extend(perm[n_test:])
    return SplitIndex(np.sort(np.array(train_idx, dtype=int)),
                      np.sort(np.array(test_idx, dtype=int)))


# ── Pipeline ─────────────────────────────────────────────────────────────────

@dataclass
class RunResult:
    method: str
    fs: float
    buses: tuple
    repeat: int
    accuracy: float
    report: metrics.MetricsReport
    cm: np.ndarray
    fingerprint: str
    model: object


class Features(NamedTuple):
    values: np.ndarray  # (N, buses, W) float64, one feature matrix per record
    labels: np.ndarray  # (N,) class codes


def featurize_dataset(dataset: Dataset, buses, jitter: bool = True) -> Features:
    """Window and featurize every record, stacked in record order."""
    values = [featurize(extract_window(rec, jitter=jitter), buses)
              for rec in dataset.records]
    return Features(np.stack(values), dataset.labels)


def _build(config: ExperimentConfig, fs: float, repeat: int) -> Dataset:
    try:
        ds_seed = derive_seed(config.seed, repeat, _STAGE_DATASET, fs)
        return build_dataset(config.dataset_config(fs, ds_seed))
    except Exception as exc:
        raise PipelineError("dataset", exc) from exc


def features_and_split(config: ExperimentConfig, dataset: Dataset, buses,
                       repeat: int = 0):
    """Features of every record plus the repeat's stratified split."""
    try:
        features = featurize_dataset(dataset, buses, jitter=config.jitter)
    except Exception as exc:
        raise PipelineError("featurize", exc) from exc
    try:
        split_seed = derive_seed(config.seed, repeat, _STAGE_SPLIT)
        split = split_stratified(dataset, config.train_fraction, split_seed)
    except Exception as exc:
        raise PipelineError("split", exc) from exc
    return features, split


def _subset(features: Features, index):
    return features.values[index], features.labels[index]


def fit_method(config: ExperimentConfig, method: str, features, split: SplitIndex,
               repeat: int = 0):
    """Train one method on the split's training records with the repeat's
    seed; returns (model, per-epoch losses)."""
    xs, labels = _subset(features, split.train)
    seed = derive_seed(config.seed, repeat, _STAGE_TRAIN, METHODS.index(method))
    m = METHOD_TABLE[method]
    try:
        return m.fit(m.inputs(config, xs), labels,
                     replace(getattr(config, method), seed=seed))
    except Exception as exc:
        raise PipelineError(f"train[{method}]", exc) from exc


def evaluate_method(config: ExperimentConfig, method: str, model, features,
                    split: SplitIndex):
    """Metrics report and confusion matrix on the split's test records."""
    xs, labels = _subset(features, split.test)
    m = METHOD_TABLE[method]
    try:
        cm = metrics.confusion(m.predict(model, m.inputs(config, xs)), labels)
        return metrics.aggregate(cm), cm
    except Exception as exc:
        raise PipelineError("evaluate", exc) from exc


def run_grid(config: ExperimentConfig, fs_list, bus_subsets, methods) -> list[RunResult]:
    """Every (repeat, fs, buses, method) cell, repeats outermost. Each
    (repeat, fs) featurizes its dataset once over the union of the subsets'
    buses, and the dataset is dropped before any cell trains. A subset's
    features are its rows of that array; its methods share them and the
    (repeat, fs) split."""
    watched = sorted(set().union(*bus_subsets))
    results = []
    for repeat in range(config.repeats):
        for fs in fs_list:
            features, split = features_and_split(
                config, _build(config, fs, repeat), watched, repeat)
            for buses in bus_subsets:
                # take() keeps the rows C-contiguous, as featurize stacks them
                rows = [watched.index(b) for b in sorted(buses)]
                cell = Features(features.values.take(rows, axis=1), features.labels)
                for method in methods:
                    model, _ = fit_method(config, method, cell, split, repeat)
                    report, cm = evaluate_method(config, method, model, cell, split)
                    results.append(RunResult(method, fs, tuple(buses), repeat,
                                             report.accuracy, report, cm,
                                             split.fingerprint(), model))
    return results


@dataclass
class Row:
    """The runs of one rate, bus subset or method, in repeat order."""

    key: object
    runs: list

    @property
    def accuracies(self) -> list:
        return [r.accuracy for r in self.runs]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    def mean_macro(self, attr: str) -> float | None:
        vals = [getattr(r.report, attr) for r in self.runs]
        defined = [v for v in vals if v is not None]
        return float(np.mean(defined)) if defined else None


def _rows(results: list[RunResult], key: Callable) -> list[Row]:
    """results grouped by key(result), keys in order of first appearance."""
    rows = {}
    for r in results:
        rows.setdefault(key(r), Row(key(r), [])).runs.append(r)
    return list(rows.values())


def sweep_sampling_rate(config: ExperimentConfig) -> list[Row]:
    """Accuracy per sampling rate (all monitored buses, convolutional model),
    over the configured repeats. Rows ascend in rate."""
    if len(config.fs_list) < 2:
        raise ConfigError("sampling-rate sweep needs at least 2 rates")
    results = run_grid(config, sorted(config.fs_list), [MONITORED_BUSES], ["cnn"])
    return _rows(results, lambda r: r.fs)


def sweep_placement(config: ExperimentConfig) -> list[Row]:
    """Accuracy per sensor subset at the placement-study sampling rate, rows
    in the config's subset order."""
    results = run_grid(config, [config.placement_fs], config.bus_subsets, ["cnn"])
    return _rows(results, lambda r: r.buses)


def compare_methods(config: ExperimentConfig) -> list[Row]:
    """All configured methods at the placement-study rate on all monitored
    buses, on identical splits and features per repeat."""
    if len(config.methods) < 2:
        raise ConfigError("comparison needs at least 2 methods")
    results = run_grid(config, [config.placement_fs], [MONITORED_BUSES], config.methods)
    return _rows(results, lambda r: r.method)


# ── Artifact persistence ─────────────────────────────────────────────────────

_MODEL_SAVERS = {
    "cnn": tinycnn.save_model,
    "svm": baselines.save_svm,
    "tmlp": baselines.save_tmlp,
    "autoencoder": baselines.save_autoencoder,
}

_MODEL_LOADERS = {
    "cnn": tinycnn.load_model,
    "svm": baselines.load_svm,
    "tmlp": baselines.load_tmlp,
    "autoencoder": baselines.load_autoencoder,
}


def save_model(method: str, model, path) -> None:
    _MODEL_SAVERS[method](model, path)


def load_model(method: str, path):
    return _MODEL_LOADERS[method](path)


def save_report(rows, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def load_report(path) -> list[list[str]]:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as exc:
        raise ValueError(f"{path}: cannot read report: {exc}") from exc


def comparison_rows(comparisons: list[Row]) -> list[list[str]]:
    """Method-by-metric summary table (repeat means), plus split fingerprints."""
    rows = [["method", "acc", "pre_macro", "rec_macro", "f1_macro", "fpr_macro",
             "split_fingerprints"]]
    for comp in comparisons:
        fingerprints = "+".join(r.fingerprint for r in comp.runs)
        rows.append([
            comp.key,
            metrics.format_percent(comp.mean_accuracy),
            metrics.format_percent(comp.mean_macro("macro_precision")),
            metrics.format_percent(comp.mean_macro("macro_recall")),
            metrics.format_percent(comp.mean_macro("macro_f1")),
            metrics.format_percent(comp.mean_macro("macro_fpr")),
            fingerprints,
        ])
    return rows


def sweep_rows(rows: list[Row], key_name: str) -> list[list[str]]:
    header = [key_name, "mean_accuracy"]
    header += [f"accuracy_r{i}" for i in range(len(rows[0].accuracies))]
    out = [header]
    for row in rows:
        key = "+".join(str(b) for b in row.key) if isinstance(row.key, tuple) \
            else repr(row.key)
        out.append([key, metrics.format_percent(row.mean_accuracy)]
                   + [metrics.format_percent(a) for a in row.accuracies])
    return out


def write_comparison_run(config: ExperimentConfig, out_dir) -> Path:
    """Full comparison run with persisted manifest, reports, models, matrices."""
    out = Path(out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "models").mkdir(exist_ok=True)
    (out / "confusion").mkdir(exist_ok=True)
    comparisons = compare_methods(config)
    save_report(comparison_rows(comparisons), out / "reports" / "compare.csv")
    manifest = {
        "config": config_to_json(config),
        "results": {
            comp.key: {
                "mean_accuracy": comp.mean_accuracy,
                "accuracies": [r.accuracy for r in comp.runs],
                "fingerprints": [r.fingerprint for r in comp.runs],
            }
            for comp in comparisons
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    for comp in comparisons:
        for run in comp.runs:
            tag = f"{comp.key}_r{run.repeat}"
            save_model(comp.key, run.model, out / "models" / f"{tag}.bin")
            save_report(metrics.report_rows(comp.key, run.report, run.cm),
                        out / "reports" / f"{tag}.csv")
            save_report([[str(int(v)) for v in row] for row in run.cm],
                        out / "confusion" / f"{tag}.csv")
    return out
