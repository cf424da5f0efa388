"""Experiment orchestration: dataset builds, stratified splits, sweeps.

A run is fully determined by an ExperimentConfig plus its seed: every stage
(dataset generation, splitting, training) draws its own seed from the global
one through a fixed derivation, so sweep cells can execute in any order and
still assemble the same tables, and two executions of the same comparison
write byte-identical artifacts.

The four methods sit behind one table (METHOD_TABLE): per method, the magic
opening its model files, the input features it derives from the stacked
feature matrices, its trainer and its predictor. Every trainer takes its
seed as an argument and returns the model with its per-epoch losses. Every
baseline's model is a baselines.DenseNet, written and read by
save_dense/load_dense under the method's magic; only the convolutional
model has its own file functions.
Comparisons, sweeps and the command line train and evaluate through
fit_method and evaluate_method, in one grid (run_grid) of distinct (fs,
buses, method) cells per repeat, which tables groups into the comparison and
both sweeps. Each (repeat, fs) builds one dataset, featurizes it once over
the union of that rate's buses and drops it before its cells go to the
worker pool; each bus subset takes its rows of those features, and all its
methods see the same train/test index sets; the split fingerprint recorded
per run makes that checkable.

A run keeps every usable core busy: a large dataset build splits its records
over forked processes (build_dataset), the pool trains one cell per core
while the parent builds the next rate's dataset, and each rate submits its
longest cells first (submission_order). Every seed derives from a record
index or a cell's coordinates, never from a process, so the split and the
order change no result.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, metrics, synthgrid, tinycnn
from .featpipe import featurize
from .store import TensorFileReader
from .synthgrid import (NUM_CLASSES, ConfigError, Dataset, DatasetConfig,
                        DatasetGrids, MONITORED_BUSES, build_dataset,
                        dataclass_from_json, dataclass_to_json, derive_seed,
                        extract_window)

DEFAULT_BUS_SUBSETS = (
    (675,), (671,), (632,),
    (632, 671), (671, 675), (632, 675),
    (632, 671, 675),
)
DEFAULT_FS_LIST = (1250.0, 2500.0, 5000.0, 10000.0, 20000.0)
TABLES = ("compare", "placement", "sampling_rate")


class Method(NamedTuple):
    """How one classifier is trained, queried and stored. Its trainer config is
    the ExperimentConfig field named after the method."""

    magic: bytes       # opens its model files, and so names the method
    inputs: Callable   # (N, H, W) features -> model input
    fit: Callable      # (inputs, labels, trainer config, seed) -> (model, losses)
    predict: Callable  # (model, inputs) -> class codes


def _fit_cnn(xs, labels, cfg, seed):
    arch = tinycnn.CnnArch(*xs.shape[1:])
    model = tinycnn.init_model(arch, seed)
    return tinycnn.train(model, list(zip(xs, labels)), cfg, seed)


# The entries look the trainers and predictors up on their modules at call
# time. The order fixes each method's training seed and the default
# comparison order.
METHOD_TABLE = {
    "autoencoder": Method(
        baselines.AE_MAGIC, lambda xs: baselines.energy_feature_set(xs),
        lambda x, y, cfg, seed: baselines.train_autoencoder_clf(x, y, cfg, seed),
        lambda model, x: baselines.ae_predict(model, x)),
    "svm": Method(
        baselines.SVM_MAGIC, lambda xs: baselines.energy_feature_set(xs),
        lambda x, y, cfg, seed: baselines.train_svm_ovr(x, y, cfg, seed),
        lambda model, x: baselines.svm_predict(model, x)),
    "tmlp": Method(
        baselines.TMLP_MAGIC, lambda xs: baselines.flatten_features(xs),
        lambda x, y, cfg, seed: baselines.train_tmlp(x, y, cfg, seed),
        lambda model, x: baselines.tmlp_predict(model, x)),
    "cnn": Method(
        tinycnn.MODEL_MAGIC, lambda xs: xs,
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

    def __reduce__(self):  # rebuilt from its fields when it leaves a pool worker
        return PipelineError, (self.stage, self.cause)


@contextlib.contextmanager
def _stage(name: str):
    """The one stage boundary: an exception inside becomes a PipelineError
    naming the stage; one that already names its stage passes through."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    fs_list: tuple = DEFAULT_FS_LIST
    placement_fs: float = 20000.0
    bus_subsets: tuple = DEFAULT_BUS_SUBSETS
    train_fraction: float = 0.8
    methods: tuple = METHODS
    repeats: int = 3
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
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        for fs in (self.placement_fs, *self.fs_list):  # checks the dataset fields
            self.dataset_config(fs, self.seed)

    def dataset_config(self, fs: float, seed: int) -> DatasetConfig:
        return DatasetConfig(fs=fs, seed=seed, grids=self.grids)


# ── Config file round trip ───────────────────────────────────────────────────

def config_to_json(config: ExperimentConfig) -> dict:
    return dataclass_to_json(config)


def config_from_json(obj) -> ExperimentConfig:
    """Build a config from a JSON document; every field optional, unknown
    keys and wrong value types rejected with the dotted field name."""
    return dataclass_from_json(ExperimentConfig, obj)


def load_config(path) -> ExperimentConfig:
    """The config in a JSON file; every error names the file."""
    try:
        obj = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return config_from_json(obj)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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


def split_stratified(labels, train_fraction: float, seed: int) -> SplitIndex:
    """Per-class seeded shuffle; test sizes by largest-remainder apportionment."""
    labels = np.asarray(labels)
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
    config_sha256: str  # of the dataset's config
    model: object


class Features(NamedTuple):
    values: np.ndarray  # (N, buses, W) float64, one feature matrix per record
    labels: np.ndarray  # (N,) class codes


def featurize_dataset(dataset: Dataset, buses) -> Features:
    """Window and featurize every record, stacked in record order."""
    values = [featurize(extract_window(rec), buses) for rec in dataset.records]
    return Features(np.stack(values), dataset.labels)


def _build(config: ExperimentConfig, fs: float, repeat: int) -> Dataset:
    with _stage("dataset"):
        ds_seed = derive_seed(config.seed, repeat, _STAGE_DATASET, fs)
        return build_dataset(config.dataset_config(fs, ds_seed))


def features_and_split(config: ExperimentConfig, dataset: Dataset, buses,
                       repeat: int = 0):
    """Features of every record plus the repeat's stratified split."""
    with _stage("featurize"):
        features = featurize_dataset(dataset, buses)
    with _stage("split"):
        split_seed = derive_seed(config.seed, repeat, _STAGE_SPLIT)
        split = split_stratified(dataset.labels, config.train_fraction, split_seed)
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
    with _stage(f"train[{method}]"):
        return m.fit(m.inputs(xs), labels, getattr(config, method), seed)


def evaluate_method(method: str, model, features, split: SplitIndex):
    """Metrics report and confusion matrix on the split's test records."""
    xs, labels = _subset(features, split.test)
    m = METHOD_TABLE[method]
    with _stage("evaluate"):
        cm = metrics.confusion(m.predict(model, m.inputs(xs)), labels)
        return metrics.aggregate(cm), cm


def _fit_cell(config: ExperimentConfig, method: str, cell: Features,
              split: SplitIndex, repeat: int):
    """One cell's model, trained in a pool worker."""
    return fit_method(config, method, cell, split, repeat)[0]


def submission_order(cells) -> list[int]:
    """Indices of one rate's cells, each starting (fs, buses, method), longest
    first: the CNN before the baselines, each by descending bus count, ties in
    the given order. The last cells to start are then short ones, and no
    worker idles while another still trains a long one."""
    return sorted(range(len(cells)),
                  key=lambda i: (cells[i][2] != "cnn", -len(cells[i][1])))


def run_grid(config: ExperimentConfig, cells) -> dict:
    """RunResults of the distinct (fs, buses, method) cells, buses compared
    sorted, at each repeat, keyed by (repeat, fs, sorted buses, method) in grid
    order: repeats outermost, then order of first appearance. Each (repeat, fs)
    featurizes its dataset once over the union of its buses and drops it before
    its cells are submitted; a subset's methods share its rows of those features
    and the (repeat, fs) split.

    Every usable core stays busy: build_dataset splits large builds over forked
    processes, and the cells train in forked pool workers, one per usable core,
    while the next dataset builds. Each (repeat, fs) submits its cells longest
    first (submission_order); each model is evaluated here, in grid order."""
    import concurrent.futures  # here, not at the top: `swec train`/`eval` start no pool
    import multiprocessing
    grid = {}  # fs -> sorted buses -> methods
    for fs, buses, method in cells:
        grid.setdefault(fs, {}).setdefault(tuple(sorted(buses)), {})[method] = None
    count = config.repeats * sum(len(ms) for s in grid.values() for ms in s.values())
    pending, futures, results, broken = [], {}, {}, None
    with concurrent.futures.ProcessPoolExecutor(
            min(count, len(os.sched_getaffinity(0))),
            multiprocessing.get_context("fork")) as pool:
        try:
            try:
                for repeat in range(config.repeats):
                    for fs, subsets in grid.items():
                        watched = sorted(set().union(*subsets))
                        dataset = _build(config, fs, repeat)
                        digest = synthgrid.config_sha256(dataset.config)
                        features, split = features_and_split(config, dataset, watched,
                                                             repeat)
                        del dataset  # no dataset is alive when the pool forks
                        start = len(pending)
                        for buses, methods in subsets.items():
                            # take() keeps the rows C-contiguous, as featurize stacks them
                            rows = [watched.index(b) for b in buses]
                            cell = Features(features.values.take(rows, axis=1),
                                            features.labels)
                            pending += [(fs, buses, method, repeat, cell, split, digest)
                                        for method in methods]
                        for i in submission_order(pending[start:]):
                            _, _, method, _, cell, _, _ = pending[start + i]
                            futures[start + i] = pool.submit(_fit_cell, config, method,
                                                             cell, split, repeat)
            except concurrent.futures.process.BrokenProcessPool as exc:
                broken = exc  # a worker died: the first unfinished cell names it
            for i, (fs, buses, method, repeat, cell, split, digest) in enumerate(pending):
                if i not in futures:  # the pool broke before it was submitted
                    continue
                with _stage(f"train[{method}]"):
                    model = futures[i].result()
                report, cm = evaluate_method(method, model, cell, split)
                results[repeat, fs, buses, method] = RunResult(
                    method, fs, buses, repeat, report.accuracy, report, cm,
                    split.fingerprint(), digest, model)
            if broken:  # it died between cells
                raise PipelineError("train", broken)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
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
        return metrics.mean_defined([getattr(r.report, attr) for r in self.runs])


def _table_cells(config: ExperimentConfig, name: str) -> list:
    """(row key, (fs, sorted buses, method)) of each row of the named table."""
    if name == "compare":
        if len(config.methods) < 2:
            raise ConfigError("comparison needs at least 2 methods")
        return [(m, (config.placement_fs, MONITORED_BUSES, m)) for m in config.methods]
    if name == "placement":
        return [(tuple(b), (config.placement_fs, tuple(sorted(b)), "cnn"))
                for b in config.bus_subsets]
    if name == "sampling_rate":
        if len(config.fs_list) < 2:
            raise ConfigError("sampling-rate sweep needs at least 2 rates")
        return [(fs, (fs, MONITORED_BUSES, "cnn")) for fs in sorted(config.fs_list)]
    raise ValueError(f"unknown table {name!r}")


def tables(config: ExperimentConfig, names=TABLES) -> dict[str, list[Row]]:
    """The rows of each named table, all from one grid over the union of
    their cells, so a cell that several tables share trains once per repeat."""
    keyed = {name: _table_cells(config, name) for name in names}
    results = run_grid(config, [cell for rows in keyed.values() for _, cell in rows])
    return {name: [Row(key, [results[(r, *cell)] for r in range(config.repeats)])
                   for key, cell in rows]
            for name, rows in keyed.items()}


def sweep_placement(config: ExperimentConfig) -> list[Row]:
    """Accuracy per sensor subset at the placement-study sampling rate, rows
    in the config's subset order."""
    return tables(config, ["placement"])["placement"]


# ── Artifact persistence ─────────────────────────────────────────────────────

_MODEL_SAVERS = {"cnn": tinycnn.save_model,
                 **{m: partial(baselines.save_dense, magic=METHOD_TABLE[m].magic)
                    for m in METHODS if m != "cnn"}}
_MODEL_LOADERS = {"cnn": tinycnn.load_model,
                  **{m: partial(baselines.load_dense, magic=METHOD_TABLE[m].magic)
                     for m in METHODS if m != "cnn"}}


class ModelRun(NamedTuple):
    """What a model was trained on, as its model file records it (every
    record derives from the dataset's config, so config_sha256 names the data)."""

    buses: tuple
    fs: float
    split_fingerprint: str
    config_sha256: str
    repeat: int  # fixes the split and the training seed


def save_model(method: str, model, path, run: ModelRun) -> None:
    """Write the method's model file, and any missing parent directory,
    recording run, its buses in row order (ascending, as featurize stacks
    them)."""
    fields = run._replace(buses=sorted(run.buses), fs=float(run.fs))._asdict()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _MODEL_SAVERS[method](model, path, run=fields)


def load_model(path):
    """(method, model, run) of a model file, whose magic names its method;
    every error is a ValueError naming the file and a byte offset."""
    f = TensorFileReader(path, tuple(m.magic for m in METHOD_TABLE.values()))
    method = next(name for name, m in METHOD_TABLE.items() if m.magic == f.magic)
    run = ModelRun(tuple(f.field("buses", list, int)), f.field("fs", float),
                   f.field("split_fingerprint", str), f.field("config_sha256", str),
                   f.field("repeat", int))
    return method, _MODEL_LOADERS[method](path), run


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
    except (OSError, UnicodeDecodeError) as exc:
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


def table_rows(name: str, rows: list[Row]) -> list[list[str]]:
    """The CSV rows, header first, of the table tables() returned under name."""
    if name == "compare":
        return comparison_rows(rows)
    return sweep_rows(rows, {"placement": "buses", "sampling_rate": "fs"}[name])


def save_tables(config: ExperimentConfig, results: dict, out_dir) -> Path:
    """Write reports/<name>.csv of each table of a tables() result; a compare
    table adds manifest.json, and per method and repeat k models/<method>_r<k>.bin
    and reports/<method>_r<k>.csv, which ends with its confusion counts."""
    out = Path(out_dir)
    for name, rows in results.items():
        save_report(table_rows(name, rows), out / "reports" / f"{name}.csv")
    comparisons = results.get("compare")
    if comparisons is None:
        return out
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
            save_model(comp.key, run.model, out / "models" / f"{tag}.bin",
                       ModelRun(run.buses, run.fs, run.fingerprint, run.config_sha256,
                                run.repeat))
            save_report(metrics.report_rows(comp.key, run.report, run.cm),
                        out / "reports" / f"{tag}.csv")
    return out


def write_comparison_run(config: ExperimentConfig, out_dir) -> Path:
    """Full comparison run with persisted manifest, reports and models."""
    return save_tables(config, tables(config, ["compare"]), out_dir)
