"""End-to-end acceptance gate.

Each test prints one CRITERION line so a full run reads as a checklist.
Criteria 1-5 are exact oracles and run in milliseconds to seconds; 6-9 train
real models and dominate the suite's wall time; 10 checks byte-level
reproducibility of persisted artifacts.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from swec import expharness, featpipe, metrics, tinycnn
from conftest import tiny_config

REFERENCE_CM = np.array([
    [13, 0, 0, 0],
    [0, 29, 1, 0],
    [0, 0, 60, 2],
    [0, 0, 3, 12],
])

FULL_BUSES = (632, 671, 675)

GOLDEN = Path(__file__).parent / "golden"


def _criterion(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


class TestCriterion1MetricsOracle:
    def test_reference_matrix_macro_metrics(self):
        report = metrics.aggregate(REFERENCE_CM)
        got = (100 * report.accuracy, 100 * report.macro_precision,
               100 * report.macro_recall, 100 * report.macro_f1)
        want = (95.00, 93.36, 94.87, 94.11)
        ok = all(abs(g - w) <= 0.01 for g, w in zip(got, want))
        fpr_ok = abs(100 * report.macro_fpr - 1.875) <= 0.001
        # published table prints 1.86; stay within the wide band of that too
        fpr_pub_ok = abs(100 * report.macro_fpr - 1.86) <= 0.05
        _criterion(
            1, ok and fpr_ok and fpr_pub_ok,
            "ACC/PRE/REC/F1 = " + "/".join(f"{g:.2f}" for g in got)
            + f", FPR = {100 * report.macro_fpr:.3f}",
        )


class TestCriterion2PerClassOracle:
    def test_reference_matrix_class_margins(self):
        precisions = (100.0, 96.7, 96.8, 80.0)
        recalls = (100.0, 100.0, 93.8, 85.7)
        worst = 0.0
        for code, (p_want, r_want) in enumerate(zip(precisions, recalls), 1):
            m = metrics.class_metrics(REFERENCE_CM, code)
            worst = max(worst, abs(100 * m.precision - p_want),
                        abs(100 * m.recall - r_want))
        _criterion(2, worst <= 0.05, f"max per-class deviation {worst:.3f} pts")


class TestCriterion3Gradients:
    def test_ten_seeded_pairs_at_full_dims(self):
        start = time.time()
        worst = 0.0
        for seed in range(10):
            model, x, label = tinycnn.make_gradcheck_case(
                seed, input_h=3, input_w=166
            )
            report = tinycnn.grad_check(model, x, h=1e-5, label=label)
            worst = max(worst, report.max_rel_error)
        elapsed = time.time() - start
        _criterion(3, worst < 1e-4 and elapsed < 60.0,
                   f"max rel error {worst:.2e} over 10 pairs in {elapsed:.0f}s")


class TestCriterion4Wavelet:
    def test_transform_contracts(self):
        rng = np.random.default_rng(2024)
        worst_rt, worst_pars = 0.0, 0.0
        for _ in range(100):
            n = 2 * int(rng.integers(4, 300))
            x = rng.normal(size=n)
            a, d = featpipe.dwt_db4_level1(x)
            worst_rt = max(worst_rt,
                           float(np.abs(featpipe.idwt_db4_level1(a, d) - x).max()))
            worst_pars = max(worst_pars, abs(float(a @ a + d @ d - x @ x)))
        from test_featpipe import db4_scaling_by_construction
        tap_err = float(np.abs(
            featpipe.DB4_SCALING - db4_scaling_by_construction()
        ).max())
        _, detail = featpipe.dwt_db4_level1(np.ones(64))
        const_zero = bool(np.all(detail == 0.0))
        ok = worst_rt < 1e-9 and worst_pars < 1e-9 and tap_err < 1e-10 \
            and const_zero
        _criterion(4, ok,
                   f"roundtrip {worst_rt:.1e}, parseval {worst_pars:.1e}, "
                   f"taps {tap_err:.1e}, constant-detail-zero {const_zero}")


class TestCriterion5SplitOracle:
    def test_default_counts(self):
        labels = np.repeat([1, 2, 3, 4], [64, 144, 320, 72])
        split = expharness.split_stratified(labels, 0.8, seed=123)
        counts = tuple(int((labels[split.test] == c).sum()) for c in (1, 2, 3, 4))
        _criterion(5, counts == (13, 29, 64, 14), f"test counts {counts}")


@pytest.fixture(scope="module")
def timed_tables():
    """The default comparison, placement and sampling-rate tables (1.25 and
    20 kHz), all from one grid, and the seconds it took to compute."""
    start = time.time()
    result = expharness.tables(
        expharness.ExperimentConfig(seed=0, fs_list=(1250.0, 20000.0)))
    return result, time.time() - start


@pytest.fixture(scope="module")
def comparison(timed_tables):
    return timed_tables[0]["compare"]


@pytest.fixture(scope="module")
def rate_rows(timed_tables):
    return timed_tables[0]["sampling_rate"]


@pytest.fixture(scope="module")
def placement_rows(timed_tables):
    return timed_tables[0]["placement"]


class TestCriterion6EndToEnd:
    def test_default_run_accuracy(self, timed_tables):
        rows, elapsed = timed_tables
        cnn = next(c for c in rows["compare"] if c.key == "cnn")
        acc = cnn.runs[0].accuracy
        _criterion(6, acc >= 0.90 and elapsed < 600.0,
                   f"cnn accuracy {acc:.4f} at 20 kHz, 3 buses, "
                   f"three tables in {elapsed:.0f}s")


class TestCriterion7SamplingRateTrend:
    def test_rate_gap(self, rate_rows):
        low = rate_rows[0].mean_accuracy
        high = rate_rows[-1].mean_accuracy
        _criterion(7, high - low >= 0.10,
                   f"mean accuracy {high:.3f} @20kHz vs {low:.3f} @1.25kHz")


class TestCriterion8MethodOrdering:
    def test_ordering_chain(self, comparison):
        acc = {c.key: c.mean_accuracy for c in comparison}
        ok = acc["cnn"] >= acc["tmlp"] - 0.02 and acc["tmlp"] >= acc["svm"] - 0.02
        _criterion(8, ok,
                   "mean accuracies " + " ".join(
                       f"{m}={acc[m]:.3f}" for m in
                       ("cnn", "tmlp", "svm", "autoencoder")))

    def test_identical_splits(self, comparison):
        fingerprints = {c.key: tuple(r.fingerprint for r in c.runs)
                        for c in comparison}
        assert len(set(fingerprints.values())) == 1


class TestCriterion9PlacementTrend:
    def test_three_units_vs_singles(self, placement_rows):
        by_key = {r.key: r.mean_accuracy for r in placement_rows}
        full = by_key[FULL_BUSES]
        singles = {k: v for k, v in by_key.items() if len(k) == 1}
        ok = all(full >= v - 0.02 for v in singles.values())
        detail = f"3-unit {full:.3f} vs singles " + " ".join(
            f"{k[0]}={v:.3f}" for k, v in sorted(singles.items()))
        _criterion(9, ok, detail)


class TestCriterion10Determinism:
    def test_compare_artifacts_byte_identical(self, tmp_path):
        cfg = tiny_config(methods=("svm", "tmlp", "cnn"))
        a = expharness.write_comparison_run(cfg, tmp_path / "a")
        b = expharness.write_comparison_run(cfg, tmp_path / "b")
        mismatched = []
        for path_a in sorted(a.rglob("*")):
            if path_a.is_dir():
                continue
            rel = path_a.relative_to(a)
            if path_a.read_bytes() != (b / rel).read_bytes():
                mismatched.append(str(rel))
        _criterion(10, not mismatched,
                   "all artifacts byte-identical" if not mismatched
                   else f"mismatch in {mismatched}")


class TestGoldenTables:
    """The default comparison, placement and sampling-rate tables, exactly as
    recorded in tests/golden/ (two-decimal percentages). A change to a cell
    needs a stated cause; re-recording a table to hide one is not a fix."""

    def test_compare_table(self, comparison):
        assert expharness.comparison_rows(comparison) == \
            expharness.load_report(GOLDEN / "compare.csv")

    def test_placement_table(self, placement_rows):
        assert expharness.sweep_rows(placement_rows, "buses") == \
            expharness.load_report(GOLDEN / "placement.csv")

    def test_sampling_rate_table(self, rate_rows):
        assert expharness.sweep_rows(rate_rows, "fs") == \
            expharness.load_report(GOLDEN / "sampling_rate.csv")
