import numpy as np
import pytest

from swec import metrics
from swec.metrics import (aggregate, class_metrics, confusion, format_percent,
                          report_rows)

# Held-out test-set confusion counts: rows predicted, columns target.
REFERENCE_CM = np.array([
    [13, 0, 0, 0],
    [0, 29, 1, 0],
    [0, 0, 60, 2],
    [0, 0, 3, 12],
])


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([1, 2, 3, 4], [1, 2, 3, 4])
        np.testing.assert_array_equal(cm, np.eye(4, dtype=int))
        assert aggregate(cm).accuracy == 1.0

    def test_constant_predictor(self):
        cm = confusion([1] * 8, [1, 2, 3, 4] * 2)
        np.testing.assert_array_equal(cm[0], [2, 2, 2, 2])
        assert cm[1:].sum() == 0
        assert aggregate(cm).accuracy == 0.25

    def test_reference_matrix_reconstruction(self):
        preds, targets = [], []
        for p in range(4):
            for t in range(4):
                preds += [p + 1] * REFERENCE_CM[p, t]
                targets += [t + 1] * REFERENCE_CM[p, t]
        cm = confusion(preds, targets)
        np.testing.assert_array_equal(cm, REFERENCE_CM)
        assert cm.sum() == 120
        assert aggregate(cm).accuracy == pytest.approx(0.95)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [1, 1])
        with pytest.raises(ValueError):
            confusion([1, 1], [1, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1])


class TestClassMetrics:
    def test_reference_class4(self):
        m = class_metrics(REFERENCE_CM, 4)
        assert m.precision == pytest.approx(12 / 15)
        assert m.recall == pytest.approx(12 / 14)

    def test_tiny_counts(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0] = 1  # TP for class 1
        cm[0, 1] = 1  # FP for class 1
        m = class_metrics(cm, 1)
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 0, 0)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(1.0)
        assert m.f1 == pytest.approx(2 / 3)

    def test_undefined_precision_when_never_predicted(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[1, 0] = 5  # class 1 exists but is never predicted
        m = class_metrics(cm, 1)
        assert m.precision is None
        assert m.recall == 0.0

    def test_counts_partition_total(self):
        rng = np.random.default_rng(3)
        cm = rng.integers(0, 9, size=(4, 4))
        total = cm.sum()
        for code in range(1, 5):
            m = class_metrics(cm, code)
            assert m.tp + m.fp + m.fn + m.tn == total


class TestAggregate:
    def test_reference_macro_values(self):
        report = aggregate(REFERENCE_CM)
        assert 100 * report.accuracy == pytest.approx(95.00, abs=0.01)
        assert 100 * report.macro_precision == pytest.approx(93.36, abs=0.01)
        assert 100 * report.macro_recall == pytest.approx(94.87, abs=0.01)
        assert 100 * report.macro_f1 == pytest.approx(94.11, abs=0.01)

    def test_reference_macro_fpr(self):
        # per-class FP/(FP+TN): 0, 1/91, 2/56, 3/106
        report = aggregate(REFERENCE_CM)
        expected = np.mean([0.0, 1 / 91, 2 / 56, 3 / 106])
        assert report.macro_fpr == pytest.approx(expected, abs=1e-12)
        assert 100 * report.macro_fpr == pytest.approx(1.875, abs=0.001)

    def test_perfect_matrix(self):
        report = aggregate(np.diag([10, 20, 30, 40]))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0
        assert report.macro_fpr == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        cm = rng.integers(0, 10, size=(4, 4))
        base = aggregate(cm)
        perm = rng.permutation(4)
        permuted = aggregate(cm[np.ix_(perm, perm)])
        for attr in ("accuracy", "macro_precision", "macro_recall",
                     "macro_f1", "macro_fpr"):
            assert getattr(permuted, attr) == pytest.approx(
                getattr(base, attr), abs=1e-12
            )

    def test_undefined_classes_excluded_and_counted(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0] = 6
        cm[0, 1] = 2  # class 2 never predicted -> undefined precision
        report = aggregate(cm)
        assert report.macro_precision == pytest.approx(6 / 8)

    def test_defined_values_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cm = rng.integers(0, 6, size=(4, 4))
            if cm.sum() == 0:
                continue
            report = aggregate(cm)
            for m in report.per_class.values():
                for v in (m.precision, m.recall, m.f1, m.fpr):
                    assert v is None or 0.0 <= v <= 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros((4, 4), dtype=int))


class TestFormatting:
    def test_plain(self):
        assert format_percent(0.95) == "95.00"

    def test_undefined(self):
        assert format_percent(None) == "N/A"

    def test_half_up_rounding(self):
        # 0.03125 * 100 = 3.125 exactly representable; half-up -> 3.13
        assert format_percent(0.03125) == "3.13"

    def test_report_rows_shape(self):
        report = aggregate(REFERENCE_CM)
        rows = report_rows("cnn", report, REFERENCE_CM)
        assert rows[0] == ["method", "acc", "pre_macro", "rec_macro",
                           "f1_macro", "fpr_macro"]
        assert rows[1][:2] == ["cnn", "95.00"]
        assert rows[2] == ["class", "precision", "recall", "f1", "fpr"]
        assert len(rows) == 3 + 4 + 1 + 4  # header, classes, marker, matrix
        assert rows[7] == ["confusion"]
        assert rows[8] == ["13", "0", "0", "0"]

    def test_report_rows_prints_na(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0] = 1
        rows = report_rows("svm", aggregate(cm), cm)
        assert "N/A" in rows[4]
