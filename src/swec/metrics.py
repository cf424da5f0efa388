"""Confusion matrix and one-vs-rest classification metrics.

Matrix orientation is rows = predicted class, columns = target class. Each
class is scored as a binary problem against the pooled remainder: precision
TP/(TP+FP), recall TP/(TP+FN), F1 as their harmonic mean, and false positive
rate FP/(FP+TN). A 0/0 ratio is reported as an explicit undefined (None)
rather than 0, and undefined classes are excluded from macro means,
mirroring the N/A entries such matrices produce when a class is never
predicted.

The macro F1 is the harmonic mean of the macro precision and macro recall,
not the mean of per-class F1 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .synthgrid import NUM_CLASSES


def confusion(preds, targets) -> np.ndarray:
    """Count matrix with counts[predicted - 1, target - 1] += 1 per pair."""
    preds = np.asarray(preds, dtype=int)
    targets = np.asarray(targets, dtype=int)
    if preds.shape != targets.shape or preds.ndim != 1 or preds.size < 1:
        raise ValueError(
            f"predictions and targets must be equal-length non-empty sequences, "
            f"got {preds.shape} and {targets.shape}"
        )
    for name, arr in (("prediction", preds), ("target", targets)):
        if arr.min() < 1 or arr.max() > NUM_CLASSES:
            raise ValueError(f"{name} labels outside 1..{NUM_CLASSES}")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(cm, (preds - 1, targets - 1), 1)
    return cm


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def _f1(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0.0:
        return None
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    recall: float | None
    f1: float | None
    fpr: float | None


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: dict
    macro_precision: float | None
    macro_recall: float | None
    macro_f1: float | None
    macro_fpr: float | None


def class_metrics(cm: np.ndarray, class_code: int) -> ClassMetrics:
    """One-vs-rest counts and ratios for one class (codes start at 1)."""
    cm = np.asarray(cm)
    n = cm.shape[0]
    if not 1 <= class_code <= n:
        raise ValueError(f"class code {class_code} outside 1..{n}")
    c = class_code - 1
    total = int(cm.sum())
    tp = int(cm[c, c])
    fp = int(cm[c, :].sum()) - tp
    fn = int(cm[:, c].sum()) - tp
    tn = total - tp - fp - fn
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return ClassMetrics(tp, fp, fn, tn, precision, recall,
                        _f1(precision, recall), _ratio(fp, fp + tn))


def mean_defined(values) -> float | None:
    """Mean of the defined values; None if none is defined."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def aggregate(cm: np.ndarray) -> MetricsReport:
    """Accuracy plus macro aggregates over all classes. (Micro precision,
    recall and F1 of a single-label confusion matrix all equal accuracy.)"""
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total < 1:
        raise ValueError("empty confusion matrix")
    n = cm.shape[0]
    per_class = {code: class_metrics(cm, code) for code in range(1, n + 1)}
    accuracy = float(np.trace(cm)) / total

    macro_pre = mean_defined([m.precision for m in per_class.values()])
    macro_rec = mean_defined([m.recall for m in per_class.values()])
    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=macro_pre,
        macro_recall=macro_rec,
        macro_f1=_f1(macro_pre, macro_rec),
        macro_fpr=mean_defined([m.fpr for m in per_class.values()]),
    )


def format_percent(value: float | None) -> str:
    """Two-decimal percentage with half-up rounding; undefined prints N/A."""
    if value is None:
        return "N/A"
    return str(Decimal(repr(100.0 * float(value)))
               .quantize(Decimal("0.01"), ROUND_HALF_UP))


def report_rows(method: str, report: MetricsReport, cm: np.ndarray) -> list[list[str]]:
    """CSV rows: summary line, per-class lines, then the raw count block."""
    rows = [["method", "acc", "pre_macro", "rec_macro", "f1_macro", "fpr_macro"],
            [method,
             format_percent(report.accuracy),
             format_percent(report.macro_precision),
             format_percent(report.macro_recall),
             format_percent(report.macro_f1),
             format_percent(report.macro_fpr)],
            ["class", "precision", "recall", "f1", "fpr"]]
    for code, m in sorted(report.per_class.items()):
        rows.append([str(code), format_percent(m.precision), format_percent(m.recall),
                     format_percent(m.f1), format_percent(m.fpr)])
    rows.append(["confusion"])
    for row in np.asarray(cm):
        rows.append([str(int(v)) for v in row])
    return rows
