"""Waveform-to-feature pipeline: modal voltage, level-1 db4 DWT, peak normalization.

Each requested bus contributes one row to the classifier input: the three
phase voltages of its (3, W) window are collapsed to the alpha-mode
(zero-sequence rejecting) signal, decomposed one level with the 8-tap
Daubechies wavelet, and the absolute detail coefficients are normalized to
their peak. The transforms work along the last axis, so one call covers
every row; rows come in ascending bus-id order, each W/2 wide.
"""

from __future__ import annotations

import numpy as np

from .synthgrid import MONITORED_BUSES

# 8-tap Daubechies scaling filter, 4 vanishing moments. Values from the
# spectral-factorization construction, exact to double precision
# (sum = sqrt(2), unit energy, shift-2 orthogonal).
DB4_SCALING = np.array(
    [
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ]
)

# Quadrature-mirror wavelet filter: g[k] = (-1)^k h[L-1-k]
DB4_WAVELET = (DB4_SCALING[::-1] * np.where(np.arange(8) % 2 == 0, 1.0, -1.0)).copy()

# Peak divisor guard: rows whose absolute peak is below this are left undivided.
PEAK_EPS = 1e-12


def clarke_mode1(va, vb, vc) -> np.ndarray:
    """Pointwise alpha-mode of three phase signals: (2*va - vb - vc) / 3.

    Rejects the zero-sequence (common) component; linear in each phase.
    The signals may carry leading axes (one row per bus, say).
    """
    va = np.asarray(va, dtype=float)
    vb = np.asarray(vb, dtype=float)
    vc = np.asarray(vc, dtype=float)
    if not (va.shape == vb.shape == vc.shape) or va.ndim < 1 or va.size < 1:
        raise ValueError(
            f"phase signals must be equal-shape sequences, got "
            f"{va.shape}/{vb.shape}/{vc.shape}"
        )
    return (2.0 * va - vb - vc) / 3.0


def _window_indices(n: int) -> np.ndarray:
    # idx[i, k] = (2i + k) mod n, one row per output coefficient
    starts = 2 * np.arange(n // 2)[:, None]
    return (starts + np.arange(8)[None, :]) % n


def _filter_columns(windows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Left-to-right accumulation (not a BLAS dot) so the tap-sum identities
    # hold exactly: constant input gives detail == 0 and approx == sqrt(2).
    acc = windows[..., 0] * taps[0]
    for k in range(1, taps.size):
        acc = acc + windows[..., k] * taps[k]
    return acc


def dwt_db4_level1(x) -> tuple[np.ndarray, np.ndarray]:
    """One-level periodized orthogonal DWT with the 8-tap Daubechies filter.

    Circular convolution against the scaling/wavelet filter pair followed by
    downsampling by 2, along the last axis. Returns (approx, detail), each
    N/2 long. The transform is orthonormal: energy is preserved and
    idwt_db4_level1 reconstructs exactly (to rounding).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 1:
        raise ValueError(f"input must have at least one axis, got shape {x.shape}")
    n = x.shape[-1]
    if n % 2 != 0 or n < 8:
        raise ValueError(f"input length must be even and >= 8, got {n}")
    windows = np.take(x, _window_indices(n), axis=-1)
    return _filter_columns(windows, DB4_SCALING), _filter_columns(windows, DB4_WAVELET)


def idwt_db4_level1(approx, detail) -> np.ndarray:
    """Inverse of dwt_db4_level1 (adjoint of the orthonormal analysis)."""
    approx = np.asarray(approx, dtype=float)
    detail = np.asarray(detail, dtype=float)
    if approx.shape != detail.shape or approx.ndim != 1 or approx.size < 4:
        raise ValueError(
            f"approx/detail must be equal-length 1-D sequences of length >= 4, "
            f"got {approx.shape} and {detail.shape}"
        )
    n = 2 * approx.size
    contrib = np.outer(approx, DB4_SCALING) + np.outer(detail, DB4_WAVELET)
    x = np.zeros(n)
    np.add.at(x, _window_indices(n), contrib)
    return x


def normalize_abs_peak(coeffs) -> np.ndarray:
    """Absolute values scaled so each row's peak (along the last axis) is 1;
    near-zero rows are not divided."""
    mags = np.abs(np.asarray(coeffs, dtype=float))
    peak = mags.max(axis=-1, keepdims=True, initial=0.0)
    return mags / np.where(peak > PEAK_EPS, peak, 1.0)


def featurize(window, buses) -> np.ndarray:
    """Classifier input of a one-cycle window: a (len(buses), W/2) array.

    window is the (len(MONITORED_BUSES), 3, W) array of phase voltages at
    every monitored bus, as extract_window returns it (W even). For each
    requested bus, in ascending bus-id order: alpha-mode -> level-1 db4 ->
    detail coefficients -> peak normalization. An unknown or repeated bus,
    a window of another shape and a NaN or infinite sample each raise
    ValueError naming the bus or the shape.
    """
    buses = tuple(sorted(int(b) for b in buses))
    if not buses:
        raise ValueError("at least one bus required")
    for i, bus in enumerate(buses):
        if bus not in MONITORED_BUSES:
            raise ValueError(f"bus {bus} is not a monitored bus {MONITORED_BUSES}")
        if bus in buses[:i]:
            raise ValueError(f"bus {bus} repeated in {buses}")
    window = np.asarray(window, dtype=float)
    if window.ndim != 3 or window.shape[:2] != (len(MONITORED_BUSES), 3):
        raise ValueError(f"expected a ({len(MONITORED_BUSES)}, 3, W) window, "
                         f"got shape {window.shape}")
    phases = window[[MONITORED_BUSES.index(b) for b in buses]]
    finite = np.isfinite(phases).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"bus {buses[np.argmin(finite)]}: window holds "
                         f"non-finite samples")
    _, detail = dwt_db4_level1(clarke_mode1(phases[:, 0], phases[:, 1], phases[:, 2]))
    return normalize_abs_peak(detail)
