"""Waveform-to-feature pipeline: modal voltage, level-1 db4 DWT, peak normalization.

Each monitored bus contributes one row to the classifier input: the three
phase voltages are collapsed to the alpha-mode (zero-sequence rejecting)
signal, decomposed one level with the 8-tap Daubechies wavelet, and the
absolute detail coefficients are normalized to their peak. Rows are stacked
in ascending bus-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class FeatureMatrix:
    """Stacked normalized detail-coefficient rows, one per monitored bus.

    values has shape (B, L) with entries in [0, 1]; buses are ascending ids.
    """

    values: np.ndarray
    buses: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {v.shape}")
        if len(self.buses) != v.shape[0]:
            raise ValueError(
                f"{len(self.buses)} buses but {v.shape[0]} feature rows"
            )
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]


def clarke_mode1(va, vb, vc) -> np.ndarray:
    """Pointwise alpha-mode of three phase signals: (2*va - vb - vc) / 3.

    Rejects the zero-sequence (common) component; linear in each phase.
    """
    va = np.asarray(va, dtype=float)
    vb = np.asarray(vb, dtype=float)
    vc = np.asarray(vc, dtype=float)
    if not (va.shape == vb.shape == vc.shape) or va.ndim != 1 or va.size < 1:
        raise ValueError(
            f"phase signals must be equal-length 1-D sequences, got "
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
    acc = windows[:, 0] * taps[0]
    for k in range(1, taps.size):
        acc = acc + windows[:, k] * taps[k]
    return acc


def dwt_db4_level1(x) -> tuple[np.ndarray, np.ndarray]:
    """One-level periodized orthogonal DWT with the 8-tap Daubechies filter.

    Circular convolution against the scaling/wavelet filter pair followed by
    downsampling by 2. Returns (approx, detail), each of length N/2. The
    transform is orthonormal: energy is preserved and idwt_db4_level1
    reconstructs exactly (to rounding).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    n = x.size
    if n % 2 != 0 or n < 8:
        raise ValueError(f"input length must be even and >= 8, got {n}")
    windows = x[_window_indices(n)]
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
    """Absolute values scaled so the peak is 1; near-zero rows are not divided."""
    mags = np.abs(np.asarray(coeffs, dtype=float))
    peak = mags.max(initial=0.0)
    if peak <= PEAK_EPS:
        return mags
    return mags / peak


def featurize(window: dict[int, np.ndarray], buses) -> FeatureMatrix:
    """Build the classifier input matrix from a one-cycle three-phase window.

    window maps bus id -> (3, W) array of phase voltages (W even). For each
    requested bus: alpha-mode -> level-1 db4 -> detail coefficients ->
    peak normalization. Rows stack in ascending bus-id order, width W/2.
    A NaN or infinite sample raises ValueError naming its bus.
    """
    buses = tuple(sorted(int(b) for b in buses))
    if not buses:
        raise ValueError("at least one bus required")
    rows = []
    for bus in buses:
        if bus not in window:
            raise ValueError(f"bus {bus} missing from window")
        phases = np.asarray(window[bus], dtype=float)
        if phases.ndim != 2 or phases.shape[0] != 3:
            raise ValueError(
                f"bus {bus}: expected (3, W) phase matrix, got {phases.shape}"
            )
        if not np.isfinite(phases).all():
            raise ValueError(f"bus {bus}: window holds non-finite samples")
        mode1 = clarke_mode1(phases[0], phases[1], phases[2])
        _, detail = dwt_db4_level1(mode1)
        rows.append(normalize_abs_peak(detail))
    return FeatureMatrix(values=np.vstack(rows), buses=buses)
