import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swec import synthgrid
from swec.featpipe import (DB4_SCALING, DB4_WAVELET, clarke_mode1, dwt_db4_level1,
                           featurize, idwt_db4_level1, normalize_abs_peak)
from swec.synthgrid import MONITORED_BUSES
from conftest import tiny_grids


def db4_scaling_by_construction():
    """Independent oracle: spectral factorization of the order-4 half-band
    polynomial, minimum-phase root selection, normalized to sum sqrt(2)."""
    n_vm = 4
    # P(y) = sum_k C(n_vm-1+k, k) y^k
    p_coeffs = [math.comb(n_vm - 1 + k, k) for k in range(n_vm)]
    y_roots = np.roots(list(reversed(p_coeffs)))
    z_roots = []
    for y in y_roots:
        # y = (2 - z - 1/z)/4  =>  z^2 + (4y - 2) z + 1 = 0
        b = 4.0 * y - 2.0
        for z in np.roots([1.0, b, 1.0]):
            if abs(z) < 1.0:
                z_roots.append(z)
    poly = np.array([1.0 + 0.0j])
    for _ in range(n_vm):
        poly = np.convolve(poly, [0.5, 0.5])
    for z in z_roots:
        poly = np.convolve(poly, [-z / (1.0 - z), 1.0 / (1.0 - z)])
    h = np.sqrt(2.0) * poly.real
    return h[::-1]  # ascending-delay convention, first tap largest


class TestClarke:
    def test_balanced_instantaneous_set(self):
        assert clarke_mode1([1.0], [-0.5], [-0.5])[0] == pytest.approx(1.0)

    def test_zero_sequence_rejection(self):
        for c in (0.0, 1.0, -3.7):
            assert clarke_mode1([c], [c], [c])[0] == 0.0

    def test_direct_substitution(self):
        assert clarke_mode1([1.0], [0.0], [0.0])[0] == pytest.approx(2.0 / 3.0)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 50))
        y = rng.normal(size=(3, 50))
        a, b = 1.7, -0.3
        combined = clarke_mode1(*(a * x + b * y))
        parts = a * clarke_mode1(*x) + b * clarke_mode1(*y)
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_common_offset_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 40))
        shifted = clarke_mode1(x[0] + 5.0, x[1] + 5.0, x[2] + 5.0)
        np.testing.assert_allclose(shifted, clarke_mode1(*x), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clarke_mode1([1.0, 2.0], [1.0], [1.0])


class TestDwt:
    def test_constant_input_exact(self):
        approx, detail = dwt_db4_level1(np.ones(16))
        assert np.all(detail == 0.0)
        assert np.all(approx == np.sqrt(2.0))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(4, 200))
            x = rng.normal(size=n)
            a, d = dwt_db4_level1(x)
            assert abs(a @ a + d @ d - x @ x) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2 * int(rng.integers(4, 200)))
            a, d = dwt_db4_level1(x)
            assert np.abs(idwt_db4_level1(a, d) - x).max() < 1e-9

    def test_scaling_filter_matches_construction(self):
        oracle = db4_scaling_by_construction()
        np.testing.assert_allclose(DB4_SCALING, oracle, atol=1e-10)
        assert DB4_SCALING[0] == pytest.approx(0.2303778133, abs=1e-10)

    def test_wavelet_filter_is_qmf_of_scaling(self):
        signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(DB4_WAVELET, DB4_SCALING[::-1] * signs)

    def test_vanishing_moments_on_cubic(self):
        n = np.arange(128.0)
        x = 2.0 - 0.5 * n + 0.03 * n ** 2 - 1e-4 * n ** 3
        _, detail = dwt_db4_level1(x)
        interior = detail[4:len(detail) - 4]
        assert np.abs(interior).max() < 1e-9 * np.abs(x).max()

    @pytest.mark.parametrize("bad", [np.ones(15), np.ones(6), np.ones((4, 4))])
    def test_invalid_input(self, bad):
        with pytest.raises(ValueError):
            dwt_db4_level1(bad)

    def test_inverse_of_constant(self):
        x = idwt_db4_level1(np.full(8, np.sqrt(2.0)), np.zeros(8))
        np.testing.assert_allclose(x, np.ones(16), atol=1e-12)

    def test_inverse_of_zero(self):
        assert np.all(idwt_db4_level1(np.zeros(8), np.zeros(8)) == 0.0)

    def test_inverse_length_mismatch(self):
        with pytest.raises(ValueError):
            idwt_db4_level1(np.zeros(8), np.zeros(6))


class TestNormalize:
    def test_direct(self):
        np.testing.assert_allclose(
            normalize_abs_peak([0.5, -1.0, 0.25]), [0.5, 1.0, 0.25]
        )

    def test_all_zero(self):
        np.testing.assert_array_equal(normalize_abs_peak([0.0, 0.0, 0.0]),
                                      [0.0, 0.0, 0.0])

    def test_peak_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            y = normalize_abs_peak(rng.normal(size=30))
            assert y.max() == 1.0
            assert y.min() >= 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        once = normalize_abs_peak(x)
        np.testing.assert_array_equal(normalize_abs_peak(once), once)


class TestFeaturize:
    def _window(self, buses, w, seed=0):
        """(buses, 3, W) window: each listed bus draws a (3, W) block in list
        order; the rows of the other buses are NaN, which featurize must
        not read."""
        rng = np.random.default_rng(seed)
        window = np.full((len(MONITORED_BUSES), 3, w), np.nan)
        for b in buses:
            window[MONITORED_BUSES.index(b)] = rng.normal(size=(3, w))
        return window

    def test_three_bus_20khz_shape(self):
        fm = featurize(self._window((632, 671, 675), 332), (632, 671, 675))
        assert fm.shape == (3, 166)
        assert fm.dtype == np.float64 and fm.flags.c_contiguous

    def test_single_bus_low_rate_shape(self):
        fm = featurize(self._window((632,), 20), (632,))
        assert fm.shape == (1, 10)

    def test_values_in_unit_interval(self):
        fm = featurize(self._window((632, 671), 64, seed=3), (632, 671))
        assert fm.min() >= 0.0 and fm.max() <= 1.0

    def test_rows_in_ascending_bus_order(self):
        window = self._window((632, 671, 675), 32, seed=9)
        fm = featurize(window, (675, 632, 671))
        _, det = dwt_db4_level1(clarke_mode1(*window[0]))
        np.testing.assert_array_equal(fm[0], normalize_abs_peak(det))

    def test_missing_bus(self):
        with pytest.raises(ValueError, match="671"):
            featurize(self._window((632,), 32), (632, 671))

    @pytest.mark.parametrize("bus", [634, 680, 0])
    def test_unknown_bus_named(self, bus):
        with pytest.raises(ValueError, match=f"bus {bus} is not a monitored bus"):
            featurize(self._window((632,), 32), (632, bus))

    def test_repeated_bus_named(self):
        with pytest.raises(ValueError, match=r"bus 632 repeated in \(632, 632\)"):
            featurize(self._window((632,), 32), (632, 632))

    @pytest.mark.parametrize("shape, message", [
        ((2, 3, 32), r"\(2, 3, 32\)"), ((3, 32), r"\(3, 32\)"),
        ((3, 2, 32), r"\(3, 2, 32\)"), ((3, 3, 31), "got 31"),
    ], ids=["two_buses", "no_phase_axis", "two_phases", "odd_width"])
    def test_wrong_window_shape_named(self, shape, message):
        with pytest.raises(ValueError, match=message):
            featurize(np.zeros(shape), (632,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_names_bus(self, bad):
        window = self._window((632, 671), 32, seed=4)
        window[1, 1, 5] = bad
        with pytest.raises(ValueError, match="bus 671"):
            featurize(window, (632, 671))

    def test_all_nan_window_rejected(self):
        window = np.full((3, 3, 32), np.nan)
        with pytest.raises(ValueError, match="bus 632.*non-finite"):
            featurize(window, (632,))

    def test_steady_detail_energy_far_below_event(self):
        steady = synthgrid.synth_steady(20000.0, seed=3, snr_db=math.inf)
        spec = synthgrid.EventSpec(
            synthgrid.EventClass.CAPACITOR_SWITCHING, 0.0, 675,
            {"size_index": 0},
        )
        event = synthgrid.synth_event(spec, 20000.0, 3, snr_db=math.inf)

        def detail_energy(record):
            window = synthgrid.extract_window(record, jitter=False)
            _, det = dwt_db4_level1(clarke_mode1(*window[0]))
            return float(det @ det)

        assert detail_energy(steady) < 0.1 * detail_energy(event)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from((632, 671, 675, 634, 680)), max_size=4))
def test_bus_list_gives_sorted_rows_or_value_error(buses):
    window = np.random.default_rng(27).normal(size=(len(MONITORED_BUSES), 3, 32))
    valid = (0 < len(buses) == len(set(buses))
             and set(buses) <= set(MONITORED_BUSES))
    try:
        rows = featurize(window, buses)
    except ValueError:
        assert not valid
        return
    assert valid
    full = featurize(window, MONITORED_BUSES)
    np.testing.assert_array_equal(
        rows, full[[MONITORED_BUSES.index(b) for b in sorted(buses)]])


@pytest.fixture(scope="module")
def event_windows():
    """One jittered window per record of a tiny 20 kHz dataset, two events
    of each class."""
    dataset = synthgrid.build_dataset(
        synthgrid.DatasetConfig(fs=20000.0, seed=3, grids=tiny_grids()))
    return [synthgrid.extract_window(rec) for rec in dataset.records]


class TestFeaturizeMetamorphic:
    """Relations between featurize outputs on synthesized event windows
    whose exact features are unknown."""

    def test_common_mode_signal_rejected(self, event_windows):
        rng = np.random.default_rng(28)
        for window in event_windows:
            common = rng.normal(0.0, 0.5, (len(MONITORED_BUSES), 1, window.shape[-1]))
            np.testing.assert_allclose(featurize(window + common, MONITORED_BUSES),
                                       featurize(window, MONITORED_BUSES),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0 ** -7, 0.5, 2.0, 2.0 ** 9])
    def test_power_of_two_scaling_bit_identical(self, event_windows, scale):
        for window in event_windows:
            np.testing.assert_array_equal(featurize(scale * window, MONITORED_BUSES),
                                          featurize(window, MONITORED_BUSES))

    def test_bus_order_irrelevant(self, event_windows):
        for window in event_windows:
            for size in (1, 2, 3):
                for subset in itertools.combinations(MONITORED_BUSES, size):
                    want = featurize(window, subset)
                    for order in itertools.permutations(subset):
                        np.testing.assert_array_equal(featurize(window, order), want)

    def test_single_bus_is_its_row(self, event_windows):
        for window in event_windows:
            full = featurize(window, MONITORED_BUSES)
            for i, bus in enumerate(MONITORED_BUSES):
                np.testing.assert_array_equal(featurize(window, (bus,)), full[i:i + 1])
