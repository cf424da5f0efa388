import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import signal
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swec import expharness, featpipe, store, synthgrid
from swec.synthgrid import (BUS_AMPLITUDE, BUS_PHASE, EVENT_TIME, ConfigError,
                            DatasetConfig, DatasetGrids, EventClass, EventSpec, F0,
                            MONITORED_BUSES, PHASE_OFFSETS, WaveformRecord,
                            build_dataset, derive_seed, extract_window,
                            synth_event, synth_steady, window_length)
from conftest import physical_memory, tiny_config, tiny_grids, write_non_finite

REFERENCE_HASHES = (Path(__file__).resolve().parents[1] / "swecbench"
                    / "reference_hashes.json")


def fault_spec(location=632, fault_type="LG", resistance=0, angle=0.0):
    return EventSpec(EventClass.FAULT, angle, location,
                     {"fault_type": fault_type, "resistance_index": resistance})


class TestSteady:
    def test_noiseless_channels_are_exact_sinusoids(self):
        fs = 20000.0
        rec = synth_steady(fs, seed=5, snr_db=math.inf)
        t = np.arange(rec.num_samples) / fs
        for b, bus in enumerate(MONITORED_BUSES):
            for p, phase in enumerate(PHASE_OFFSETS):
                expected = BUS_AMPLITUDE[bus] * np.cos(
                    2.0 * math.pi * F0 * t + phase + BUS_PHASE[bus]
                )
                np.testing.assert_array_equal(rec.samples[b, p], expected)

    @pytest.mark.parametrize("fs", [2000.0, 5000.0, 20000.0])
    def test_rms_is_amplitude_over_sqrt2(self, fs):
        rec = synth_steady(fs, seed=1, snr_db=math.inf)
        for b, bus in enumerate(MONITORED_BUSES):
            rms = np.sqrt((rec.samples[b] ** 2).mean(axis=1))
            np.testing.assert_allclose(
                rms, BUS_AMPLITUDE[bus] / math.sqrt(2.0), atol=1e-3
            )

    def test_deterministic(self):
        a = synth_steady(5000.0, seed=99)
        b = synth_steady(5000.0, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_scales_with_snr(self):
        quiet = synth_steady(5000.0, seed=2, snr_db=80.0)
        loud = synth_steady(5000.0, seed=2, snr_db=40.0)
        clean = synth_steady(5000.0, seed=2, snr_db=math.inf)
        r_quiet = np.std(quiet.samples - clean.samples)
        r_loud = np.std(loud.samples - clean.samples)
        assert r_loud == pytest.approx(100.0 * r_quiet, rel=1e-9)

    # the id names the rate and the fixed record length
    @pytest.mark.parametrize("fs", [pytest.param(500.0, id="500.0-0.15")])
    def test_parameter_errors(self, fs):
        with pytest.raises(ValueError):
            synth_steady(fs, seed=0)


class TestEvents:
    def test_zero_amplitude_cap_equals_steady(self, monkeypatch):
        monkeypatch.setattr(synthgrid, "CAP_AMPLITUDE", 0.0)
        spec = EventSpec(EventClass.CAPACITOR_SWITCHING, 45.0, 675, {"size_index": 3})
        event = synth_event(spec, 5000.0, seed=7)
        steady = synth_steady(5000.0, seed=7)
        np.testing.assert_array_equal(event.samples, steady.samples)

    def test_open_circuit_fault_equals_steady(self):
        spec = fault_spec(resistance=synthgrid.FAULT_RESISTANCE_LEVELS - 1)
        event = synth_event(spec, 5000.0, seed=4)
        steady = synth_steady(5000.0, seed=4)
        np.testing.assert_array_equal(event.samples, steady.samples)

    def test_event_deterministic(self):
        spec = EventSpec(EventClass.HIF, 90.0, 680, {"draw_index": 2})
        a = synth_event(spec, 10000.0, seed=13)
        b = synth_event(spec, 10000.0, seed=13)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_hif_stays_subthreshold(self):
        fs = 20000.0
        per_cycle = round(fs / F0)
        for draw in range(3):
            for angle in (0.0, 90.0, 270.0):
                spec = EventSpec(EventClass.HIF, angle, 680, {"draw_index": draw})
                seed = 1000 + draw
                event = synth_event(spec, fs, seed=seed)
                steady = synth_steady(fs, seed=seed)
                diff = event.samples - steady.samples
                n_cycles = diff.shape[2] // per_cycle
                cycles = diff[:, :, : n_cycles * per_cycle].reshape(
                    len(MONITORED_BUSES), 3, n_cycles, per_cycle
                )
                rms = np.sqrt((cycles ** 2).mean(axis=3))
                assert rms.max() <= 0.02

    def test_fault_sag_monotone_in_resistance(self):
        fs = 10000.0
        depths = []
        for res in range(synthgrid.FAULT_RESISTANCE_LEVELS):
            rec = synth_event(fault_spec(resistance=res), fs, seed=21,
                              snr_db=math.inf)
            tail = rec.samples[0, 0, -int(2 * fs / F0):]  # phase A at bus 632
            depths.append(1.0 - np.sqrt((tail ** 2).mean())
                          / (BUS_AMPLITUDE[632] / math.sqrt(2.0)))
        assert all(a >= b - 1e-9 for a, b in zip(depths, depths[1:]))
        assert depths[-1] == pytest.approx(0.0, abs=1e-3)

    def test_fault_sags_only_selected_phases(self):
        rec = synth_event(fault_spec(fault_type="LG"), 10000.0, seed=3,
                          snr_db=math.inf)
        steady = synth_steady(10000.0, seed=3, snr_db=math.inf)
        tail = slice(-int(10000.0 / F0), None)
        diff = np.abs(rec.samples[:, :, tail] - steady.samples[:, :, tail]).max(axis=2)
        assert diff[0, 0] > 0.05          # phase A sagged
        assert diff[0, 1] < 0.01          # phases B, C untouched after decay
        assert diff[0, 2] < 0.01

    def test_one_model_per_class_with_one_signature(self):
        assert list(synthgrid._MODELS) == list(EventClass)
        assert {tuple(inspect.signature(model).parameters)
                for model in synthgrid._MODELS.values()} == {
            ("axis", "spec", "theta", "atten", "seed")}

    def test_hif_disturbs_phase_a_from_the_onset_only(self):
        spec = EventSpec(EventClass.HIF, 30.0, 632, {"draw_index": 1})
        rec = synth_event(spec, 5000.0, seed=9, snr_db=math.inf)
        steady = synth_steady(5000.0, seed=9, snr_db=math.inf)
        onset = int(np.argmax(synthgrid._axis(5000.0).on))
        changed = rec.samples != steady.samples
        assert not changed[:, 1:].any() and not changed[:, :, :onset].any()
        assert changed[:, 0, onset + 1:].mean() > 0.9

    def test_attenuation_orders_disturbance_across_buses(self):
        spec = EventSpec(EventClass.CAPACITOR_SWITCHING, 0.0, 675, {"size_index": 0})
        rec = synth_event(spec, 20000.0, seed=5, snr_db=math.inf)
        steady = synth_steady(20000.0, seed=5, snr_db=math.inf)
        energy = ((rec.samples - steady.samples) ** 2).sum(axis=(1, 2))
        assert energy[2] > energy[1] > energy[0]  # 675 closest, 632 farthest


class TestDataset:
    def test_default_grid_counts(self):
        grids = DatasetGrids()
        assert grids.counts == (64, 144, 320, 72)
        assert sum(grids.counts) == 600

    def test_default_spec_expansion(self):
        specs = DatasetGrids().specs()
        labels = [int(s.event_class) for s in specs]
        assert len(specs) == 600
        assert [labels.count(c) for c in (1, 2, 3, 4)] == [64, 144, 320, 72]

    @pytest.mark.parametrize("field, value", [
        ("fs", math.inf), ("fs", math.nan), ("fs", 999.0), ("seed", -1)])
    def test_config_checked_when_built(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            DatasetConfig(**{field: value})

    @pytest.mark.parametrize("changes, says", [
        ({"cap_sizes": -1, "cap_angles": -2}, "cap_sizes: -1 is below 1"),
        ({"hif_draws": 0}, "hif_draws: 0 is below 1"),
        ({"xfmr_taps": 13}, "xfmr_taps: 13 exceeds the 12 levels"),
        ({"fault_resistances": 6}, "fault_resistances: 6 exceeds the 5 levels"),
        ({"fault_types": ("LG", "XX")}, "fault_types: 'XX' not in"),
        ({"fault_types": ()}, "fault_types: empty"),
        ({"fault_locations": (671,)}, r"fault_locations: 671 not in \(632, 634, 675, "
                                      r"680\)"),
        ({"fault_locations": (632, 632), "fault_angles": 1},
         r"fault_locations: \(632, 632\) repeats 632"),
        ({"hif_locations": (999,)}, "hif_locations: 999 not in"),
        ({"hif_locations": (632, 632), "hif_angles": 1}, "hif_locations: .* repeats"),
    ], ids=["negative_counts", "zero_count", "taps", "resistances", "fault_type",
            "no_fault_types", "fault_location", "repeated_fault_location",
            "hif_location", "repeated_hif_location"])
    def test_grid_field_checked_when_built(self, changes, says):
        with pytest.raises(ConfigError, match=rf"^{says}"):
            dataclasses.replace(tiny_grids(), **changes)

    def test_grid_product_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            DatasetGrids(cap_sizes=7)

    def test_build_counts_and_determinism(self):
        cfg = DatasetConfig(fs=2000.0, seed=3, grids=tiny_grids())
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert a.config.grids.counts == (2, 2, 2, 2)
        assert len(a) == 8
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)

    def test_records_are_views_of_one_array(self, tiny_dataset):
        samples = tiny_dataset.samples
        assert samples.shape == (8, len(MONITORED_BUSES), 3, 300)
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        for i, rec in enumerate(tiny_dataset.records):
            assert rec.samples.base is samples
            np.testing.assert_array_equal(rec.samples, samples[i])
            np.testing.assert_array_equal(
                rec.samples, synth_event(rec.spec, rec.fs, rec.seed).samples)

    def test_dataset_is_config_plus_samples(self, tiny_dataset):
        assert [f.name for f in dataclasses.fields(synthgrid.Dataset)] == [
            "config", "samples"]
        cfg = tiny_dataset.config
        specs = cfg.grids.specs()
        assert [r.spec for r in tiny_dataset.records] == specs
        assert [r.seed for r in tiny_dataset.records] == [
            derive_seed(cfg.seed, i) for i in range(len(specs))]
        # pinned: every stored waveform's sha256 depends on these seeds
        assert tiny_dataset.records[7].seed == 17721808871337596510
        assert tiny_dataset.labels.tolist() == [int(s.event_class) for s in specs]
        assert tiny_dataset.records is tiny_dataset.records

    def test_axis_cached_read_only(self):
        axis = synthgrid._axis(5000.0)
        assert synthgrid._axis(5000.0) is axis
        n = round(5000.0 * synthgrid.DURATION)
        shapes = {"t": (n,), "u": (n,), "on": (n,), "angle": (3, n),
                  "clean": (3, 3, n), "asym": (3, 3, n), "shape": (3, 3, n)}
        assert {k: v.shape for k, v in vars(axis).items()} == shapes
        for array in vars(axis).values():
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        np.testing.assert_array_equal(axis.t, np.arange(n) / 5000.0)
        np.testing.assert_array_equal(axis.on, axis.t >= EVENT_TIME)
        np.testing.assert_array_equal(axis.u, np.where(axis.on, axis.t - EVENT_TIME, 0.0))
        with pytest.raises(ConfigError, match="^fs: sampling rate 999.0 Hz"):
            synthgrid._axis(999.0)

    def test_record_seeds_stable_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds[0] == derive_seed(42, 0)


@st.composite
def small_grids(draw):
    """A valid DatasetGrids of at most a few hundred specs, every count up
    to its table's levels and every list a subset of its known entries."""
    def subset(known):
        return tuple(draw(st.lists(st.sampled_from(known), min_size=1, unique=True)))

    g = dict(cap_sizes=draw(st.integers(1, synthgrid.CAP_SIZE_LEVELS)),
             cap_angles=draw(st.integers(1, 5)),
             xfmr_taps=draw(st.integers(1, synthgrid.TAP_LEVELS)),
             xfmr_angles=draw(st.integers(1, 5)),
             fault_types=subset(synthgrid.FAULT_TYPES),
             fault_locations=subset(synthgrid.FAULT_LOCATIONS),
             fault_resistances=draw(st.integers(1, synthgrid.FAULT_RESISTANCE_LEVELS - 1)),
             fault_angles=draw(st.integers(1, 3)),
             hif_locations=subset(tuple(synthgrid.ATTENUATION)),
             hif_angles=draw(st.integers(1, 3)),
             hif_draws=draw(st.integers(1, 8)))
    counts = (g["cap_sizes"] * g["cap_angles"], g["xfmr_taps"] * g["xfmr_angles"],
              len(g["fault_types"]) * len(g["fault_locations"])
              * g["fault_resistances"] * g["fault_angles"],
              len(g["hif_locations"]) * g["hif_angles"] * g["hif_draws"])
    return DatasetGrids(**g, declared_counts=counts)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(grids=small_grids())
def test_grid_specs_stay_in_their_tables(grids):
    """What EventSpec once checked at run time holds for every spec a valid
    grid expands to."""
    specs = grids.specs()
    assert [sum(s.event_class is c for s in specs) for c in EventClass] == list(grids.counts)
    params = {EventClass.CAPACITOR_SWITCHING: {"size_index"},
              EventClass.TRANSFORMER_ENERGIZATION: {"tap_index"},
              EventClass.FAULT: {"fault_type", "resistance_index"},
              EventClass.HIF: {"draw_index"}}
    for spec in specs:
        p = spec.class_params
        assert 0.0 <= spec.inception_angle < 360.0
        assert spec.location in synthgrid.ATTENUATION
        assert set(p) == params[spec.event_class]
        if spec.event_class is EventClass.CAPACITOR_SWITCHING:
            assert 0 <= p["size_index"] < synthgrid.CAP_SIZE_LEVELS
        elif spec.event_class is EventClass.TRANSFORMER_ENERGIZATION:
            assert 0 <= p["tap_index"] < synthgrid.TAP_LEVELS
        elif spec.event_class is EventClass.FAULT:
            assert spec.location in synthgrid.FAULT_LOCATIONS
            assert p["fault_type"] in synthgrid.FAULT_TYPES
            assert 0 <= p["resistance_index"] < synthgrid.FAULT_RESISTANCE_LEVELS
        else:
            assert p["draw_index"] >= 0


def _bench_rep():
    """The benchmark's rep module, which names each workload's dataset config
    and reference key."""
    bench = str(REFERENCE_HASHES.parent)
    sys.path.insert(0, bench)
    try:
        import rep
    finally:
        sys.path.remove(bench)
    return rep


class TestSplitBuild:
    """A build of at least 2 * MIN_RECORDS_PER_PROCESS records splits them
    over forked processes, which write into one shared array."""

    # 132 records: 64 capacitor, 64 transformer, 2 fault, 2 HIF
    GRIDS = DatasetGrids(cap_sizes=8, cap_angles=8, xfmr_taps=8, xfmr_angles=8,
                         fault_types=("LG",), fault_locations=(632,),
                         fault_resistances=1, fault_angles=2, hif_locations=(632,),
                         hif_angles=2, hif_draws=1, declared_counts=(64, 64, 2, 2))

    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_split_build_equals_serial_synthesis(self, two_cores, monkeypatch):
        parent_share, synthesize = [], synthgrid._synthesize

        def counted(records, fs):  # the helper's calls count in its own copy
            parent_share.append(len(records))
            synthesize(records, fs)

        monkeypatch.setattr(synthgrid, "_synthesize", counted)
        config = DatasetConfig(fs=1000.0, seed=5, grids=self.GRIDS)
        dataset = build_dataset(config)
        assert parent_share == [66]
        assert dataset.samples.flags.c_contiguous
        want = np.stack([synth_event(spec, config.fs, derive_seed(config.seed, i)).samples
                         for i, spec in enumerate(self.GRIDS.specs())])
        assert want.shape == dataset.samples.shape == (132, 3, 3, 150)
        assert want.tobytes() == dataset.samples.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("death, code", [("raise", 1), ("kill", -signal.SIGKILL)])
    def test_failing_helper_fails_the_build(self, two_cores, monkeypatch, death, code):
        parent, synth = os.getpid(), synthgrid.synth_event

        def failing(spec, fs, seed):
            if os.getpid() != parent and seed == derive_seed(5, 101):
                if death == "raise":
                    raise RuntimeError("synthesis failed")
                os.kill(os.getpid(), signal.SIGKILL)
            return synth(spec, fs, seed)

        monkeypatch.setattr(synthgrid, "synth_event", failing)
        with pytest.raises(RuntimeError, match=rf"^records 1::2 of 132: synthesis "
                           rf"process exited with code {code}$"):
            build_dataset(DatasetConfig(fs=1000.0, seed=5, grids=self.GRIDS))
        assert multiprocessing.active_children() == []

    def test_small_build_starts_no_process(self, two_cores, monkeypatch):
        def no_fork():
            raise AssertionError("a small build forked")

        monkeypatch.setattr(os, "fork", no_fork)
        grids = dataclasses.replace(self.GRIDS, cap_sizes=1, xfmr_taps=1,
                                    declared_counts=(8, 8, 2, 2))
        assert len(build_dataset(DatasetConfig(fs=1000.0, grids=grids))) == 20


class TestSizeCheck:
    """build_dataset compares the samples array with physical memory before
    it maps one; tested by its arithmetic, never by allocating."""

    @pytest.mark.parametrize("pages, fits", [(2700, True), (2699, False)])
    def test_array_larger_than_memory_is_refused_before_mmap(self, pages, fits,
                                                             monkeypatch):
        import mmap
        real_mmap, mapped = mmap.mmap, []
        monkeypatch.setattr(os, "sysconf", physical_memory(pages, page_size=64))
        monkeypatch.setattr(mmap, "mmap", lambda *a: mapped.append(a) or real_mmap(*a))
        config = DatasetConfig(fs=2000.0, grids=tiny_grids())  # 172,800 bytes
        if fits:
            assert len(build_dataset(config)) == 8
            assert mapped == [(-1, 172800)]
        else:
            with pytest.raises(ConfigError, match=r"^fs: 2000 Hz needs a samples array "
                               r"of shape \(8, 3, 3, 300\), 0.000173 GB, more than "
                               r"the 0.000173 GB of physical memory$"):
                build_dataset(config)
            assert mapped == []


class TestReferenceHashes:
    def test_builds_match_reference_hashes(self):
        """Every 8-record dataset the tiny benchmark workloads build, and one
        600-record 5 kHz and one 20 kHz dataset, against the recorded
        waveform sha256."""
        rep = _bench_rep()
        reference = json.loads(REFERENCE_HASHES.read_text())
        configs = [rep.dataset_config(workload, seed)
                   for workload in ("compare-tiny", "cli-tiny")
                   for seed in range(rep.REFERENCE_SEEDS)]
        assert {rep.reference_key(c) for c in configs} == {
            key for key in reference if key.startswith("8@4000/")}
        configs += [rep.dataset_config("cli-5k", 0), rep.dataset_config("compare-20k", 0)]
        for config in configs:
            key = rep.reference_key(config)
            assert rep.waveform_sha256(build_dataset(config)) == reference[key], key

    # The default config's repeat-0 build at each table rate but the top one,
    # whose build is compare-20k's seed-0 build, keyed in the reference file.
    DEFAULT_BUILD_HASHES = {
        1250.0: "95f3763af857dcc7d4642256aeb8b8c17fdc5571db4bf17f420ef4af89454c58",
        2500.0: "9483ba298ab7a1bb1357a59aba8d69df563fe40dce4609e4d9fa00b6f91da7c0",
        5000.0: "49e49088036a098765c9c777595a9ff3ac44310261916f616d1c32569ecc3cdc",
        10000.0: "8ce3f77160f3a62fae17a8a135f8379a05f89e6937365e00d8f356d7ebd6df18",
    }

    @staticmethod
    def default_build_config(fs):
        config = expharness.ExperimentConfig()
        ds_seed = derive_seed(config.seed, 0, expharness._STAGE_DATASET, fs)
        return config.dataset_config(fs, ds_seed)

    def test_pins_cover_every_table_rate(self):
        top = max(expharness.FS_LIST)
        assert set(self.DEFAULT_BUILD_HASHES) | {top} == set(expharness.FS_LIST)
        assert self.default_build_config(top) == _bench_rep().dataset_config(
            "compare-20k", 0)

    @pytest.mark.parametrize("fs", sorted(DEFAULT_BUILD_HASHES))
    def test_default_build_matches_pinned_hash(self, fs):
        dataset = build_dataset(self.default_build_config(fs))
        assert _bench_rep().waveform_sha256(dataset) == self.DEFAULT_BUILD_HASHES[fs]


class TestWindow:
    @pytest.mark.parametrize("fs,w", [(20000.0, 332), (1250.0, 20), (2000.0, 32)])
    def test_window_length(self, fs, w):
        assert window_length(fs) == w

    def test_zero_jitter_starts_at_event_sample(self):
        rec = synth_steady(20000.0, seed=0)
        window = extract_window(rec, jitter=False)
        start = round(EVENT_TIME * rec.fs)
        for i, bus in enumerate(MONITORED_BUSES):
            np.testing.assert_array_equal(
                window[i], rec.samples[i, :, start:start + 332]
            )

    def test_jitter_is_deterministic_and_bounded(self):
        spec = EventSpec(EventClass.HIF, 0.0, 680, {"draw_index": 0})
        rec = synth_event(spec, 20000.0, seed=17)
        w1 = extract_window(rec)
        w2 = extract_window(rec)
        np.testing.assert_array_equal(w1[0], w2[0])
        base = round(EVENT_TIME * rec.fs)
        # jittered start within [0, 0.5 ms] of the event sample
        for shift in range(0, 11):
            if np.array_equal(w1[0], rec.samples[0, :, base + shift:base + shift + 332]):
                break
        else:
            pytest.fail("window start outside the jitter bound")

    def test_window_beyond_record_end(self):
        rec = synth_steady(20000.0, seed=0)
        short = WaveformRecord(rec.spec, rec.fs, rec.samples[:, :, :1100], rec.seed)
        with pytest.raises(ValueError, match="exceeds"):
            extract_window(short, jitter=False)

    def test_window_is_a_view_of_the_record(self, tiny_dataset):
        rec = tiny_dataset.records[3]
        window = extract_window(rec)
        assert window.shape == (len(MONITORED_BUSES), 3, window_length(rec.fs))
        assert window.base is tiny_dataset.samples


class TestSeparabilityFloor:
    def test_class_feature_means_pairwise_distinct(self):
        ds = build_dataset(DatasetConfig(fs=2000.0, seed=5, grids=tiny_grids()))
        by_class = {}
        for rec in ds.records:
            fm = featpipe.featurize(extract_window(rec), MONITORED_BUSES)
            by_class.setdefault(rec.label, []).append(fm)
        means = {c: np.mean(v, axis=0) for c, v in by_class.items()}
        codes = sorted(means)
        for i, a in enumerate(codes):
            for b in codes[i + 1:]:
                assert np.linalg.norm(means[a] - means[b]) > 0.0


class TestPersistence:
    def test_round_trip_bit_identical(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        loaded = synthgrid.load_dataset(out)
        assert loaded.config.grids.counts == tiny_dataset.config.grids.counts
        assert loaded.config.fs == tiny_dataset.config.fs
        for ra, rb in zip(tiny_dataset.records, loaded.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)
            assert ra.seed == rb.seed
            assert ra.spec == rb.spec

    def test_waveform_array_layout(self, tmp_path):
        # the tiny dataset the benchmark's cli-tiny workload builds at seed 5
        config = tiny_config(seed=5).dataset_config(4000.0, 5)
        dataset = build_dataset(config)
        out = synthgrid.save_dataset(dataset, tmp_path / "ds.bin")
        raw = out.read_bytes()
        assert raw[:8] == b"SWDS" + struct.pack("<I", 2)
        body = _body_offset(raw)
        assert body % 8 == 0 and raw[12:body].rstrip(b" ").endswith(b"}")
        samples = raw[body:-32]
        assert len(samples) == 8 * 8 * 3 * 3 * 600
        assert hashlib.sha256(samples).hexdigest() == \
            json.loads(REFERENCE_HASHES.read_text())["8@4000/5"]
        assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()
        loaded = synthgrid.load_dataset(out)
        np.testing.assert_array_equal(loaded.samples, dataset.samples)
        assert loaded.samples.flags.writeable and loaded.samples.flags.c_contiguous
        assert all(np.shares_memory(rec.samples, loaded.samples) for rec in loaded.records)

    def test_manifest_is_config_plus_digest(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        raw = out.read_bytes()
        header = json.loads(raw[12:_body_offset(raw)])
        assert header == {
            "config": synthgrid.dataclass_to_json(tiny_dataset.config),
            "tensors": [["samples", list(tiny_dataset.samples.shape)]]}
        config_json = json.dumps(synthgrid.dataclass_to_json(tiny_dataset.config))
        assert synthgrid.config_sha256(tiny_dataset.config) == \
            hashlib.sha256(config_json.encode()).hexdigest()
        assert synthgrid.load_dataset(out).config == tiny_dataset.config

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "ds.bin"
        path.write_bytes(b"SWDS" + struct.pack("<II", 2, 9) + b"{not json")
        with pytest.raises(ValueError, match=r"ds\.bin: offset 8: bad header"):
            synthgrid.load_dataset(path)

    def test_undecodable_manifest_named(self, tmp_path):
        path = tmp_path / "ds.bin"
        path.write_bytes(b"SWDS" + struct.pack("<II", 2, 12) + b'{"config":\xb4}')
        with pytest.raises(ValueError, match=r"ds\.bin: offset 8: bad header"):
            synthgrid.load_dataset(path)

    def test_manifest_grids_in_declaration_order(self, tiny_dataset, tmp_path):
        # the header sorts its keys; config_sha256 hashes declaration order,
        # which the loaded config has again
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        loaded = synthgrid.load_dataset(out).config
        grids = synthgrid.dataclass_to_json(loaded)["grids"]
        assert list(grids) == [f.name for f in dataclasses.fields(DatasetGrids)]
        assert synthgrid.config_sha256(loaded) == \
            synthgrid.config_sha256(tiny_dataset.config)

    def test_manifest_grid_wrong_type(self, tiny_dataset, tmp_path):
        path = _resave(tiny_dataset, tmp_path,
                       lambda c: c["grids"].update(cap_sizes="1"))
        with pytest.raises(ValueError, match=r"ds\.bin: offset 8: "
                           r"config\.grids\.cap_sizes: expected int"):
            synthgrid.load_dataset(path)

    def test_missing_grid_key_named_before_the_grid_checks(self, tiny_dataset,
                                                           tmp_path):
        # the 6 draws hif_draws defaults to do not match the declared counts,
        # but the missing key is the cause
        path = _resave(tiny_dataset, tmp_path, lambda c: c["grids"].pop("hif_draws"))
        with pytest.raises(ValueError, match=r"ds\.bin: offset 8: config: missing "
                           r"keys \['grids\.hif_draws'\]; re-run `swec generate`"):
            synthgrid.load_dataset(path)

    @pytest.mark.parametrize("damage, message", [
        # hif_draws falls back to 6 draws, which the declared counts match
        (lambda c: c["grids"].pop("hif_draws") and c["grids"].update(
            declared_counts=[2, 2, 2, 12]),
         r"config: missing keys \['grids\.hif_draws'\]"),
        (lambda c: c.pop("seed"), r"config: missing keys \['seed'\]"),
        (None, "truncated file"),
        (lambda c: c.update(grids=[]), "config.grids: expected an object, got list"),
        (lambda c: c["grids"].update(fault_locations=[671]),
         r"config\.grids\.fault_locations: 671 not in \(632, 634, 675, 680\)"),
        (lambda c: c.update(fs=math.inf), r"config\.fs: sampling rate inf Hz"),
    ], ids=["grid_key", "config_key", "digest_key", "grids_not_object",
            "grid_value", "infinite_fs"])
    def test_inconsistent_manifest_rejected(self, damage, message, tiny_dataset,
                                            tmp_path):
        if damage is None:  # the file without its digest
            path = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
            path.write_bytes(path.read_bytes()[:-32])
        else:  # a re-digested file whose header holds the damaged config
            path = _resave(tiny_dataset, tmp_path, damage)
        with pytest.raises(ValueError, match=r"ds\.bin: offset [0-9]+: " + message):
            synthgrid.load_dataset(path)

    def test_edited_config_rejected(self, tiny_dataset, tmp_path):
        # same record count and array shape, but per-class counts that would
        # relabel records: only the digest tells
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        raw = out.read_bytes()
        for old, new in ((b'"cap_angles":2', b'"cap_angles":3'),
                         (b'"xfmr_angles":2', b'"xfmr_angles":1'),
                         (b'"declared_counts":[2,2,2,2]',
                          b'"declared_counts":[3,1,2,2]')):
            assert raw.count(old) == 1
            raw = raw.replace(old, new)
        out.write_bytes(raw)
        with pytest.raises(ValueError, match=r"ds\.bin: offset [0-9]+: sha256 "
                           r"differs from the contents"):
            synthgrid.load_dataset(out)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"ds\.bin"):
            synthgrid.load_dataset(tmp_path / "ds.bin")

    @pytest.mark.parametrize("damage, message", [
        (lambda path, ds: path.write_bytes(path.read_bytes()[:-8]),
         r"ds\.bin: offset [0-9]+: truncated file"),
        (lambda path, ds: _resave(ds, path.parent, samples=ds.samples[:-1]),
         r"ds\.bin: offset [0-9]+: tensor 'samples' has shape \(7, 3, 3, 300\), "
         r"expected \(8, 3, 3, 300\)"),
        (lambda path, ds: _flip_byte(path, -1000),
         r"ds\.bin: offset [0-9]+: sha256 differs"),
        (lambda path, ds: _write_nan(path, ds),
         r"ds\.bin: offset [0-9]+: non-finite value in tensor 'samples'"),
        (lambda path, ds: path.unlink(), r"No such file or directory: '.*ds\.bin'"),
    ], ids=["truncated", "header_one_record_short", "flipped_byte", "nan_rehashed",
            "missing_file"])
    def test_damaged_waveforms_rejected(self, damage, message, tiny_dataset,
                                        tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        damage(out, tiny_dataset)
        with pytest.raises((ValueError, OSError), match=message):
            synthgrid.load_dataset(out)

    def test_non_finite_record_offset(self, tiny_dataset, tmp_path):
        path = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        _write_nan(path, tiny_dataset)
        record = _body_offset(path.read_bytes()) + 3 * tiny_dataset.samples[0].nbytes
        with pytest.raises(ValueError, match=rf"offset {record}: non-finite"):
            synthgrid.load_dataset(path)
        # the writer refuses the same record before it opens the file
        path.unlink()
        with pytest.raises(ValueError, match=rf"ds\.bin: offset {record}: non-finite "
                           r"value in tensor 'samples'$"):
            _resave(tiny_dataset, tmp_path, samples=_with_nan(tiny_dataset.samples))
        assert not path.exists()

    def test_schema_version_1_rejected_first(self, tmp_path):
        # a dataset directory of any earlier schema, down to the CSV store
        old = tmp_path / "ds"
        old.mkdir()
        (old / "manifest.json").write_text('{"schema_version": 1}')
        with pytest.raises(ValueError, match=r"ds: a dataset directory of an "
                           r"earlier format; re-run `swec generate`"):
            synthgrid.load_dataset(old)

    def test_schema_version_3_rejected(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds.bin")
        raw = bytearray(out.read_bytes())
        raw[4:8] = struct.pack("<I", 3)
        out.write_bytes(raw)
        with pytest.raises(ValueError, match=r"ds\.bin: offset 4: format version 3, "
                           r"expected 2; re-run `swec generate`"):
            synthgrid.load_dataset(out)


@pytest.fixture(scope="module")
def saved_tiny_4k(tmp_path_factory):
    """A tiny 4 kHz dataset file and its bytes."""
    config = tiny_config(seed=5).dataset_config(4000.0, 5)
    out = synthgrid.save_dataset(build_dataset(config),
                                 tmp_path_factory.mktemp("tiny4k") / "ds.bin")
    return out, out.read_bytes()


@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data(), bit=st.integers(0, 7))
def test_manifest_bit_flip_is_harmless_or_rejected(saved_tiny_4k, data, bit):
    """Every flipped bit is rejected, naming the file and an offset: the
    draws cover the magic, the version, the header length, the header, the
    samples and the digest."""
    out, raw = saved_tiny_4k
    body = _body_offset(raw)
    regions = [(0, 4), (4, 8), (8, 12), (12, body), (body, len(raw) - 32),
               (len(raw) - 32, len(raw))]
    offset = data.draw(st.one_of(*(st.integers(a, b - 1) for a, b in regions)))
    flipped = bytearray(raw)
    flipped[offset] ^= 1 << bit
    try:
        out.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match=r"ds\.bin: offset [0-9]+: "):
            synthgrid.load_dataset(out)
    finally:
        out.write_bytes(raw)


def _body_offset(raw: bytes) -> int:
    """Offset of the first tensor of a tensor file."""
    return 12 + struct.unpack_from("<I", raw, 8)[0]


def _resave(dataset, folder, change_config=None, samples=None):
    """folder/ds.bin holding dataset's config, changed in place by
    change_config, and samples (the dataset's by default), digest
    recomputed to match."""
    config = synthgrid.dataclass_to_json(dataset.config)
    if change_config is not None:
        change_config(config)
    path = folder / "ds.bin"
    store.write_tensor_file(path, synthgrid.DATASET_MAGIC, {
        "samples": dataset.samples if samples is None else samples}, config=config)
    return path


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _with_nan(samples):
    samples = samples.copy()
    samples[3, 1, 2, 40] = np.nan
    return samples


def _write_nan(path, dataset):
    """The saved dataset at path with the sample _with_nan sets made NaN and
    the digest recomputed."""
    index = np.ravel_multi_index((3, 1, 2, 40), dataset.samples.shape)
    write_non_finite(path, _body_offset(path.read_bytes()) + 8 * int(index))
