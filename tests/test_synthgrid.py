import dataclasses
import json
import math

import numpy as np
import pytest

from swec import featpipe, synthgrid
from swec.synthgrid import (BUS_AMPLITUDE, BUS_PHASE, ConfigError, DatasetConfig,
                            DatasetGrids, EventClass, EventSpec, F0,
                            MONITORED_BUSES, PHASE_OFFSETS, WaveformRecord,
                            build_dataset, extract_window, record_seed,
                            synth_event, synth_steady, window_length)
from conftest import tiny_grids


def fault_spec(location=632, fault_type="LG", resistance=0, angle=0.0):
    return EventSpec(EventClass.FAULT, angle, location,
                     {"fault_type": fault_type, "resistance_index": resistance})


class TestSteady:
    def test_noiseless_channels_are_exact_sinusoids(self):
        fs, duration = 20000.0, 0.15
        rec = synth_steady(fs, duration, seed=5, snr_db=math.inf)
        t = np.arange(rec.num_samples) / fs
        for b, bus in enumerate(MONITORED_BUSES):
            for p, phase in enumerate(PHASE_OFFSETS):
                expected = BUS_AMPLITUDE[bus] * np.cos(
                    2.0 * math.pi * F0 * t + phase + BUS_PHASE[bus]
                )
                np.testing.assert_array_equal(rec.samples[b, p], expected)

    @pytest.mark.parametrize("fs", [2000.0, 5000.0, 20000.0])
    def test_rms_is_amplitude_over_sqrt2(self, fs):
        rec = synth_steady(fs, 0.15, seed=1, snr_db=math.inf)
        for b, bus in enumerate(MONITORED_BUSES):
            rms = np.sqrt((rec.samples[b] ** 2).mean(axis=1))
            np.testing.assert_allclose(
                rms, BUS_AMPLITUDE[bus] / math.sqrt(2.0), atol=1e-3
            )

    def test_deterministic(self):
        a = synth_steady(5000.0, 0.15, seed=99)
        b = synth_steady(5000.0, 0.15, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_scales_with_snr(self):
        quiet = synth_steady(5000.0, 0.15, seed=2, snr_db=80.0)
        loud = synth_steady(5000.0, 0.15, seed=2, snr_db=40.0)
        clean = synth_steady(5000.0, 0.15, seed=2, snr_db=math.inf)
        r_quiet = np.std(quiet.samples - clean.samples)
        r_loud = np.std(loud.samples - clean.samples)
        assert r_loud == pytest.approx(100.0 * r_quiet, rel=1e-9)

    @pytest.mark.parametrize("fs,duration", [(500.0, 0.15), (5000.0, 0.05)])
    def test_parameter_errors(self, fs, duration):
        with pytest.raises(ValueError):
            synth_steady(fs, duration, seed=0)


class TestEvents:
    def test_zero_amplitude_cap_equals_steady(self):
        spec = EventSpec(EventClass.CAPACITOR_SWITCHING, 45.0, 675,
                         {"size_index": 3, "amplitude": 0.0})
        event = synth_event(spec, 5000.0, seed=7)
        steady = synth_steady(5000.0, 0.15, seed=7)
        np.testing.assert_array_equal(event.samples, steady.samples)

    def test_open_circuit_fault_equals_steady(self):
        spec = fault_spec(resistance=synthgrid.FAULT_RESISTANCE_LEVELS - 1)
        event = synth_event(spec, 5000.0, seed=4)
        steady = synth_steady(5000.0, 0.15, seed=4)
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
                steady = synth_steady(fs, 0.15, seed=seed)
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
        steady = synth_steady(10000.0, 0.15, seed=3, snr_db=math.inf)
        tail = slice(-int(10000.0 / F0), None)
        diff = np.abs(rec.samples[:, :, tail] - steady.samples[:, :, tail]).max(axis=2)
        assert diff[0, 0] > 0.05          # phase A sagged
        assert diff[0, 1] < 0.01          # phases B, C untouched after decay
        assert diff[0, 2] < 0.01

    def test_attenuation_orders_disturbance_across_buses(self):
        spec = EventSpec(EventClass.CAPACITOR_SWITCHING, 0.0, 675,
                         {"size_index": 0, "amplitude": 0.25})
        rec = synth_event(spec, 20000.0, seed=5, snr_db=math.inf)
        steady = synth_steady(20000.0, 0.15, seed=5, snr_db=math.inf)
        energy = ((rec.samples - steady.samples) ** 2).sum(axis=(1, 2))
        assert energy[2] > energy[1] > energy[0]  # 675 closest, 632 farthest

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            EventSpec(EventClass.FAULT, 0.0, 671,
                      {"fault_type": "LG", "resistance_index": 0})
        with pytest.raises(ValueError):
            EventSpec(EventClass.CAPACITOR_SWITCHING, 0.0, 675,
                      {"size_index": 3})
        with pytest.raises(ValueError):
            EventSpec(EventClass.HIF, 360.0, 680, {"draw_index": 0})
        with pytest.raises(ValueError):
            EventSpec(EventClass.FAULT, 0.0, 632,
                      {"fault_type": "XX", "resistance_index": 0})


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

    def test_grid_product_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            DatasetGrids(cap_sizes=7)

    def test_build_counts_and_determinism(self):
        cfg = DatasetConfig(fs=2000.0, seed=3, grids=tiny_grids())
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert a.counts == (2, 2, 2, 2)
        assert len(a) == 8
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)

    def test_record_seeds_stable_and_distinct(self):
        seeds = [record_seed(42, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds[0] == record_seed(42, 0)


class TestWindow:
    @pytest.mark.parametrize("fs,w", [(20000.0, 332), (1250.0, 20), (2000.0, 32)])
    def test_window_length(self, fs, w):
        assert window_length(fs) == w

    def test_zero_jitter_starts_at_event_sample(self):
        rec = synth_steady(20000.0, 0.15, seed=0)
        window = extract_window(rec, jitter=False)
        start = round(rec.event_time * rec.fs)
        for i, bus in enumerate(MONITORED_BUSES):
            np.testing.assert_array_equal(
                window[bus], rec.samples[i, :, start:start + 332]
            )

    def test_jitter_is_deterministic_and_bounded(self):
        spec = EventSpec(EventClass.HIF, 0.0, 680, {"draw_index": 0})
        rec = synth_event(spec, 20000.0, seed=17)
        w1 = extract_window(rec)
        w2 = extract_window(rec)
        np.testing.assert_array_equal(w1[632], w2[632])
        base = round(rec.event_time * rec.fs)
        # jittered start within [0, 0.5 ms] of the event sample
        for shift in range(0, 11):
            if np.array_equal(w1[632], rec.samples[0, :, base + shift:base + shift + 332]):
                break
        else:
            pytest.fail("window start outside the jitter bound")

    def test_window_beyond_record_end(self):
        rec = synth_steady(20000.0, 0.15, seed=0)
        short = WaveformRecord(rec.spec, rec.fs, rec.duration,
                               rec.samples[:, :, :1100], rec.seed)
        with pytest.raises(ValueError, match="exceeds"):
            extract_window(short, jitter=False)

    def test_fs_mismatch_rejected(self):
        rec = synth_steady(20000.0, 0.15, seed=0)
        with pytest.raises(ValueError):
            extract_window(rec, fs=10000.0)


class TestSeparabilityFloor:
    def test_class_feature_means_pairwise_distinct(self):
        ds = build_dataset(DatasetConfig(fs=2000.0, seed=5, grids=tiny_grids()))
        by_class = {}
        for rec in ds.records:
            fm = featpipe.featurize(extract_window(rec), MONITORED_BUSES)
            by_class.setdefault(rec.label, []).append(fm.values)
        means = {c: np.mean(v, axis=0) for c, v in by_class.items()}
        codes = sorted(means)
        for i, a in enumerate(codes):
            for b in codes[i + 1:]:
                assert np.linalg.norm(means[a] - means[b]) > 0.0


class TestPersistence:
    def test_round_trip_bit_identical(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        loaded = synthgrid.load_dataset(out)
        assert loaded.counts == tiny_dataset.counts
        assert loaded.fs == tiny_dataset.fs
        for ra, rb in zip(tiny_dataset.records, loaded.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)
            assert ra.seed == rb.seed
            assert ra.spec == rb.spec

    def test_waveform_csv_layout(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        header = (out / "waveforms" / "evt_0.csv").read_text().splitlines()[0]
        assert header == ("t,632_va,632_vb,632_vc,671_va,671_vb,671_vc,"
                          "675_va,675_vb,675_vc")

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            synthgrid.load_dataset(tmp_path)

    def test_manifest_grids_in_declaration_order(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        grids = json.loads((out / "manifest.json").read_text())["grids"]
        assert list(grids) == [f.name for f in dataclasses.fields(DatasetGrids)]

    def test_manifest_grid_wrong_type(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["grids"]["cap_sizes"] = "1"
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=r"grids\.cap_sizes"):
            synthgrid.load_dataset(out)

    @pytest.mark.parametrize("damage, message", [
        (lambda m: m["grids"].pop("hif_draws"), "grids: missing key 'hif_draws'"),
        (lambda m: m["records"][3].pop("seed"), "record 3: missing key 'seed'"),
        (lambda m: m["records"].pop(), r"7 records with class counts \(2, 2, 2, 1\)"),
        (lambda m: m["records"][2].update(index=5), "record 2: index 5, expected 2"),
        (lambda m: m.update(counts=[2, 2, 3, 1]), r"8 records .* counts \[2, 2, 3, 1\]"),
        (lambda m: m["records"][1]["spec"].update(class_params=5), "record 1: spec"),
        (lambda m: m["records"][1]["spec"].update({"class": 9}), "record 1: spec"),
    ], ids=["grid_key", "record_key", "record_dropped", "record_index", "counts",
            "spec_params_type", "spec_class"])
    def test_inconsistent_manifest_rejected(self, damage, message, tiny_dataset,
                                            tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        manifest = json.loads((out / "manifest.json").read_text())
        damage(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: " + message):
            synthgrid.load_dataset(out)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            synthgrid.load_dataset(tmp_path)

    def test_corrupt_waveform_line_reports_location(self, tiny_dataset, tmp_path):
        out = synthgrid.save_dataset(tiny_dataset, tmp_path / "ds")
        target = out / "waveforms" / "evt_1.csv"
        lines = target.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",bad,", 1)
        target.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="line 4"):
            synthgrid.load_dataset(out)
