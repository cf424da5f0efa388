import concurrent.futures
import json
import multiprocessing
import os
import re
import shlex
import signal
import warnings
import weakref
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swec import baselines, cli, expharness, store, synthgrid, tinycnn
from swec.expharness import (ExperimentConfig, PipelineError, comparison_rows,
                             config_from_json, config_to_json, derive_seed,
                             largest_remainder_counts, load_report, run_grid,
                             save_report, split_stratified, sweep_placement,
                             sweep_rows, tables, write_comparison_run)
from swec.synthgrid import ConfigError
from conftest import tiny_config, tiny_grids, write_non_finite

DEFAULT_LABELS = np.repeat([1, 2, 3, 4], [64, 144, 320, 72])
RUN = expharness.ModelRun((632, 675), 4000.0, "0123456789abcdef", "ab" * 32, 1)


class TestSplit:
    def test_default_counts_give_13_29_64_14(self):
        split = split_stratified(DEFAULT_LABELS, 0.8, seed=0)
        test_labels = DEFAULT_LABELS[split.test]
        counts = [int((test_labels == c).sum()) for c in (1, 2, 3, 4)]
        assert counts == [13, 29, 64, 14]
        assert len(split.test) == 120
        assert len(split.train) == 480

    def test_partition(self):
        split = split_stratified(DEFAULT_LABELS, 0.8, seed=1)
        combined = np.concatenate([split.train, split.test])
        assert np.array_equal(np.sort(combined), np.arange(600))
        assert not set(split.train) & set(split.test)

    def test_deterministic(self):
        a = split_stratified(DEFAULT_LABELS, 0.8, seed=2)
        b = split_stratified(DEFAULT_LABELS, 0.8, seed=2)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_split(self):
        a = split_stratified(DEFAULT_LABELS, 0.8, seed=3)
        b = split_stratified(DEFAULT_LABELS, 0.8, seed=4)
        assert a.fingerprint() != b.fingerprint()

    def test_near_unit_fraction(self):
        split = split_stratified(DEFAULT_LABELS, 1.0 - 1e-12, seed=0)
        assert len(split.test) == 0
        assert len(split.train) == 600

    def test_empty_class_rejected(self):
        labels = np.array([1, 1, 2, 3])
        with pytest.raises(ConfigError, match=r"\[4\]"):
            split_stratified(labels, 0.5, seed=0)

    def test_largest_remainder_tie_prefers_lower_index(self):
        # quotas 1.5, 1.5 with 3 seats: both floors 1, one seat left -> class 0
        assert largest_remainder_counts([3, 3], 0.5) == [2, 1]

    def test_largest_remainder_exact(self):
        assert largest_remainder_counts([64, 144, 320, 72], 0.2) == [13, 29, 64, 14]


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        again = config_from_json(config_to_json(cfg))
        assert again == cfg

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_settable_values_are_listed(self):
        def dotted(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from dotted(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        grids = ["cap_sizes", "cap_angles", "xfmr_taps", "xfmr_angles", "fault_types",
                 "fault_locations", "fault_resistances", "fault_angles",
                 "hif_locations", "hif_angles", "hif_draws", "declared_counts"]
        assert list(dotted(config_to_json(ExperimentConfig()))) == [
            "seed", "fs_list", "placement_fs", "bus_subsets", "train_fraction",
            "methods", "repeats", *(f"grids.{g}" for g in grids),
            "cnn.epochs", "tmlp.epochs", "svm.epochs",
            "autoencoder.recon_epochs", "autoencoder.head_epochs"]

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_json({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="warp"):
            config_from_json({"cnn": {"warp": 9}})

    def test_partial_document_uses_defaults(self):
        cfg = config_from_json({"seed": 9, "repeats": 2})
        assert cfg.seed == 9
        assert cfg.repeats == 2
        assert cfg.fs_list == ExperimentConfig().fs_list

    def test_duplicate_bus_subset_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig(bus_subsets=((632,), (632,)))

    def test_repeated_bus_in_subset_rejected(self):
        with pytest.raises(ConfigError, match=r"\(632, 632\) repeats bus 632"):
            ExperimentConfig(bus_subsets=((632, 632),))
        with pytest.raises(ConfigError, match="repeats bus 675"):
            config_from_json({"bus_subsets": [[675, 671, 675]]})

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(train_fraction=1.0)

    def test_invalid_subset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(bus_subsets=((632, 999),))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("cnn", "forest"))

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigError, match=r"\('cnn', 'cnn'\) repeat a method"):
            ExperimentConfig(methods=("cnn", "cnn"))

    def test_repeated_rate_rejected(self):
        with pytest.raises(ConfigError, match=r"\(2000\.0, 4000\.0, 2000\.0\) repeats a rate"):
            config_from_json({"fs_list": [2000.0, 4000.0, 2000]})

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_trainer_seed_rejected(self, method):
        # trainer seeds derive from the top-level seed; no trainer config has one
        with pytest.raises(ConfigError,
                           match=re.escape(f"{method}: unknown keys ['seed']")):
            config_from_json({method: {"seed": 777}})

    @pytest.mark.parametrize("method, key, value", [
        ("cnn", "epochs", 0), ("cnn", "learning_rate", 0.0),
        ("svm", "epochs", 0), ("svm", "C", 0.0), ("svm", "step", -1e-3),
        ("tmlp", "epochs", 0), ("tmlp", "batch_size", 0),
        ("tmlp", "learning_rate", -1.0), ("tmlp", "momentum", -0.5),
        ("tmlp", "init_std", 0.0), ("tmlp", "hidden", [64, 0]),
        ("autoencoder", "recon_epochs", 0), ("autoencoder", "head_epochs", 0),
        ("autoencoder", "batch_size", 0), ("autoencoder", "learning_rate", 0),
        ("autoencoder", "momentum", -1.0), ("autoencoder", "init_std", -0.1),
        ("autoencoder", "code_width", 0),
        ("cnn", "batch_size", 0), ("cnn", "momentum", -0.5), ("cnn", "init_std", 0.0),
    ])
    def test_degenerate_trainer_field_rejected(self, method, key, value):
        # an epoch count below 1 fails its bound; every other trainer value is
        # a module constant, so a document that sets one names an unknown key
        if key.endswith("epochs"):
            says = f"{method}.{key}: {value} is not >= 1"
            with pytest.raises(ConfigError, match=rf"^{key}: {value} is not >= 1$"):
                type(getattr(ExperimentConfig(), method))(**{key: value})
        else:
            says = f"{method}: unknown keys ['{key}']"
        with pytest.raises(ConfigError, match=f"^{re.escape(says)}$"):
            config_from_json({method: {key: value}})

    def test_load_config_malformed_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="malformed"):
            expharness.load_config(path)

    @pytest.mark.parametrize("doc, field", [
        ({"repeats": "3"}, "repeats"),
        ({"repeats": True}, "repeats"),
        ({"fs_list": 5000}, "fs_list"),
        ({"fs_list": [1250.0, "2500"]}, "fs_list[1]"),
        ({"cnn": {"epochs": 2.5}}, "cnn.epochs"),
        ({"placement_fs": None}, "placement_fs"),
        ({"bus_subsets": [[632, 671.0]]}, "bus_subsets[0][1]"),
        ({"grids": {"fault_types": "LG"}}, "grids.fault_types"),
        ({"tmlp": []}, "tmlp"),
    ])
    def test_wrong_type_names_field(self, doc, field):
        with pytest.raises(ConfigError, match=re.escape(field + ":")):
            config_from_json(doc)

    @pytest.mark.parametrize("doc, says", [
        ({"jitter": False}, "unknown keys ['jitter']"),
        ({"snr_db": 60.0}, "unknown keys ['snr_db']"),
        ({"duration": 0.15}, "unknown keys ['duration']"),
        ({"event_time": 0.05}, "unknown keys ['event_time']"),
        ({"amplitude": 1.0}, "unknown keys ['amplitude']"),
        ({"num_intervals": 8}, "unknown keys ['num_intervals']"),
        ({"grids": {"cap_amplitude": 0.25}}, "grids: unknown keys ['cap_amplitude']"),
    ], ids=["jitter", "snr_db", "duration", "event_time", "amplitude", "num_intervals",
            "cap_amplitude"])
    def test_removed_key_rejected(self, doc, says):
        with pytest.raises(ConfigError, match=re.escape(says)):
            config_from_json(doc)

    @pytest.mark.parametrize("doc, says", [
        ({"fs_list": [2000.0, 500.0]}, "fs: sampling rate 500.0 Hz"),
        ({"fs_list": [2000.0, float("nan")]}, "fs: sampling rate nan Hz"),
        ({"seed": -1}, "seed: -1 is negative"),
    ], ids=["low_rate", "nan_rate", "negative_seed"])
    def test_every_rate_and_the_seed_checked(self, doc, says):
        with pytest.raises(ConfigError, match=re.escape(says)):
            config_from_json(doc)

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Example config:", 1)[1].split("```json\n", 1)[1]
        config = config_from_json(json.loads(block.split("```", 1)[0]))
        assert config.seed == 7

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1]
        lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
        assert lines and all(line.startswith("swec ") for line in lines)
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_int_accepted_as_float_for_float_field(self):
        cfg = config_from_json({"placement_fs": 5000, "fs_list": [1250, 2500]})
        assert cfg.fs_list == (1250.0, 2500.0)
        assert {type(v) for v in cfg.fs_list} == {float}
        assert type(cfg.placement_fs) is float
        # so one rate gives one dataset digest, however the document writes it
        assert synthgrid.config_sha256(cfg.dataset_config(cfg.placement_fs, 0)) == \
            synthgrid.config_sha256(synthgrid.DatasetConfig(fs=5000.0, seed=0))

    def test_int_too_large_for_a_float_field_rejected(self):
        with pytest.raises(ConfigError, match=r"placement_fs: int 10{400} is too large"):
            config_from_json({"placement_fs": 10 ** 400})

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestPipeline:
    def test_tiny_run_produces_report(self):
        [res] = run_grid(tiny_config(), [(2000.0, (632, 671, 675), "cnn")]).values()
        assert res.cm.sum() == 4  # one test record per class
        assert 0.0 <= res.accuracy <= 1.0
        assert res.fingerprint

    def test_single_bus_clamped_arch_completes(self):
        [res] = run_grid(tiny_config(), [(2000.0, (632,), "cnn")]).values()
        assert res.model.arch.input_h == 1
        assert res.cm.sum() == 4

    def test_stage_error_names_stage(self):
        with pytest.raises(PipelineError, match="stage 'dataset'"):
            run_grid(tiny_config(), [(500.0, (632,), "cnn")])

    def test_deterministic_results(self):
        cfg = tiny_config()
        [a] = run_grid(cfg, [(2000.0, (632, 671, 675), "svm")]).values()
        [b] = run_grid(cfg, [(2000.0, (632, 671, 675), "svm")]).values()
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.cm, b.cm)
        assert a.fingerprint == b.fingerprint



def _tensors(model) -> list:
    if isinstance(model, tinycnn.CnnModel):
        return list(model.params().values())
    return [*model.weights, *model.biases]


class TestTrainerContract:
    """Every method's fit(inputs, labels, config, seed) returns (model,
    per-epoch losses), deterministic in the seed."""

    @pytest.fixture(scope="class")
    def cell(self):
        cfg = tiny_config()
        dataset = expharness._build(cfg, 4000.0, 0)
        features, split = expharness.features_and_split(cfg, dataset,
                                                        synthgrid.MONITORED_BUSES)
        return cfg, features, split

    @staticmethod
    def _fit(cell, method, seed):
        cfg, features, split = cell
        m = expharness.METHOD_TABLE[method]
        xs = m.inputs(features.values[split.train])
        return m.fit(xs, features.labels[split.train], getattr(cfg, method), seed)

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_fit_returns_model_and_one_loss_per_epoch(self, method, cell):
        cfg, ae = cell[0], cell[0].autoencoder
        model, losses = self._fit(cell, method, 0)
        epochs = {"cnn": cfg.cnn.epochs, "tmlp": cfg.tmlp.epochs, "svm": 0,
                  "autoencoder": ae.recon_epochs + ae.head_epochs}[method]
        assert len(losses) == epochs and all(np.isfinite(losses))
        assert isinstance(model, tinycnn.CnnModel if method == "cnn"
                          else baselines.DenseNet)

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_seed_decides_the_model(self, method, cell):
        a, a_losses = self._fit(cell, method, 5)
        b, b_losses = self._fit(cell, method, 5)
        other, _ = self._fit(cell, method, 6)
        assert a_losses == b_losses
        for x, y, z in zip(_tensors(a), _tensors(b), _tensors(other), strict=True):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, z)
                   for x, z in zip(_tensors(a), _tensors(other)))

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_fit_method_passes_the_derived_seed(self, method, cell):
        cfg, features, split = cell
        model, losses = expharness.fit_method(cfg, method, features, split, repeat=1)
        seed = derive_seed(cfg.seed, 1, expharness._STAGE_TRAIN,
                           expharness.METHODS.index(method))
        want, want_losses = self._fit(cell, method, seed)
        assert losses == want_losses
        for x, y in zip(_tensors(model), _tensors(want), strict=True):
            np.testing.assert_array_equal(x, y)


class TestPredictorContract:
    """Every method's predict(model, (N, ...) stack) returns (N,) class codes,
    PREDICT_BLOCK rows per forward pass."""

    @pytest.fixture(scope="class", params=expharness.METHODS)
    def fitted(self, request):
        cfg, m = tiny_config(), expharness.METHOD_TABLE[request.param]
        rows = 2 * tinycnn.PREDICT_BLOCK + 5  # two blocks and a tail
        features = np.random.default_rng(21).normal(size=(rows, 3, 33))
        xs = m.inputs(features)
        model, _ = m.fit(xs, np.arange(rows) % 4 + 1, getattr(cfg, request.param), 0)
        return m, model, xs

    def test_stack_matches_one_row_at_a_time(self, fitted):
        m, model, xs = fitted
        codes = m.predict(model, xs)
        assert codes.shape == (len(xs),) and len(set(codes.tolist())) > 1
        assert codes.tolist() == [m.predict(model, x[None])[0] for x in xs]

    def test_empty_stack_rejected(self, fitted):
        m, model, xs = fitted
        with pytest.raises(ValueError, match="^empty batch$"):
            m.predict(model, xs[:0])


class TestSweeps:
    def test_sampling_rate_rows_ascend(self):
        rows = tables(tiny_config(), ["sampling_rate"])["sampling_rate"]
        assert [r.key for r in rows] == [2000.0, 4000.0]
        for row in rows:
            assert len(row.accuracies) == 1

    def test_default_rate_ladder_has_five_rows(self):
        cfg = tiny_config(fs_list=ExperimentConfig().fs_list)
        rows = tables(cfg, ["sampling_rate"])["sampling_rate"]
        assert [r.key for r in rows] == [1250.0, 2500.0, 5000.0, 10000.0,
                                         20000.0]

    def test_default_subsets_give_seven_rows(self):
        cfg = tiny_config(bus_subsets=ExperimentConfig().bus_subsets)
        rows = sweep_placement(cfg)
        assert len(rows) == 7
        assert rows[-1].key == (632, 671, 675)

    def test_sampling_rate_needs_two_rates(self):
        with pytest.raises(ConfigError):
            tables(tiny_config(fs_list=(2000.0,)), ["sampling_rate"])

    def test_repeat_prefix_stable(self):
        one = tables(tiny_config(repeats=1), ["sampling_rate"])["sampling_rate"]
        three = tables(tiny_config(repeats=3), ["sampling_rate"])["sampling_rate"]
        for r1, r3 in zip(one, three):
            assert r3.accuracies[0] == r1.accuracies[0]

    def test_placement_rows_match_subsets(self):
        cfg = tiny_config()
        rows = sweep_placement(cfg)
        assert [r.key for r in rows] == [tuple(s) for s in cfg.bus_subsets]

    def test_placement_matches_run_pipeline(self):
        cfg = tiny_config()
        rows = sweep_placement(cfg)
        [direct] = run_grid(cfg, [(cfg.placement_fs, (632,), "cnn")]).values()
        assert rows[0].accuracies[0] == direct.accuracy

    def test_sweep_rows_formatting(self):
        rates = tables(tiny_config(), ["sampling_rate"])["sampling_rate"]
        rows = sweep_rows(rates, "fs")
        assert rows[0] == ["fs", "mean_accuracy", "accuracy_r0"]
        assert len(rows) == 3


class TestDatasetLifetime:
    """Each (repeat, fs) dataset is featurized once, over the union of the
    bus subsets' buses, and released before its cells go to the pool, so no
    two datasets overlap and none is alive in the parent when the pool forks
    its workers (at the first submit) or hands them a cell."""

    @pytest.fixture
    def alive(self, monkeypatch):
        """Counts of live datasets, recorded at every build and every submit,
        both of which run in the parent."""
        refs, counts = [], {"build": [], "submit": []}

        def live():
            return sum(ref() is not None for ref in refs)

        def build(config):
            counts["build"].append(live())
            dataset = synthgrid.build_dataset(config)
            refs.append(weakref.ref(dataset))
            return dataset

        pool = concurrent.futures.ProcessPoolExecutor
        submit = pool.submit

        def counted_submit(self, *args, **kwargs):
            counts["submit"].append(live())
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(expharness, "build_dataset", build)
        monkeypatch.setattr(pool, "submit", counted_submit)
        return counts

    def test_placement_builds_with_no_earlier_dataset_alive(self, alive):
        sweep_placement(tiny_config(repeats=2))
        assert alive["build"] == [0, 0]

    @pytest.mark.parametrize("table", expharness.TABLES)
    def test_trains_with_no_dataset_alive(self, alive, table):
        tables(tiny_config(repeats=2), [table])
        assert alive["submit"] == [0, 0, 0, 0]

    def test_placement_featurizes_each_record_once(self, monkeypatch):
        calls = []
        featurize = expharness.featurize

        def counted(window, buses):
            calls.append(tuple(buses))
            return featurize(window, buses)

        monkeypatch.setattr(expharness, "featurize", counted)
        sweep_placement(tiny_config(repeats=2, bus_subsets=((675,), (675, 632))))
        assert calls == [(632, 675)] * 16  # 8 records x 2 repeats

    def test_tables_train_each_shared_cell_once(self, alive):
        # compare, placement and sampling_rate share the 4 kHz all-bus cnn
        # cell, which placement lists in another bus order
        cfg = tiny_config(repeats=2, bus_subsets=((632,), (675, 671, 632)))
        rows = tables(cfg)
        assert len(alive["build"]) == 2 * 2  # 2 rates per repeat
        assert alive["submit"] == [0] * 4 * 2  # 4 distinct cells per repeat
        assert multiprocessing.active_children() == []
        assert list(rows) == list(expharness.TABLES)
        assert [r.key for r in rows["placement"]] == [(632,), (675, 671, 632)]
        for name in expharness.TABLES:
            want = tables(cfg, [name])[name]
            assert [r.key for r in rows[name]] == [r.key for r in want]
            for got_row, want_row in zip(rows[name], want):
                assert got_row.accuracies == want_row.accuracies
                for got, run in zip(got_row.runs, want_row.runs):
                    np.testing.assert_array_equal(got.cm, run.cm)
                    assert got.fingerprint == run.fingerprint


class TestPool:
    """run_grid trains in forked workers and evaluates in the parent."""

    def test_grid_equals_in_process_cells(self):
        cfg = tiny_config(repeats=2)
        subsets, methods = [(675,), (632, 671)], ["cnn", "svm"]
        results = run_grid(cfg, [(2000.0, b, m) for b in subsets for m in methods])
        assert multiprocessing.active_children() == []
        cells = [(r, b, m) for r in range(2) for b in subsets for m in methods]
        assert list(results) == [(r, 2000.0, b, m) for r, b, m in cells]
        assert [(res.repeat, res.buses, res.method)
                for res in results.values()] == cells
        for res, (repeat, buses, method) in zip(results.values(), cells):
            dataset = expharness._build(cfg, 2000.0, repeat)
            features, split = expharness.features_and_split(cfg, dataset, buses, repeat)
            model, _ = expharness.fit_method(cfg, method, features, split, repeat)
            report, cm = expharness.evaluate_method(method, model, features, split)
            assert res.accuracy == report.accuracy
            np.testing.assert_array_equal(res.cm, cm)
            assert res.fingerprint == split.fingerprint()
            assert res.config_sha256 == synthgrid.config_sha256(dataset.config)
            for name, value in vars(model).items():  # the tensors and the arch
                np.testing.assert_array_equal(getattr(res.model, name), value)

    @pytest.mark.parametrize("table, first", [
        ("compare", ["cnn", "autoencoder", "svm", "tmlp"]),
        ("placement", [(632, 671, 675), (632, 671), (671, 675), (632, 675),
                       (675,), (671,), (632,)]),
    ])
    def test_longest_cells_submitted_first(self, table, first):
        # the default compare and placement cells: the 3-bus CNN leads
        cells = [cell for _, cell in expharness._table_cells(ExperimentConfig(), table)]
        order = [cells[i] for i in expharness.submission_order(cells)]
        assert order[0] == (20000.0, (632, 671, 675), "cnn")
        assert [c[2] if table == "compare" else c[1] for c in order] == first

    def test_grid_submits_longest_first_and_evaluates_in_order(self, monkeypatch):
        submitted, submit = [], concurrent.futures.ProcessPoolExecutor.submit

        def recorded(pool, fn, config, method, cell, *args):
            submitted.append((method, cell.values.shape[1]))
            return submit(pool, fn, config, method, cell, *args)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", recorded)
        cells = [(4000.0, b, m) for b in [(632,), (632, 675)] for m in ["svm", "cnn"]]
        results = run_grid(tiny_config(), cells)
        assert submitted == [("cnn", 2), ("cnn", 1), ("svm", 2), ("svm", 1)]
        assert list(results) == [(0, *cell) for cell in cells]

    def test_worker_error_names_its_stage(self, monkeypatch):
        monkeypatch.setattr(tinycnn, "LEARNING_RATE", 1e200)  # the workers fork it
        with np.errstate(all="ignore"), warnings.catch_warnings(), pytest.raises(
                PipelineError, match=r"stage 'train\[cnn\]': epoch \d+: loss nan "):
            warnings.simplefilter("ignore", RuntimeWarning)
            tables(tiny_config(), ["compare"])
        assert multiprocessing.active_children() == []

    def test_killed_worker_names_its_cell(self, monkeypatch):
        parent, fit_method = os.getpid(), expharness.fit_method

        def killed(config, method, *args):
            if method == "svm" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_method(config, method, *args)

        monkeypatch.setattr(expharness, "fit_method", killed)
        with pytest.raises(PipelineError, match=r"stage 'train\[svm\]'"):
            tables(tiny_config(), ["compare"])
        assert multiprocessing.active_children() == []


class TestCompare:
    def test_identical_splits_across_methods(self):
        comps = tables(tiny_config(), ["compare"])["compare"]
        fingerprints = {c.key: [r.fingerprint for r in c.runs] for c in comps}
        reference = next(iter(fingerprints.values()))
        assert all(v == reference for v in fingerprints.values())

    def test_methods_in_config_order(self):
        cfg = tiny_config()
        comps = tables(cfg, ["compare"])["compare"]
        assert [c.key for c in comps] == list(cfg.methods)

    def test_needs_two_methods(self):
        with pytest.raises(ConfigError):
            tables(tiny_config(methods=("cnn",)), ["compare"])

    def test_comparison_rows_layout(self):
        rows = comparison_rows(tables(tiny_config(), ["compare"])["compare"])
        assert rows[0][:2] == ["method", "acc"]
        assert len(rows) == 3


class TestArtifacts:
    def test_report_round_trip(self, tmp_path):
        rows = [["a", "b"], ["1", "2.50"], ["N/A", "x y"]]
        path = save_report(rows, tmp_path / "r.csv")
        assert load_report(path) == rows

    def test_model_dispatch_round_trip(self, tmp_path):
        [res] = run_grid(tiny_config(), [(2000.0, (632, 671, 675), "cnn")]).values()
        expharness.save_model("cnn", res.model, tmp_path / "m.bin", RUN)
        method, loaded, run = expharness.load_model(tmp_path / "m.bin")
        assert (method, run) == ("cnn", RUN)
        np.testing.assert_array_equal(loaded.conv_w, res.model.conv_w)

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_every_bit_flip_rejected(self, method, tmp_path):
        path = tmp_path / "m.bin"
        expharness.save_model(method, _small_model(method), path, RUN)
        data = path.read_bytes()
        assert expharness.load_model(path)[::2] == (method, RUN)
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << bit % 8
            path.write_bytes(flipped)
            with pytest.raises(ValueError, match=r"m\.bin: offset [0-9]+: "):
                expharness.load_model(path)

    @pytest.mark.parametrize("key", ["repeat"])
    def test_model_without_run_field_rejected(self, key, tmp_path):
        path = tmp_path / "m.bin"
        run = RUN._replace(buses=list(RUN.buses))._asdict()
        del run[key]
        baselines.save_dense(_small_model("svm"), path, b"SWSV", run=run)
        with pytest.raises(ValueError, match=rf"m\.bin: offset 8: .*'{key}'"):
            expharness.load_model(path)

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_every_truncation_rejected(self, method, tmp_path):
        model = _small_model(method)
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path, RUN)
        data = path.read_bytes()
        expharness.load_model(path)
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ValueError, match="offset [0-9]+: truncated"):
                expharness.load_model(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_non_finite_tensor_rejected(self, method, value, tmp_path):
        model = _small_model(method)
        last = model.fc_b if method == "cnn" else model.biases[-1]
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path, RUN)
        offset = path.stat().st_size - store.DIGEST_BYTES - 8 * last.size
        write_non_finite(path, offset + 8 * (last.size - 1), value)
        with pytest.raises(ValueError, match=rf"m\.bin: offset {offset}: non-finite"):
            expharness.load_model(path)
        # the writer refuses the same tensor, at the same offset, unopened
        path.unlink()
        last[-1] = value
        with pytest.raises(ValueError, match=rf"m\.bin: offset {offset}: non-finite "
                           rf"value in tensor '\w+'$"):
            expharness.save_model(method, model, path, RUN)
        assert not path.exists()

    @pytest.mark.parametrize("method", ["cnn", "svm", "tmlp"])
    def test_wrong_class_count_rejected(self, method, tmp_path):
        arch = tinycnn.CnnArch(1, 4, num_filters=2)
        model = {
            "cnn": tinycnn.CnnModel(arch, np.ones((2, 1, 3)), np.zeros(2),
                                    np.ones((3, arch.flat_size)), np.zeros(3)),
            "svm": baselines.DenseNet([np.ones((3, 3))], [np.zeros(3)]),
            "tmlp": baselines.DenseNet([np.ones((3, 6))], [np.zeros(3)]),
        }[method]
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path, RUN)
        with pytest.raises(ValueError, match=r"m\.bin: offset [0-9]+: 3 classes"):
            expharness.load_model(path)

    @pytest.mark.parametrize("n_sizes", [0, 1])
    def test_tmlp_without_two_layer_sizes_rejected(self, n_sizes, tmp_path):
        path = tmp_path / "m.bin"
        store.write_tensor_file(path, b"SWML", {}, sizes=[4][:n_sizes])
        with pytest.raises(ValueError, match=r"m\.bin: offset 8: .*at least 2"):
            baselines.load_dense(path, b"SWML")

    def test_comparison_run_directory(self, tmp_path):
        cfg = tiny_config()
        out = write_comparison_run(cfg, tmp_path / "run")
        assert (out / "manifest.json").is_file()
        assert (out / "reports" / "compare.csv").is_file()
        for method in cfg.methods:
            assert (out / "models" / f"{method}_r0.bin").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["results"]) == set(cfg.methods)

    def test_comparison_run_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = write_comparison_run(cfg, tmp_path / "a")
        b = write_comparison_run(cfg, tmp_path / "b")
        for rel in ("manifest.json", "reports/compare.csv",
                    "reports/cnn_r0.csv", "reports/svm_r0.csv",
                    "models/cnn_r0.bin"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel



def _small_model(method):
    """A small model of each type, as its trainer would return it."""
    return {
        "cnn": tinycnn.init_model(tinycnn.CnnArch(1, 4, num_filters=2), 0),
        "svm": baselines.DenseNet([np.ones((4, 3))], [np.zeros(4)]),
        "tmlp": baselines.DenseNet([np.ones((5, 6)), np.ones((4, 5))],
                                   [np.zeros(5), np.zeros(4)]),
        "autoencoder": baselines.DenseNet([np.ones((2, 3)), np.ones((4, 2))],
                                          [np.zeros(2), np.zeros(4)]),
    }[method]


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    return st.recursive(scalars, lambda kids: st.lists(kids, max_size=3)
                        | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                        max_leaves=6)


def _near(like):
    """Values of the type of the default value `like`, often valid ones."""
    if is_dataclass(like):
        return _documents(type(like))
    if isinstance(like, tuple):
        return st.lists(_near(like[0]), max_size=4)
    if isinstance(like, bool):
        return st.booleans()
    if isinstance(like, int):
        return st.sampled_from((0, 1, 2, 4, 632, 671, 675)) | st.integers()
    if isinstance(like, float):
        return st.sampled_from((0.5, 2000.0, 20000.0, 0.0, -1.0)) | st.floats()
    return st.sampled_from((*expharness.METHODS, "LG", "LLLG", "forest"))


def _documents(cls):
    """Objects over the fields of cls, each value near its default's type or
    any JSON value, and sometimes an unknown key."""
    values = {}
    for f in fields(cls):
        default = f.default_factory() if f.default is MISSING else f.default
        values[f.name] = _near(default) | _json_values()
    return st.fixed_dictionaries({}, optional={**values, "bogus": st.integers()})


def _tiny_grids_documents():
    """The tiny grid's document with one field drawn anew: a list of fault
    types or locations, known or not, or any count."""
    doc = synthgrid.dataclass_to_json(tiny_grids())
    lists = {"fault_locations": (671, 634, 632), "hif_locations": (999, 671, 632),
             "fault_types": ("forest", "LL", "LG")}
    values = {name: st.lists(st.sampled_from(entries), min_size=1, max_size=2)
              for name, entries in lists.items()}
    values.update((name, _near(1)) for name, v in doc.items() if type(v) is int)
    return st.sampled_from(list(values)).flatmap(
        lambda name: values[name].map(lambda v: {**doc, name: v}))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_documents(ExperimentConfig), _tiny_grids_documents())
def test_config_document_gives_config_or_value_error(doc, grids):
    """A config document, and the tiny grid's document with one field drawn
    anew, each give an object or a ValueError; an accepted grid of at most 8
    records builds its dataset at 4 kHz."""
    try:
        grid = synthgrid.dataclass_from_json(synthgrid.DatasetGrids, grids)
    except ValueError:
        grid = None
    if grid is not None and sum(grid.counts) <= 8:
        synthgrid.build_dataset(synthgrid.DatasetConfig(fs=4000.0, grids=grid))
    try:
        config = config_from_json(doc)
    except ValueError:
        return
    assert isinstance(config, ExperimentConfig)
    for method in expharness.METHODS:
        cfg = getattr(config, method)
        assert min(getattr(cfg, f.name) for f in fields(cfg)) >= 1, cfg
    if sum(config.grids.counts) <= 8:
        synthgrid.build_dataset(config.dataset_config(4000.0, config.seed))
