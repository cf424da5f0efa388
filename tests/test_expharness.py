import json
import re
import weakref
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swec import baselines, expharness, synthgrid, tinycnn
from swec.expharness import (ExperimentConfig, PipelineError, compare_methods,
                             comparison_rows, config_from_json, config_to_json,
                             derive_seed, largest_remainder_counts, load_report,
                             run_grid, save_report, split_stratified,
                             sweep_placement, sweep_rows, sweep_sampling_rate,
                             write_comparison_run)
from swec.synthgrid import ConfigError
from conftest import tiny_config

DEFAULT_LABELS = np.repeat([1, 2, 3, 4], [64, 144, 320, 72])


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
        with pytest.raises(ConfigError, match=r"\(2000\.0, 4000\.0, 2000\) repeats a rate"):
            config_from_json({"fs_list": [2000.0, 4000.0, 2000]})

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_trainer_seed_rejected(self, method):
        with pytest.raises(ConfigError, match=re.escape(f"{method}.seed 777: ")
                           + "trainer seeds derive from the top-level seed"):
            config_from_json({method: {"seed": 777}})

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
        ({"jitter": 1}, "jitter"),
        ({"bus_subsets": [[632, 671.0]]}, "bus_subsets[0][1]"),
        ({"grids": {"fault_types": "LG"}}, "grids.fault_types"),
        ({"tmlp": []}, "tmlp"),
    ])
    def test_wrong_type_names_field(self, doc, field):
        with pytest.raises(ConfigError, match=re.escape(field + ":")):
            config_from_json(doc)

    def test_int_accepted_and_kept_for_float_field(self):
        cfg = config_from_json({"placement_fs": 5000, "fs_list": [1250, 2500],
                                "cnn": {"learning_rate": 1}})
        assert cfg.fs_list == (1250, 2500)
        assert type(cfg.placement_fs) is int
        assert type(cfg.cnn.learning_rate) is int

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestPipeline:
    def test_tiny_run_produces_report(self):
        res = run_grid(tiny_config(), [2000.0], [(632, 671, 675)], ["cnn"])[0]
        assert res.cm.sum() == 4  # one test record per class
        assert 0.0 <= res.accuracy <= 1.0
        assert res.fingerprint

    def test_single_bus_clamped_arch_completes(self):
        res = run_grid(tiny_config(), [2000.0], [(632,)], ["cnn"])[0]
        assert res.model.arch.input_h == 1
        assert res.cm.sum() == 4

    def test_stage_error_names_stage(self):
        with pytest.raises(PipelineError, match="stage 'dataset'"):
            run_grid(tiny_config(), [500.0], [(632,)], ["cnn"])

    def test_deterministic_results(self):
        cfg = tiny_config()
        a = run_grid(cfg, [2000.0], [(632, 671, 675)], ["svm"])[0]
        b = run_grid(cfg, [2000.0], [(632, 671, 675)], ["svm"])[0]
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.cm, b.cm)
        assert a.fingerprint == b.fingerprint


class TestSweeps:
    def test_sampling_rate_rows_ascend(self):
        rows = sweep_sampling_rate(tiny_config())
        assert [r.key for r in rows] == [2000.0, 4000.0]
        for row in rows:
            assert len(row.accuracies) == 1

    def test_default_rate_ladder_has_five_rows(self):
        cfg = tiny_config(fs_list=ExperimentConfig().fs_list)
        rows = sweep_sampling_rate(cfg)
        assert [r.key for r in rows] == [1250.0, 2500.0, 5000.0, 10000.0,
                                         20000.0]

    def test_default_subsets_give_seven_rows(self):
        cfg = tiny_config(bus_subsets=ExperimentConfig().bus_subsets)
        rows = sweep_placement(cfg)
        assert len(rows) == 7
        assert rows[-1].key == (632, 671, 675)

    def test_sampling_rate_needs_two_rates(self):
        with pytest.raises(ConfigError):
            sweep_sampling_rate(tiny_config(fs_list=(2000.0,)))

    def test_repeat_prefix_stable(self):
        one = sweep_sampling_rate(tiny_config(repeats=1))
        three = sweep_sampling_rate(tiny_config(repeats=3))
        for r1, r3 in zip(one, three):
            assert r3.accuracies[0] == r1.accuracies[0]

    def test_placement_rows_match_subsets(self):
        cfg = tiny_config()
        rows = sweep_placement(cfg)
        assert [r.key for r in rows] == [tuple(s) for s in cfg.bus_subsets]

    def test_placement_matches_run_pipeline(self):
        cfg = tiny_config()
        rows = sweep_placement(cfg)
        direct = run_grid(cfg, [cfg.placement_fs], [(632,)], ["cnn"])[0]
        assert rows[0].accuracies[0] == direct.accuracy

    def test_sweep_rows_formatting(self):
        rows = sweep_rows(sweep_sampling_rate(tiny_config()), "fs")
        assert rows[0] == ["fs", "mean_accuracy", "accuracy_r0"]
        assert len(rows) == 3


class TestDatasetLifetime:
    """Each (repeat, fs) dataset is featurized once, over the union of the
    bus subsets' buses, and released when that call returns, so no two
    datasets and no training overlap it."""

    @pytest.fixture
    def alive(self, monkeypatch):
        """Counts of live datasets, recorded at every build and every fit."""
        refs, counts = [], {"build": [], "fit": []}

        def live():
            return sum(ref() is not None for ref in refs)

        def build(config):
            counts["build"].append(live())
            dataset = synthgrid.build_dataset(config)
            refs.append(weakref.ref(dataset))
            return dataset

        fit = expharness.fit_method

        def fit_method(*args, **kwargs):
            counts["fit"].append(live())
            return fit(*args, **kwargs)

        monkeypatch.setattr(expharness, "build_dataset", build)
        monkeypatch.setattr(expharness, "fit_method", fit_method)
        return counts

    def test_placement_builds_with_no_earlier_dataset_alive(self, alive):
        sweep_placement(tiny_config(repeats=2))
        assert alive["build"] == [0, 0]

    @pytest.mark.parametrize("table", ["compare_methods", "sweep_placement",
                                       "sweep_sampling_rate"])
    def test_trains_with_no_dataset_alive(self, alive, table):
        getattr(expharness, table)(tiny_config(repeats=2))
        assert alive["fit"] == [0, 0, 0, 0]

    def test_placement_featurizes_each_record_once(self, monkeypatch):
        calls = []
        featurize = expharness.featurize

        def counted(window, buses):
            calls.append(tuple(buses))
            return featurize(window, buses)

        monkeypatch.setattr(expharness, "featurize", counted)
        sweep_placement(tiny_config(repeats=2, bus_subsets=((675,), (675, 632))))
        assert calls == [(632, 675)] * 16  # 8 records x 2 repeats


class TestCompare:
    def test_identical_splits_across_methods(self):
        comps = compare_methods(tiny_config())
        fingerprints = {c.key: [r.fingerprint for r in c.runs] for c in comps}
        reference = next(iter(fingerprints.values()))
        assert all(v == reference for v in fingerprints.values())

    def test_methods_in_config_order(self):
        cfg = tiny_config()
        comps = compare_methods(cfg)
        assert [c.key for c in comps] == list(cfg.methods)

    def test_needs_two_methods(self):
        with pytest.raises(ConfigError):
            compare_methods(tiny_config(methods=("cnn",)))

    def test_comparison_rows_layout(self):
        rows = comparison_rows(compare_methods(tiny_config()))
        assert rows[0][:2] == ["method", "acc"]
        assert len(rows) == 3


class TestArtifacts:
    def test_report_round_trip(self, tmp_path):
        rows = [["a", "b"], ["1", "2.50"], ["N/A", "x y"]]
        path = save_report(rows, tmp_path / "r.csv")
        assert load_report(path) == rows

    def test_model_dispatch_round_trip(self, tmp_path):
        res = run_grid(tiny_config(), [2000.0], [(632, 671, 675)], ["cnn"])[0]
        expharness.save_model("cnn", res.model, tmp_path / "m.bin")
        loaded = expharness.load_model("cnn", tmp_path / "m.bin")
        np.testing.assert_array_equal(loaded.conv_w, res.model.conv_w)

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_every_truncation_rejected(self, method, tmp_path):
        model = _small_model(method)
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path)
        data = path.read_bytes()
        expharness.load_model(method, path)
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ValueError, match="offset [0-9]+: truncated"):
                expharness.load_model(method, path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_non_finite_tensor_rejected(self, method, value, tmp_path):
        model = _small_model(method)
        last = {"cnn": lambda m: m.fc_b, "svm": lambda m: m.biases,
                "tmlp": lambda m: m.biases[-1],
                "autoencoder": lambda m: m.head_b}[method](model)
        last[-1] = value
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path)
        offset = path.stat().st_size - 8 * last.size
        with pytest.raises(ValueError, match=rf"m\.bin: offset {offset}: non-finite"):
            expharness.load_model(method, path)

    @pytest.mark.parametrize("method", ["cnn", "svm", "tmlp"])
    def test_wrong_class_count_rejected(self, method, tmp_path):
        model = {
            "cnn": tinycnn.init_model(
                tinycnn.CnnArch(1, 4, num_filters=2, num_classes=3), 0),
            "svm": baselines.LinearOvrSvm(np.ones((3, 3)), np.zeros(3)),
            "tmlp": baselines.TaperedMlp((6, 3), [np.ones((3, 6))], [np.zeros(3)]),
        }[method]
        path = tmp_path / "m.bin"
        expharness.save_model(method, model, path)
        with pytest.raises(ValueError, match=r"m\.bin: offset [0-9]+: 3 classes"):
            expharness.load_model(method, path)

    @pytest.mark.parametrize("n_sizes", [0, 1])
    def test_tmlp_without_two_layer_sizes_rejected(self, n_sizes, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"SWML" + np.array([1, n_sizes, 4][:2 + n_sizes],
                                            dtype="<u4").tobytes())
        with pytest.raises(ValueError, match=r"m\.bin: offset 8: .*at least 2"):
            baselines.load_tmlp(path)

    def test_comparison_run_directory(self, tmp_path):
        cfg = tiny_config()
        out = write_comparison_run(cfg, tmp_path / "run")
        assert (out / "manifest.json").is_file()
        assert (out / "reports" / "compare.csv").is_file()
        for method in cfg.methods:
            assert (out / "models" / f"{method}_r0.bin").is_file()
            assert (out / "confusion" / f"{method}_r0.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["results"]) == set(cfg.methods)

    def test_comparison_run_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = write_comparison_run(cfg, tmp_path / "a")
        b = write_comparison_run(cfg, tmp_path / "b")
        for rel in ("manifest.json", "reports/compare.csv",
                    "reports/cnn_r0.csv", "confusion/svm_r0.csv",
                    "models/cnn_r0.bin"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel



def _small_model(method):
    """A small model of each type, as its trainer would return it."""
    return {
        "cnn": tinycnn.init_model(tinycnn.CnnArch(1, 4, num_filters=2), 0),
        "svm": baselines.LinearOvrSvm(np.ones((4, 3)), np.zeros(4)),
        "tmlp": baselines.TaperedMlp((6, 5, 4),
                                     [np.ones((5, 6)), np.ones((4, 5))],
                                     [np.zeros(5), np.zeros(4)]),
        "autoencoder": baselines.AutoencoderClassifier(
            np.ones((2, 3)), np.zeros(2), np.ones((3, 2)), np.zeros(3),
            np.ones((4, 2)), np.zeros(4)),
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
        return st.sampled_from((0.5, 2000.0, 20000.0)) | st.floats()
    return st.sampled_from((*expharness.METHODS, "LG", "LLLG", "forest"))


def _documents(cls):
    """Objects over the fields of cls, each value near its default's type or
    any JSON value, and sometimes an unknown key."""
    values = {}
    for f in fields(cls):
        default = f.default_factory() if f.default is MISSING else f.default
        values[f.name] = _near(default) | _json_values()
    return st.fixed_dictionaries({}, optional={**values, "bogus": st.integers()})


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_documents(ExperimentConfig))
def test_config_document_gives_config_or_value_error(doc):
    try:
        config = config_from_json(doc)
    except ValueError:
        return
    assert isinstance(config, ExperimentConfig)
