import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swec
from swec import baselines, cli, expharness, metrics, store, synthgrid, tinycnn
from conftest import physical_memory, tiny_config, write_non_finite
from test_tinycnn import FULL_FORWARD_ERRORS

from swec.expharness import config_to_json


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json(tiny_config())))
    return path


def _src_env() -> dict:
    """The environment with this checkout's swec first on PYTHONPATH."""
    src = str(Path(swec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_module_entry_point_starts_without_warnings(self):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "swec.cli", "--help"],
            capture_output=True, text=True, env=_src_env())
        assert result.returncode == 0
        assert result.stderr == ""

    def test_no_arguments_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explode"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--frobnicate"])
        assert exc.value.code == 2


class TestGradcheck:
    def test_reports_small_error(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tensor,max_rel_error"
        label, value = lines[-1].split(",")
        assert label == "all"
        assert float(value) < 1e-4

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        _, out2, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        assert out1 == out2

    @pytest.mark.parametrize("seed", range(4))
    def test_errors_pinned(self, seed, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", str(seed))
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        pinned = dict(zip(("conv_w", "conv_b", "fc_w", "fc_b"),
                          FULL_FORWARD_ERRORS[seed]))
        assert (code, rows) == (0, {**{k: repr(v) for k, v in pinned.items()},
                                    "all": repr(max(pinned.values()))})

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-1e-5"])
    def test_bad_step_fails_cleanly(self, step, capsys):
        code, out, err = run_cli(capsys, "gradcheck", f"--step={step}")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"step h {float(step)!r} is not finite and positive" in err

    def test_negative_seed_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "seed -1 is negative" in err

    def test_no_safe_case_names_the_step(self, capsys):
        # 1e-3 is finite and positive, but no draw for seed 0 clears its band
        code, out, err = run_cli(capsys, "gradcheck", "--step", "1e-3")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "no finite-difference-safe case found for seed 0 at step h 0.001" in err

    def test_failing_oracle_says_so(self, capsys):
        # at h = 1e-12 the differences are mostly rounding
        code, out, err = run_cli(capsys, "gradcheck", "--step", "1e-12")
        worst = out.splitlines()[-1]
        assert code == 1 and worst.startswith("all,") and float(worst[4:]) >= 1e-4
        assert err.splitlines() == [f"error: gradient check failed: max relative "
                                    f"error {worst[4:]} is not below 1e-4"]

    def test_case_built_for_the_step(self, capsys):
        # a case drawn for the default 1e-5 puts a kink within 5e-4 (error 7e-3)
        code, out, _ = run_cli(capsys, "gradcheck", "--step", "5e-4")
        assert code == 0
        assert float(out.splitlines()[-1].split(",")[1]) < 1e-4


class TestWorkflow:
    def test_generate_train_eval(self, capsys, tmp_path, tiny_config_file):
        data_dir = tmp_path / "data"
        code, out, _ = run_cli(
            capsys, "generate", "--config", str(tiny_config_file),
            "--out", str(data_dir), "--fs", "2000",
        )
        assert code == 0
        assert data_dir.read_bytes()[:4] == synthgrid.DATASET_MAGIC

        model_path = tmp_path / "model.bin"
        code, out, _ = run_cli(
            capsys, "train", "--config", str(tiny_config_file),
            "--data", str(data_dir), "--model", str(model_path),
            "--buses", "632,671,675",
        )
        assert code == 0
        assert model_path.is_file()

        code, out, _ = run_cli(
            capsys, "eval", "--config", str(tiny_config_file),
            "--model", str(model_path), "--data", str(data_dir),
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        anchor = rows.index(["confusion"])
        block = np.array([[int(v) for v in row]
                          for row in rows[anchor + 1:anchor + 5]])
        assert block.sum() == 4  # tiny config: one test record per class

    def test_integer_rates_name_the_data_a_model_was_trained_on(self, capsys,
                                                                 tmp_path):
        # "placement_fs": 4000 and "--fs 4000" give one dataset config digest.
        # generate builds at --seed; the compare table's repeat 0 at the derived seed.
        doc = {**config_to_json(tiny_config()), "placement_fs": 4000}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        run, data = tmp_path / "run", tmp_path / "data.bin"
        ds_seed = expharness.derive_seed(doc["seed"], 0, expharness._STAGE_DATASET, 4000)
        assert run_cli(capsys, "tables", "--only", "compare", "--config", str(config),
                       "--out", str(run))[0] == 0
        assert run_cli(capsys, "generate", "--config", str(config), "--out", str(data),
                       "--fs", "4000", "--seed", str(ds_seed))[0] == 0
        code, _, err = run_cli(capsys, "eval", "--config", str(config), "--data",
                               str(data), "--model", str(run / "models" / "cnn_r0.bin"))
        assert (code, err) == (0, "")

    def test_eval_deterministic_stdout(self, capsys, tmp_path, tiny_config_file):
        data_dir = tmp_path / "data"
        model_path = tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        run_cli(capsys, "train", "--config", str(tiny_config_file),
                "--data", str(data_dir), "--model", str(model_path))
        _, out1, _ = run_cli(capsys, "eval", "--config", str(tiny_config_file),
                             "--model", str(model_path), "--data", str(data_dir))
        _, out2, _ = run_cli(capsys, "eval", "--config", str(tiny_config_file),
                             "--model", str(model_path), "--data", str(data_dir))
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["train", "--fs", "4000"], ["eval", "--buses", "632,671"],
    ], ids=["train_fs", "eval_buses"])
    def test_removed_flag_is_usage_error(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--data", str(tmp_path / "ds"),
                      "--model", str(tmp_path / "m.bin")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "sweep-fs", "sweep-placement"])
    def test_removed_command_is_usage_error(self, command, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_truncated_model_fails_cleanly(self, capsys, tmp_path,
                                           tiny_config_file):
        data_dir = tmp_path / "data"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        model_path = tmp_path / "short.bin"
        model_path.write_bytes(b"SWEC\x01\x00")
        code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                                 "--data", str(data_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("damage, what", [
        ("drop_fs", "offset 8: config: missing keys ['fs']"),
        ("truncated_npy", "truncated file"),
        ("flipped_byte", "sha256 differs"),
        ("edited_grids", "sha256 differs"),
    ], ids=["drop_fs", "truncated_npy", "flipped_byte", "edited_grids"])
    def test_inconsistent_manifest_fails_cleanly(self, damage, what, capsys,
                                                 tmp_path, tiny_config_file):
        data_path = tmp_path / "data.bin"
        model_path = tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_path), "--fs", "2000")
        run_cli(capsys, "train", "--config", str(tiny_config_file),
                "--data", str(data_path), "--model", str(model_path))
        data = bytearray(data_path.read_bytes())
        if damage == "drop_fs":  # re-digested, so only the config check tells
            dataset = synthgrid.load_dataset(data_path)
            config = synthgrid.dataclass_to_json(dataset.config)
            del config["fs"]
            store.write_tensor_file(data_path, synthgrid.DATASET_MAGIC,
                                    {"samples": dataset.samples}, config=config)
            data = bytearray(data_path.read_bytes())
        elif damage == "edited_grids":  # relabels records, keeps the shape
            for old, new in ((b'"cap_angles":2', b'"cap_angles":3'),
                             (b'"xfmr_angles":2', b'"xfmr_angles":1'),
                             (b'"declared_counts":[2,2,2,2]',
                              b'"declared_counts":[3,1,2,2]')):
                data = data.replace(old, new)
        elif damage == "truncated_npy":
            del data[-100:]
        elif damage == "flipped_byte":
            data[-100] ^= 0x80
        data_path.write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "eval", "--config", str(tiny_config_file),
                                 "--model", str(model_path), "--data", str(data_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "data.bin: offset" in err and what in err

    def test_earlier_schema_dataset_asks_to_regenerate(self, capsys, tmp_path,
                                                       tiny_config_file):
        # a dataset header from when the record length, event time, amplitude,
        # SNR and capacitor amplitude were config fields
        dataset = synthgrid.build_dataset(
            expharness.load_config(tiny_config_file).dataset_config(2000.0, 0))
        config = synthgrid.dataclass_to_json(dataset.config)
        config.update(snr_db=60.0, duration=0.15, event_time=0.05, amplitude=1.0)
        config["grids"]["cap_amplitude"] = 0.25
        data_path, model_path = tmp_path / "data.bin", tmp_path / "model.bin"
        store.write_tensor_file(data_path, synthgrid.DATASET_MAGIC,
                                {"samples": dataset.samples}, config=config)
        code, out, err = run_cli(capsys, "train", "--config", str(tiny_config_file),
                                 "--data", str(data_path), "--model", str(model_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        for text in ("data.bin: offset 8: config: unknown keys ['amplitude', "
                     "'duration', 'event_time', 'snr_db']", "re-run `swec generate`"):
            assert text in err
        assert not model_path.exists()

    def test_non_finite_model_fails_cleanly(self, capsys, tmp_path,
                                            tiny_config_file):
        data_dir = tmp_path / "data"
        model_path = tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        run_cli(capsys, "train", "--config", str(tiny_config_file),
                "--data", str(data_dir), "--model", str(model_path))
        fc_b = expharness.load_model(model_path)[1].fc_b
        write_non_finite(model_path, model_path.stat().st_size - store.DIGEST_BYTES
                         - fc_b.nbytes + 8)
        code, out, err = run_cli(capsys, "eval", "--config", str(tiny_config_file),
                                 "--model", str(model_path), "--data", str(data_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "model.bin: offset" in err and "non-finite" in err

    def test_train_repeated_bus_fails_cleanly(self, capsys, tmp_path,
                                              tiny_config_file):
        data_dir = tmp_path / "data"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        model_path = tmp_path / "model.bin"
        code, out, err = run_cli(
            capsys, "train", "--config", str(tiny_config_file),
            "--data", str(data_dir), "--model", str(model_path),
            "--buses", "632,632",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "bus 632 repeated" in err
        assert not model_path.exists()

    def test_outputs_go_into_new_directories(self, capsys, tmp_path, tiny_config_file):
        data, model = tmp_path / "data" / "ds.bin", tmp_path / "sub" / "m.bin"
        for argv in (["generate", "--out", str(data), "--fs", "2000"],
                     ["train", "--data", str(data), "--model", str(model)]):
            code, _, err = run_cli(capsys, *argv, "--config", str(tiny_config_file))
            assert (code, err) == (0, "")
        assert model.read_bytes()[:4] == tinycnn.MODEL_MAGIC

    def test_missing_data_dir_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(tmp_path / "nope"),
                               "--model", str(tmp_path / "m.bin"))
        assert code == 1
        assert "error" in err


class TestProvenance:
    """eval takes the buses from the model file and rejects a dataset or a
    split other than the training one."""

    @pytest.fixture
    def trained(self, capsys, tmp_path, tiny_config_file):
        """(config path, dataset dir, model path) of a tiny 4 kHz run; the
        model is trained by train(*flags)."""
        data_dir, model_path = tmp_path / "data", tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "4000")

        def train(*flags):
            code, _, _ = run_cli(capsys, "train", "--config", str(tiny_config_file),
                                 "--data", str(data_dir), "--model", str(model_path),
                                 *flags)
            assert code == 0
            return tiny_config_file, data_dir, model_path
        return train

    @pytest.mark.parametrize("buses, rows", [("671,675", (671, 675)),
                                             ("675,632", (632, 675))],
                             ids=["671,675", "675,632"])
    def test_eval_scores_the_recorded_buses(self, buses, rows, capsys, trained):
        config_path, data_dir, model_path = trained("--buses", buses)
        method, model, run = expharness.load_model(model_path)
        assert (method, run.buses, run.repeat) == ("cnn", rows, 0)
        code, out, err = run_cli(capsys, "eval", "--config", str(config_path),
                                 "--model", str(model_path), "--data", str(data_dir))
        assert (code, err) == (0, "")
        config = expharness.load_config(config_path)
        features, split = expharness.features_and_split(
            config, synthgrid.load_dataset(data_dir), rows)
        report, cm = expharness.evaluate_method("cnn", model, features, split)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            metrics.report_rows("cnn", report, cm))
        assert out == expected.getvalue()

    def _assert_rejected(self, capsys, *argv, says):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        for text in says:
            assert text in err

    def test_other_split_seed_rejected(self, capsys, trained):
        # seeds 0 and 1 happen to draw the same tiny split; seed 2 does not
        config_path, data_dir, model_path = trained("--seed", "2")
        self._assert_rejected(capsys, "--config", str(config_path), "--seed", "0",
                              "--model", str(model_path), "--data", str(data_dir),
                              says=["model.bin: trained on split", "--seed/--config"])

    @pytest.mark.parametrize("flag, value, fs", [("--seed", "1", "fs 4000"),
                                                 ("--fs", "2000", "fs 2000")],
                             ids=["seed", "fs"])
    def test_other_dataset_rejected(self, flag, value, fs, capsys, tmp_path,
                                    trained):
        config_path, _, model_path = trained()
        other = tmp_path / "other"
        run_cli(capsys, "generate", "--config", str(config_path),
                "--out", str(other), "--fs", "4000", flag, value)
        self._assert_rejected(capsys, "--config", str(config_path),
                              "--model", str(model_path), "--data", str(other),
                              says=["other: config_sha256", f"({fs})", "(fs 4000)",
                                    "model.bin was trained on"])

    def test_version_1_model_asks_to_retrain(self, capsys, tmp_path, trained):
        config_path, data_dir, model_path = trained()
        model_path.write_bytes(b"SWEC\x01\x00\x00\x00" + bytes(64))
        self._assert_rejected(capsys, "--config", str(config_path),
                              "--model", str(model_path), "--data", str(data_dir),
                              says=["model.bin: offset 4: format version 1",
                                    "re-train"])


class TestEvalAnyMethod:
    """eval reads the method and repeat from the model file,
    so it scores every model file that tables --only compare --out writes."""

    @pytest.fixture(scope="class")
    def compare_run(self, tmp_path_factory):
        """(config path, run dir, dataset paths) of a tiny four-method compare
        run over two repeats and the dataset of each repeat, rebuilt by
        generate."""
        root = tmp_path_factory.mktemp("compare")
        config = tiny_config()
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config_to_json(config)))
        assert cli.main(["tables", "--only", "compare", "--config", str(config_path),
                         "--repeats", "2", "--out", str(root / "run")]) == 0
        fs, datasets = config.placement_fs, [root / "ds_r0", root / "ds_r1"]
        for repeat, path in enumerate(datasets):
            ds_seed = expharness.derive_seed(config.seed, repeat,
                                             expharness._STAGE_DATASET, fs)
            assert cli.main(["generate", "--config", str(config_path), "--seed",
                             str(ds_seed), "--fs", repr(fs), "--out", str(path)]) == 0
        return config_path, root / "run", datasets

    # the ids name the method and no config override
    @pytest.mark.parametrize("method", expharness.METHODS,
                             ids=[f"{m}-None" for m in expharness.METHODS])
    def test_eval_prints_the_compare_report(self, method, capsys, compare_run):
        config_path, run_dir, (data, _) = compare_run
        code, out, err = run_cli(capsys, "eval", "--config", str(config_path),
                                 "--model", str(run_dir / "models" / f"{method}_r0.bin"),
                                 "--data", str(data))
        assert (code, err) == (0, "")
        expected = expharness.load_report(run_dir / "reports" / f"{method}_r0.csv")
        assert list(csv.reader(io.StringIO(out))) == expected

    def test_train_writes_the_grid_cell(self, capsys, compare_run, tmp_path):
        # the CLI and the pool workers train from the same constants and seeds
        config_path, run_dir, (data, _) = compare_run
        model_path = tmp_path / "cnn.bin"
        code, _, err = run_cli(capsys, "train", "--config", str(config_path),
                               "--data", str(data), "--model", str(model_path))
        assert (code, err) == (0, "")
        assert model_path.read_bytes() == (run_dir / "models" / "cnn_r0.bin").read_bytes()

    @pytest.mark.parametrize("method", expharness.METHODS)
    def test_eval_scores_a_later_repeat(self, method, capsys, compare_run):
        config_path, run_dir, (_, data) = compare_run
        model_path = run_dir / "models" / f"{method}_r1.bin"
        code, out, err = run_cli(capsys, "eval", "--config", str(config_path),
                                 "--model", str(model_path), "--data", str(data))
        assert (code, err) == (0, "")
        expected = expharness.load_report(run_dir / "reports" / f"{method}_r1.csv")
        assert list(csv.reader(io.StringIO(out))) == expected
        assert expharness.load_model(model_path)[2].repeat == 1

    def test_svm_file_without_sizes_rejected(self, capsys, tmp_path, compare_run):
        """An SVM file of the layout before every baseline was a dense net
        (tensors "weights" and "biases", no "sizes" in the header)."""
        config_path, run_dir, (data, _) = compare_run
        _, model, run = expharness.load_model(run_dir / "models" / "svm_r0.bin")
        path = tmp_path / "old_svm.bin"
        store.write_tensor_file(path, b"SWSV", {"weights": model.weights[0],
                                                "biases": model.biases[0]},
                                **run._replace(buses=list(run.buses))._asdict())
        code, out, err = run_cli(capsys, "eval", "--config", str(config_path),
                                 "--model", str(path), "--data", str(data))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{path}: offset 8: " in err and "(header key 'sizes')" in err

    def test_dataset_as_model_rejected(self, capsys, compare_run):
        config_path, _, (data, _) = compare_run
        code, out, err = run_cli(capsys, "eval", "--config", str(config_path),
                                 "--model", str(data), "--data", str(data))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{data}: offset 0: bad magic b'SWDS'" in err


class TestSweepAndCompare:
    def test_sweep_fs_stdout(self, capsys, tiny_config_file):
        code, out, _ = run_cli(capsys, "tables", "--only", "sampling_rate", "--config",
                               str(tiny_config_file))
        assert code == 0
        title, *lines = out.strip().splitlines()
        assert title == "table,sampling_rate"
        assert lines[0].startswith("fs,mean_accuracy")
        assert len(lines) == 1 + len(expharness.FS_LIST)

    def test_sweep_placement_stdout(self, capsys, tmp_path, tiny_config_file):
        code, out, _ = run_cli(capsys, "tables", "--only", "placement", "--config",
                               str(tiny_config_file), "--out", str(tmp_path / "run"))
        assert code == 0
        assert out.startswith("table,placement\nbuses,mean_accuracy")
        assert [str(p.relative_to(tmp_path)) for p in (tmp_path / "run").rglob("*")] \
            == ["run/reports", "run/reports/placement.csv"]

    def test_compare_writes_run_dir(self, capsys, tmp_path, tiny_config_file):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "tables", "--only", "compare", "--config",
                               str(tiny_config_file), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "reports" / "compare.csv").is_file()
        assert out.startswith("table,compare\nmethod,acc")
        assert sorted(p.name for p in (out_dir / "reports").iterdir()) == \
            ["autoencoder_r0.csv", "cnn_r0.csv", "compare.csv", "svm_r0.csv",
             "tmlp_r0.csv"]

    @staticmethod
    def _no_build(config):
        raise AssertionError("dataset built")

    @pytest.fixture
    def no_build(self, monkeypatch):
        """Fails the test if any dataset is built."""
        monkeypatch.setattr(expharness, "build_dataset", self._no_build)

    @staticmethod
    def _blocks(out: str) -> dict:
        """Each table's rows on stdout, keyed by the name of its title line."""
        blocks = {}
        for row in csv.reader(io.StringIO(out)):
            if row[0] == "table":
                rows = blocks[row[1]] = []
            else:
                rows.append(row)
        return blocks

    def test_one_grid_prints_and_writes_every_table(self, capsys, monkeypatch,
                                                    tmp_path, tiny_config_file):
        config = expharness.load_config(tiny_config_file)
        want = expharness.tables(config)
        grids, run_grid = [], expharness.run_grid

        def counted(*args):
            grids.append(args)
            return run_grid(*args)

        monkeypatch.setattr(expharness, "run_grid", counted)
        out_dir = tmp_path / "run"
        code, out, err = run_cli(capsys, "tables", "--config", str(tiny_config_file),
                                 "--out", str(out_dir))
        assert (code, err, len(grids)) == (0, "", 1)
        blocks = self._blocks(out)
        assert list(blocks) == ["compare", "placement", "sampling_rate"]
        assert blocks == {"compare": expharness.comparison_rows(want["compare"]),
                          "placement": expharness.sweep_rows(want["placement"], "buses"),
                          "sampling_rate": expharness.sweep_rows(want["sampling_rate"],
                                                                 "fs")}
        for name, rows in blocks.items():
            assert expharness.load_report(out_dir / "reports" / f"{name}.csv") == rows

    def test_report_aggregates(self, capsys, tmp_path, tiny_config_file):
        out_dir = tmp_path / "run"
        run_cli(capsys, "tables", "--config", str(tiny_config_file),
                "--out", str(out_dir))
        code, out, _ = run_cli(capsys, "report", "--in", str(out_dir))
        assert code == 0
        assert out.startswith("file,")
        for name in ("compare.csv", "placement.csv", "sampling_rate.csv"):
            assert f"file,{name}\n" in out

    @pytest.mark.parametrize("only, says", [
        ("bogus", "unknown table 'bogus' in 'bogus'"),
        ("placement,compare,placement",
         "table 'placement' repeated in 'placement,compare,placement'"),
        ("", "unknown table '' in ''"),
        ("compare,", "unknown table '' in 'compare,'"),
    ], ids=["unknown", "repeated", "empty", "trailing_comma"])
    def test_bad_only_is_usage_error(self, only, says, capsys, no_build, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tables", "--only", only, "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --only: {says}" in err
        assert not (tmp_path / "run").exists()

    def test_only_prints_in_table_order(self, capsys, tiny_config_file):
        code, out, _ = run_cli(capsys, "tables", "--only", "sampling_rate,compare",
                               "--config", str(tiny_config_file))
        assert code == 0
        assert list(self._blocks(out)) == ["compare", "sampling_rate"]

    @staticmethod
    def _files(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def test_second_run_into_one_dir_refused(self, capsys, monkeypatch, tmp_path,
                                             tiny_config_file):
        out_dir = tmp_path / "run"
        assert run_cli(capsys, "tables", "--config", str(tiny_config_file),
                       "--repeats", "2", "--out", str(out_dir))[0] == 0
        first = self._files(out_dir)
        monkeypatch.setattr(expharness, "build_dataset", self._no_build)
        code, out, err = run_cli(capsys, "tables", "--config", str(tiny_config_file),
                                 "--seed", "5", "--repeats", "1", "--only", "compare",
                                 "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{out_dir}: --out exists and is not an empty directory" in err
        assert self._files(out_dir) == first

    def test_file_as_out_dir_refused(self, capsys, no_build, tmp_path):
        path = tmp_path / "run"
        path.write_text("kept\n")
        code, out, err = run_cli(capsys, "tables", "--only", "compare", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{path}: --out exists and is not an empty directory" in err
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("empty", [False, True], ids=["fresh", "empty"])
    def test_fresh_or_empty_out_dir_written(self, empty, capsys, tmp_path,
                                            tiny_config_file):
        out_dir = tmp_path / "runs" / "run"
        if empty:
            out_dir.mkdir(parents=True)
        code, _, err = run_cli(capsys, "tables", "--only", "placement", "--config",
                               str(tiny_config_file), "--out", str(out_dir))
        assert (code, err) == (0, "")
        assert list(self._files(out_dir)) == ["reports/placement.csv"]
        assert list((tmp_path / "runs").iterdir()) == [out_dir]  # no partial sibling

    @pytest.mark.parametrize("where", ["features_and_split", "save_model"],
                             ids=["in_run_grid", "in_save_tables"])
    def test_killed_run_leaves_no_dir(self, where, tmp_path, tiny_config_file):
        # features_and_split first runs in run_grid before any worker starts
        code = ("import os, signal, sys\n"
                "from swec import cli, expharness\n"
                f"expharness.{where} = lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL)\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        out_dir = tmp_path / "run"
        result = subprocess.run(
            [sys.executable, "-c", code, "tables", "--only", "compare", "--config",
             str(tiny_config_file), "--out", str(out_dir)],
            capture_output=True, text=True, env=_src_env(), timeout=120)
        assert result.returncode == -signal.SIGKILL
        assert not out_dir.exists()

    def test_report_undecodable_csv_names_the_file(self, capsys, tmp_path):
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "bad.csv").write_bytes(b"\xff\xfemethod,acc\n")
        code, out, err = run_cli(capsys, "report", "--in", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{tmp_path / 'reports' / 'bad.csv'}: cannot read report" in err

    def test_diverging_trainer_fails_the_compare(self, capsys, tmp_path, monkeypatch):
        # the autoencoder, first in grid order, would diverge first
        monkeypatch.setattr(expharness.ExperimentConfig, "methods", ("tmlp", "cnn"))
        config = tiny_config()
        for module in (tinycnn, baselines):  # the forked workers inherit them
            monkeypatch.setattr(module, "LEARNING_RATE", 1e200)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json(config)))
        # no overflow warning may stand in for the check, in this process or
        # in the forked workers
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, "tables", "--only", "compare",
                                     "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "stage 'train[tmlp]': epoch " in err
        assert "diverged at learning_rate 1e+200" in err

    def test_compare_bad_config_type_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cnn": {"epochs": 2.5}}))
        code, out, err = run_cli(capsys, "tables", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "cnn.epochs" in err

    @pytest.mark.parametrize("doc, says", [
        ({"autoencoder": {"code_width": 0}}, "autoencoder: unknown keys ['code_width']"),
        ({"tmlp": {"learning_rate": -1.0}}, "tmlp: unknown keys ['learning_rate']"),
        ({"svm": {"C": 0}}, "svm: unknown keys ['C']"),
        ({"svm": {"epochs": 0}}, "svm.epochs: 0 is not >= 1"),
    ], ids=["code_width", "learning_rate", "C", "epochs"])
    def test_degenerate_trainer_config_fails_cleanly(self, doc, says, capsys,
                                                     tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "tables", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert says in err

    @pytest.mark.parametrize("content, says", [
        (b'{"seed": \xb4}', "malformed JSON"),
        (b"[1]", "ExperimentConfig: expected an object, got list"),
        (b'{"svm": {"epochs": 0}}', "svm.epochs: 0 is not >= 1"),
    ], ids=["undecodable", "not_object", "bad_value"])
    def test_config_file_error_names_the_file(self, content, says, capsys,
                                              tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "tables", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{path}: " in err and says in err

    # 1e12 Hz asks for 5.76 PiB and 1e300 Hz for more axis entries than numpy
    # allows; neither size can be allocated anywhere.
    @pytest.mark.parametrize("flags, field", [
        (["--fs", "inf"], "fs: "), (["--fs", "nan"], "fs: "),
        (["--seed", "-1"], "seed: "),
        (["--fs", "1e12"], "fs: 1e+12 Hz needs a samples array of shape "),
        (["--fs", "1e300"], "fs: 1e+300 Hz needs a samples array of shape "),
    ], ids=["fs_inf", "fs_nan", "seed_negative", "fs_unallocatable", "fs_overflow"])
    def test_bad_rate_or_seed_names_the_field(self, flags, field, capsys,
                                              tmp_path):
        out_path = tmp_path / "ds.bin"
        code, out, err = run_cli(capsys, "generate", "--out", str(out_path), *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert field in err
        assert not out_path.exists()

    def test_non_finite_dataset_not_written(self, capsys, tmp_path):
        config = config_to_json(tiny_config())
        config["grids"]["cap_amplitude"] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out_path = tmp_path / "ds.bin"
        code, out, err = run_cli(capsys, "generate", "--config", str(path),
                                 "--out", str(out_path), "--fs", "2000")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "grids: unknown keys ['cap_amplitude']" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("grids, field", [
        ({"cap_sizes": -1, "cap_angles": -2}, "grids.cap_sizes: "),
        ({"fault_locations": [671]}, "grids.fault_locations: "),
        ({"fault_locations": [632, 632], "fault_angles": 1}, "grids.fault_locations: "),
    ], ids=["negative_counts", "fault_location", "repeated_fault_location"])
    def test_bad_grid_rejected_before_any_build(self, grids, field, capsys, tmp_path):
        config = config_to_json(tiny_config())
        config["grids"].update(grids)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out_path = tmp_path / "ds.bin"
        code, out, err = run_cli(capsys, "generate", "--config", str(path),
                                 "--out", str(out_path), "--fs", "2000")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert field in err
        assert not out_path.exists()

    def test_report_empty_dir_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--in", str(tmp_path))
        assert code == 1
        assert "error" in err


def _no_mmap(*args):
    raise AssertionError("the samples array was mapped")


def test_rate_too_big_for_memory_exits_1_before_allocating(capsys, tmp_path,
                                                           monkeypatch):
    import mmap
    monkeypatch.setattr(os, "sysconf", physical_memory(2**21))  # 8.59 GB
    monkeypatch.setattr(mmap, "mmap", _no_mmap)
    out_path = tmp_path / "ds.bin"
    code, out, err = run_cli(capsys, "generate", "--out", str(out_path), "--fs", "1e7")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: ConfigError: fs: 1e+07 Hz needs a samples array of shape "
        "(600, 3, 3, 1500000), 64.8 GB, more than the 8.59 GB of physical memory"]
    assert not out_path.exists()


# Values for each flag the table, dataset and gradient commands take: valid
# ones, out-of-range ones and text that is no value at all. Rates and repeats
# stay small enough that a run that succeeds takes milliseconds.
_TEXT = st.sampled_from(["", "x", "1.5", "-", "0x10", "1e3", " 7"])
_INTS = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)).map(str)
_FLAGS = {
    "--fs": st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1e7", "1e12", "1e300", "999.9"]),
        st.floats(-1e4, 1e4).map(repr), _TEXT),
    "--seed": st.one_of(_INTS, _TEXT),
    "--repeats": st.one_of(st.integers(-2, 2).map(str), _TEXT),
    "--buses": st.one_of(st.lists(st.sampled_from(
        ["632", "671", "675", "634", "0", "-1", "x", ""]), max_size=4).map(",".join),
        _TEXT),
    "--only": st.one_of(st.lists(st.sampled_from(
        ["compare", "placement", "sampling_rate", "", "x"]), max_size=4).map(",".join),
        _TEXT),
    "--step": st.one_of(
        st.sampled_from(["nan", "inf", "0", "-0.0", "1e-5", "1e300", "5e-324"]),
        _TEXT),
}
_COMMAND_FLAGS = {
    "generate": ("--fs", "--seed"), "train": ("--buses", "--seed"),
    "eval": ("--seed",), "tables": ("--only", "--repeats", "--seed"),
    "gradcheck": ("--seed", "--step"),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A tiny config file, a dataset built from it and a model trained on it."""
    root = tmp_path_factory.mktemp("cli_inputs")
    config = root / "config.json"
    config.write_text(json.dumps(config_to_json(tiny_config())))
    for argv in (["generate", "--out", str(root / "ds.bin"), "--fs", "2000"],
                 ["train", "--data", str(root / "ds.bin"), "--model", str(root / "m.bin")]):
        assert cli.main([*argv, "--config", str(config)]) == 0
    return root


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True).flatmap(
        lambda flags: st.tuples(*(st.tuples(st.just(f), _FLAGS[f]) for f in flags))))))
def test_any_flag_values_exit_cleanly(cli_inputs, command_flags):
    command, flags = command_flags
    out_dir = Path(tempfile.mkdtemp(dir=cli_inputs))
    config = ["--config", str(cli_inputs / "config.json")]
    argv = [command, *{
        "generate": [*config, "--out", str(out_dir / "ds.bin")],
        "train": [*config, "--data", str(cli_inputs / "ds.bin"),
                  "--model", str(out_dir / "m.bin")],
        "eval": [*config, "--data", str(cli_inputs / "ds.bin"),
                 "--model", str(cli_inputs / "m.bin")],
        "tables": [*config, "--out", str(out_dir / "run")],
        "gradcheck": [],
    }[command], *(f"{flag}={value}" for flag, value in flags)]
    stdout, stderr = io.StringIO(), io.StringIO()
    # memory for a 20 kHz tiny dataset, not for the largest rates drawn
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        mp.setattr(os, "sysconf", physical_memory(2**10))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
    if code == 0:
        assert errors == [], argv
    else:
        assert code in (1, 2) and len(errors) == 1, (argv, stderr.getvalue())
        assert code == 2 or errors[0].startswith("error: "), argv
        assert list(out_dir.iterdir()) == [], argv
    assert "Traceback" not in stderr.getvalue()
