import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swec
from swec import cli, expharness
from conftest import tiny_config

from swec.expharness import config_to_json


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json(tiny_config())))
    return path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_module_entry_point_starts_without_warnings(self):
        src = str(Path(swec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "swec.cli", "--help"],
            capture_output=True, text=True, env=env)
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


class TestWorkflow:
    def test_generate_train_eval(self, capsys, tmp_path, tiny_config_file):
        data_dir = tmp_path / "data"
        code, out, _ = run_cli(
            capsys, "generate", "--config", str(tiny_config_file),
            "--out", str(data_dir), "--fs", "2000",
        )
        assert code == 0
        assert (data_dir / "manifest.json").is_file()

        model_path = tmp_path / "model.bin"
        code, out, _ = run_cli(
            capsys, "train", "--config", str(tiny_config_file),
            "--data", str(data_dir), "--model", str(model_path),
            "--buses", "632,671,675", "--fs", "2000",
        )
        assert code == 0
        assert model_path.is_file()

        code, out, _ = run_cli(
            capsys, "eval", "--config", str(tiny_config_file),
            "--model", str(model_path), "--data", str(data_dir),
            "--buses", "632,671,675",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        anchor = rows.index(["confusion"])
        block = np.array([[int(v) for v in row]
                          for row in rows[anchor + 1:anchor + 5]])
        assert block.sum() == 4  # tiny config: one test record per class

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

    def test_train_fs_mismatch_fails_cleanly(self, capsys, tmp_path,
                                             tiny_config_file):
        data_dir = tmp_path / "data"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        code, out, err = run_cli(
            capsys, "train", "--config", str(tiny_config_file),
            "--data", str(data_dir), "--model", str(tmp_path / "m.bin"),
            "--fs", "4000",
        )
        assert code == 1
        assert "error" in err
        assert out == ""

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

    @pytest.mark.parametrize("damage, where, what", [
        ("drop_fs", "manifest.json", "'fs'"),
        ("truncated_npy", "waveforms.npy", "unreadable waveform array"),
        ("flipped_byte", "waveforms.npy", "sha256 differs"),
        ("edited_grids", "manifest.json", "config differs from its config_sha256"),
    ], ids=["drop_fs", "truncated_npy", "flipped_byte", "edited_grids"])
    def test_inconsistent_manifest_fails_cleanly(self, damage, where, what, capsys,
                                                 tmp_path, tiny_config_file):
        data_dir = tmp_path / "data"
        model_path = tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        run_cli(capsys, "train", "--config", str(tiny_config_file),
                "--data", str(data_dir), "--model", str(model_path))
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if damage == "drop_fs":
            del manifest["fs"]
        elif damage == "edited_grids":
            manifest["grids"].update(cap_angles=3, xfmr_angles=1,
                                     declared_counts=[3, 1, 2, 2])
        manifest_path.write_text(json.dumps(manifest))
        waveform = data_dir / "waveforms.npy"
        data = bytearray(waveform.read_bytes())
        if damage == "truncated_npy":
            del data[-100:]
        elif damage == "flipped_byte":
            data[-100] ^= 0x80
        waveform.write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "eval", "--config", str(tiny_config_file),
                                 "--model", str(model_path), "--data", str(data_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert where in err and what in err

    def test_non_finite_model_fails_cleanly(self, capsys, tmp_path,
                                            tiny_config_file):
        data_dir = tmp_path / "data"
        model_path = tmp_path / "model.bin"
        run_cli(capsys, "generate", "--config", str(tiny_config_file),
                "--out", str(data_dir), "--fs", "2000")
        run_cli(capsys, "train", "--config", str(tiny_config_file),
                "--data", str(data_dir), "--model", str(model_path))
        model = expharness.load_model("cnn", model_path)
        model.fc_b[1] = np.nan
        expharness.save_model("cnn", model, model_path)
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

    def test_missing_data_dir_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data",
                               str(tmp_path / "nope"),
                               "--model", str(tmp_path / "m.bin"))
        assert code == 1
        assert "error" in err


class TestSweepAndCompare:
    def test_sweep_fs_stdout(self, capsys, tiny_config_file):
        code, out, _ = run_cli(capsys, "sweep-fs", "--config",
                               str(tiny_config_file))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("fs,mean_accuracy")
        assert len(lines) == 3

    def test_sweep_placement_stdout(self, capsys, tiny_config_file):
        code, out, _ = run_cli(capsys, "sweep-placement", "--config",
                               str(tiny_config_file))
        assert code == 0
        assert out.startswith("buses,mean_accuracy")

    def test_compare_writes_run_dir(self, capsys, tmp_path, tiny_config_file):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "compare", "--config",
                               str(tiny_config_file), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "reports" / "compare.csv").is_file()
        assert out.startswith("method,acc")

    def test_report_aggregates(self, capsys, tmp_path, tiny_config_file):
        out_dir = tmp_path / "run"
        run_cli(capsys, "compare", "--config", str(tiny_config_file),
                "--out", str(out_dir))
        code, out, _ = run_cli(capsys, "report", "--in", str(out_dir))
        assert code == 0
        assert out.startswith("file,")
        assert "compare.csv" in out

    def test_compare_bad_config_type_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cnn": {"epochs": 2.5}}))
        code, out, err = run_cli(capsys, "compare", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "cnn.epochs" in err

    def test_report_empty_dir_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--in", str(tmp_path))
        assert code == 1
        assert "error" in err
