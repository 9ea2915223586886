"""Exit codes and output contracts of the four subcommands."""

import json

import numpy as np
import pytest

from sgdph import oracle
from sgdph.cli import cli
from sgdph.data import write_idx


def write_cfg(tmp_path, name="run.cfg", **fields):
    defaults = {
        "model": "mlp-bn", "optimizer": "sgdph", "epochs": 2,
        "batch_size": 25, "dataset.n": 100,
        "out.metrics": str(tmp_path / "m.jsonl"),
        "out.checkpoint": str(tmp_path / "m.ckpt"),
    }
    defaults.update(fields)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    return path


def idx_train_args(tmp_path, train_shape, test_shape):
    """Writes an all-zero IDX quadruple with the given image shapes; returns
    its paths and the train arguments of a one-epoch run on it."""
    paths = {}
    for split, shape in (("train", train_shape), ("test", test_shape)):
        paths[f"{split}_images"] = tmp_path / f"{split}-images.idx"
        paths[f"{split}_labels"] = tmp_path / f"{split}-labels.idx"
        write_idx(str(paths[f"{split}_images"]), np.zeros(shape, dtype=np.uint8))
        write_idx(str(paths[f"{split}_labels"]), np.zeros(shape[0], dtype=np.uint8))
    sets = [f"dataset.{key}={path}" for key, path in paths.items()]
    sets += ["dataset.kind=idx", "epochs=1",
             f"out.metrics={tmp_path / 'm.jsonl'}", f"out.checkpoint={tmp_path / 'm.ckpt'}"]
    return paths, ["train"] + [arg for s in sets for arg in ("--set", s)]


class TestUsage:
    def test_no_subcommand_is_bad_usage(self, capsys):
        assert cli([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_bad_usage(self, capsys):
        assert cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_bad_usage(self, capsys):
        assert cli(["gradcheck", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err


class TestTrain:
    def test_writes_metrics_at_configured_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["split"] == "test"

    def test_set_overrides_config_file(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = cli(["train", "--config", str(cfg),
                  "--set", "optimizer=sgdm", "--set", "epochs=1"])
        assert rc == 0
        recs = [json.loads(l) for l in (tmp_path / "m.jsonl").read_text().splitlines()]
        assert all("hessian" not in r for r in recs)
        assert recs[-1]["epoch"] == 0

    def test_unknown_config_key_fails_validation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lr="0.1")
        assert cli(["train", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("momentum_convention", "classical"),
                                           ("bias_second_order", "false")])
    def test_removed_option_is_unknown_key(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, **{key: value})
        assert cli(["train", "--config", str(cfg)]) == 1
        assert f"run.cfg:8: unknown config key '{key}'" in capsys.readouterr().err

    def test_bad_hyperparameter_fails_before_metrics_open(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        metrics.write_text('{"epoch":0}\n')
        rc = cli(["train", "--set", "alpha=1.5", "--set", "epochs=1",
                  "--set", f"out.metrics={metrics}",
                  "--set", f"out.checkpoint={tmp_path / 'm.ckpt'}"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err
        assert metrics.read_text() == '{"epoch":0}\n'
        assert not (tmp_path / "m.ckpt").exists()

    def test_bad_decay_schedule_fails_before_metrics_open(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        metrics.write_text('{"epoch":0}\n')
        rc = cli(["train", "--set", "lr_decay_factor=0", "--set", "epochs=2",
                  "--set", "lr_decay_every=1", "--set", f"out.metrics={metrics}",
                  "--set", f"out.checkpoint={tmp_path / 'm.ckpt'}"])
        assert rc == 1
        assert "lr_decay_factor" in capsys.readouterr().err
        assert metrics.read_text() == '{"epoch":0}\n'
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("key,value,named", [("dataset.n", "4", "n=4"),
                                                 ("dataset.dims", "0", "dims=0")])
    def test_bad_blobs_size_fails_before_metrics_open(self, tmp_path, capsys, key, value,
                                                      named):
        rc = cli(["train", "--set", f"{key}={value}", "--set", "epochs=1",
                  "--set", f"out.metrics={tmp_path / 'm.jsonl'}",
                  "--set", f"out.checkpoint={tmp_path / 'm.ckpt'}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "m.jsonl").exists()
        assert not (tmp_path / "m.ckpt").exists()

    def test_empty_idx_split_names_the_file(self, tmp_path, capsys):
        paths, args = idx_train_args(tmp_path, (4, 4, 4), (0, 4, 4))
        assert cli(args) == 1
        err = capsys.readouterr().err
        assert f"{paths['test_images']} holds no images" in err
        assert not (tmp_path / "m.jsonl").exists()
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("model", ["mlp-bn", "cnn-bn"])
    def test_zero_extent_idx_images_name_the_file(self, tmp_path, capsys, model):
        paths, args = idx_train_args(tmp_path, (4, 0, 0), (4, 0, 0))
        assert cli(args + ["--set", f"model={model}"]) == 1
        err = capsys.readouterr().err
        assert f"error: {paths['train_images']} holds images of zero extent 0x0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.jsonl").exists()
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("key,other", [("out.metrics", "out.checkpoint"),
                                           ("out.checkpoint", "out.metrics")])
    def test_output_path_that_is_a_directory_fails_before_metrics_open(
            self, tmp_path, capsys, key, other):
        taken = tmp_path / "taken"
        taken.mkdir()
        path = {"out.metrics": tmp_path / "m.jsonl", "out.checkpoint": tmp_path / "m.ckpt"}
        rc = cli(["train", "--set", "epochs=1", "--set", f"{key}={taken}",
                  "--set", f"{other}={path[other]}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {key}={taken} is a directory" in err
        assert "Traceback" not in err
        assert not path[other].exists()
        assert list(taken.iterdir()) == []

    def test_missing_config_file(self, capsys):
        assert cli(["train", "--config", "/nonexistent/run.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        assert cli(["train", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err


class TestVerify:
    def test_terminal_bn_report_passes(self, capsys):
        assert cli(["verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "bn-terminal"
        assert doc["passed"] is True
        for rep in doc["reports"]:
            assert rep["rowsum_ok"] and rep["diagonal_ok"]

    def test_deep_model_audits_rowsums_only(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli(["verify", "--model", "mlp-bn", "--seed", "7",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {r["parameter"] for r in doc["reports"]}
        assert names == {"bn1.gamma", "bn1.beta"}
        assert all("diagonal_ok" not in r for r in doc["reports"])

    @pytest.mark.parametrize("model,seed", [("cnn-bn", "0"), ("cnn-wn", "1")])
    def test_cnn_audits_pass_at_kinked_points(self, model, seed, capsys):
        # FD steps here cross ReLU kinks unless the masks are held fixed
        assert cli(["verify", "--model", model, "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_param_restricts_report(self, capsys):
        assert cli(["verify", "--param", "bn1.gamma"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["parameter"] for r in doc["reports"]] == ["bn1.gamma"]

    def test_unknown_param_fails(self, capsys):
        assert cli(["verify", "--param", "bn9.gamma"]) == 1
        assert "bn9.gamma" in capsys.readouterr().err

    def test_out_path_that_is_a_directory(self, tmp_path, capsys):
        assert cli(["verify", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_unknown_model_fails(self, capsys):
        assert cli(["verify", "--model", "mlp-plain"]) == 1
        err = capsys.readouterr().err
        assert "error: unknown model 'mlp-plain'" in err
        assert "Traceback" not in err


class TestCompare:
    def test_default_flips_optimizer(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cmp.csv"
        assert cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert "delta=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,acc_a,acc_b"
        assert lines[-1].startswith("delta,")

    def test_out_path_that_is_a_directory_fails_before_training(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        taken = tmp_path / "taken"
        taken.mkdir()
        assert cli(["compare", "--config", str(cfg), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert f"error: compare output {taken} is a directory" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]
        assert list(taken.iterdir()) == []


class TestGradcheck:
    def test_all_layer_cases_pass(self, capsys):
        assert cli(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "max:" in out
        assert "FAIL" not in out
        # one line per registered layer case plus the summary
        assert len(out.strip().splitlines()) >= 5

    def test_absurd_tolerance_fails(self, capsys):
        assert cli(["gradcheck", "--seeds", "1", "--tol", "1e-20"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_error_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "gradcheck",
                            lambda model, *a: {p.name: float("nan") for p in model.parameters()})
        assert cli(["gradcheck", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert "linear:fc.weight: nan  FAIL" in out
        assert "max: nan" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "tight"])
    def test_tolerance_not_finite_and_nonnegative_is_bad_usage(self, capsys, tol):
        assert cli(["gradcheck", "--seeds", "1", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "argument --tol:" in err and repr(tol) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_is_bad_usage(self, capsys, seeds):
        assert cli(["gradcheck", "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert f"argument --seeds: must be >= 1, got {int(seeds)}" in err
        assert "Traceback" not in err
