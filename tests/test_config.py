"""Config file parsing, dotted keys, coercion, and validation."""

import dataclasses

import pytest

from sgdph.config import ConfigError, RunConfig, load_config, parse_kv_lines


class TestDefaults:
    def test_empty_config_is_valid_blobs_run(self):
        cfg = RunConfig()
        assert cfg.model == "mlp-bn" and cfg.optimizer == "sgdph"
        assert cfg.dataset_kind == "blobs"
        assert cfg.out_metrics == "metrics.jsonl"

    def test_auto_decay_every_tracks_epochs(self):
        assert RunConfig(epochs=200).decay_every == 60
        assert RunConfig(epochs=10).decay_every == 3
        assert RunConfig(epochs=1).decay_every == 1

    def test_explicit_decay_every_wins(self):
        assert RunConfig(epochs=200, lr_decay_every=25).decay_every == 25


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        out = parse_kv_lines([
            "# a comment",
            "",
            "epochs = 5  # trailing comment",
            "model=mlp-plain",
        ])
        assert out == {"epochs": 5, "model": "mlp-plain"}

    def test_dotted_keys_map_to_groups(self):
        out = parse_kv_lines(["dataset.noise = 0.25", "out.metrics = run.jsonl"])
        assert out == {"dataset_noise": 0.25, "out_metrics": "run.jsonl"}

    def test_unknown_key_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: unknown config key 'lr'"):
            parse_kv_lines(["epochs=1", "lr=0.1"], source="cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_kv_lines(["epochs 5"])

    def test_int_coercion_error(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_kv_lines(["epochs=five"])

    def test_float_coercion_error(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_kv_lines(["tau=big"])

    def test_bool_coercion(self):
        assert parse_kv_lines(["log_wall_time=true"]) == {"log_wall_time": True}
        assert parse_kv_lines(["log_wall_time=0"]) == {"log_wall_time": False}
        with pytest.raises(ConfigError, match="true/false"):
            parse_kv_lines(["log_wall_time=maybe"])


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\ntau = 0.5\ndataset.n = 64\n", encoding="utf-8")
        cfg = load_config(str(path), overrides=["tau=0.25", "seed=9"])
        assert cfg.epochs == 7
        assert cfg.tau == 0.25
        assert cfg.dataset_n == 64
        assert cfg.seed == 9

    def test_config_from_overrides(self):
        cfg = load_config("", ["optimizer=sgdm", "dataset.classes=3"])
        assert cfg.optimizer == "sgdm" and cfg.dataset_classes == 3


class TestValidation:
    @pytest.mark.parametrize("kwargs,message", [
        ({"optimizer": "adam"}, "optimizer"),
        ({"dtype": "f16"}, "dtype"),
        ({"dataset_kind": "csv"}, "dataset.kind"),
        ({"alpha": 1.5}, "alpha"),
        ({"epochs": 0}, "positive"),
        ({"batch_size": 0}, "positive"),
        ({"eps": 0.0}, "eps"),
        ({"tau": 0.0}, "tau"),
        ({"beta_m": 0.0}, "beta_m"),
        ({"eta": -1.0}, "eta"),
        ({"tau_so": 0.0}, "tau_so"),
        ({"lr_decay_factor": 0.0}, "lr_decay_factor"),
        ({"lr_decay_factor": -1.0}, "lr_decay_factor"),
        ({"lr_decay_factor": 1.5}, "lr_decay_factor"),
        # 0.01 * 0.1**322 underflows to 0.0
        ({"epochs": 400, "lr_decay_every": 1}, r"decays tau by epoch 399: tau must be positive"),
    ])
    def test_rejected_fields(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kwargs)

    def test_checked_fields_cannot_be_reassigned(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 1.5
        assert cfg.alpha == 0.9

    def test_training_configs_require_positive_eps(self):
        # the optimizer dataclass admits eps = 0 for property tests; the
        # run-level config does not
        with pytest.raises(ConfigError):
            RunConfig(eps=0.0)
