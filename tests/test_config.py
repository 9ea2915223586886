"""Config file parsing, dotted keys, coercion, and validation; the
recipes and program names the benchmark reads."""

import ast
import dataclasses
import importlib
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from sgdph import autodiff as ad
from sgdph import train
from sgdph.config import ConfigError, RunConfig, load_config, parse_kv_lines
from sgdph.data import write_digits_fixture

ROOT = Path(__file__).resolve().parent.parent


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
            "model=cnn-wn",
        ])
        assert out == {"epochs": 5, "model": "cnn-wn"}

    def test_hash_opens_a_comment_only_after_whitespace(self):
        out = parse_kv_lines([
            "  # an indented comment",
            "out.metrics = runs/a#1.jsonl",
            "out.checkpoint = runs/b.ckpt\t# after a tab",
            "model = cnn-wn #no space after the hash",
        ])
        assert out == {"out_metrics": "runs/a#1.jsonl", "out_checkpoint": "runs/b.ckpt",
                       "model": "cnn-wn"}

    def test_dotted_keys_map_to_groups(self):
        out = parse_kv_lines(["dataset.noise = 0.25", "out.metrics = run.jsonl"])
        assert out == {"dataset_noise": 0.25, "out_metrics": "run.jsonl"}

    def test_unknown_key_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: unknown config key 'lr'"):
            parse_kv_lines(["epochs=1", "lr=0.1"], source="cfg")

    def test_a_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"cfg:3: key 'tau' repeats line 1"):
            parse_kv_lines(["tau = 0.1", "epochs = 2", "tau = 0.2"], source="cfg")
        with pytest.raises(ConfigError, match=r"<config>:2: key 'dataset.noise' repeats line 1"):
            parse_kv_lines(["dataset.noise = 0.5", "dataset.noise=1.0  # noisier"])

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

    def test_overrides_win_over_the_file_and_over_each_other(self, tmp_path):
        # a repeat is an error inside a file only: --set exists to replace
        path = tmp_path / "run.cfg"
        path.write_text("tau = 0.5\n", encoding="utf-8")
        assert load_config(str(path), ["tau=0.25", "tau=0.125"]).tau == 0.125

    def test_config_from_overrides(self):
        cfg = load_config("", ["optimizer=sgdm", "dataset.classes=3"])
        assert cfg.optimizer == "sgdm" and cfg.dataset_classes == 3

    def test_override_keeps_hash_in_value(self, tmp_path):
        # a '#' inside a value is kept, in a file and in an override
        path = tmp_path / "run.cfg"
        path.write_text("out.metrics = runs/a#1.jsonl\n", encoding="utf-8")
        cfg = load_config(str(path), ["out.checkpoint=runs/a#1.ckpt"])
        assert cfg.out_metrics == "runs/a#1.jsonl"
        assert cfg.out_checkpoint == "runs/a#1.ckpt"


def load_bench_module(monkeypatch, stem):
    """bench/<stem>.py, read-only: its source is executed, so nothing is
    compiled or cached under bench/."""
    path = ROOT / "bench" / f"{stem}.py"
    module = types.ModuleType(f"bench_{stem}")
    # dataclasses looks the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


class TestPinnedConfigs:
    """configs/ holds the paired runs of the acceptance gate; bench/spec.py
    still writes out the same recipes, and README names the files."""

    def test_configs_match_bench_recipes_and_readme(self, monkeypatch):
        spec = load_bench_module(monkeypatch, "spec")
        trainings = [w for w, _ in spec.WORKLOADS.values() if isinstance(w, spec.Training)]
        paths = sorted((ROOT / "configs").glob("*.cfg"))
        assert len(paths) == 5
        covered = set()
        for path in paths:
            cfg = load_config(str(path))
            data = "digits" if cfg.dataset_kind == "idx" else "blobs"
            # every workload with this optimizer uses this config's recipe
            recipes = {(w.tau, w.eta) for w in trainings if w.optimizer == cfg.optimizer}
            assert recipes == {(cfg.tau, cfg.eta)}, path.name
            covered.add((cfg.model, cfg.optimizer, data))
        # every training workload runs the model, optimizer and data of a config
        assert {(w.model, w.optimizer, w.data) for w in trainings} <= covered

        named = re.findall(r"configs/[\w.-]+\.cfg", (ROOT / "README.md").read_text(encoding="utf-8"))
        assert named
        for name in named:
            assert (ROOT / name).is_file(), name


class TestTracedNames:
    def test_every_wrapped_attribute_exists(self, monkeypatch):
        # the tracer patches these by name; a rename in sgdph would break
        # only a traced bench run
        tracing = load_bench_module(monkeypatch, "tracing")
        assert tracing.WRAPPED
        for module_name, attr in tracing.WRAPPED:
            target = importlib.import_module(f"sgdph.{module_name}")
            for part in attr.split("."):
                target = getattr(target, part, None)
                assert target is not None, f"sgdph.{module_name}.{attr}"
            assert callable(target), f"sgdph.{module_name}.{attr}"

    def test_every_sgdph_attribute_the_bench_reads_exists(self):
        # bench/*.py read these through `from sgdph import X as Y`, Y.attr;
        # a name moved out of sgdph would break only a bench run
        read, missing = set(), []
        for path in sorted((ROOT / "bench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            modules = {a.asname or a.name: f"sgdph.{a.name}" for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "sgdph"
                       for a in node.names}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name) and node.value.id in modules):
                    module = modules[node.value.id]
                    read.add((module, node.attr))
                    if not hasattr(importlib.import_module(module), node.attr):
                        missing.append(f"{path.name}: {module}.{node.attr}")
        assert missing == []
        assert {("sgdph.autodiff", "CHANNELWISE_1D"), ("sgdph.cli", "_verify_input"),
                ("sgdph.cli", "ROWSUM_TOL"), ("sgdph.train", "load_checkpoint")} <= read

    def test_a_traced_step_counts_only_the_values_the_tape_keeps(self, monkeypatch, tmp_path):
        # the tracer reads every tape value's flags after each backward, so a
        # freed value must stay an ndarray, one that owns no data
        tapes = []
        backward = ad.backward

        def spy(loss, *args, **kwargs):
            grads = backward(loss, *args, **kwargs)
            tapes.append([v.value for v in loss.graph.nodes])
            return grads

        monkeypatch.setattr(ad, "backward", spy)
        tracer = traced_train(monkeypatch, one_step_cnn_bn(tmp_path, "sgdph"))
        assert len(tracer.tape) == len(tapes) == 1
        _, step, before, added, by_op = tracer.tape[0]
        assert (step, before > 0, added > 0) == (1, True, True)
        freed = [a for a in tapes[0] if np.isnan(a).all()]
        kept = {id(a): a.nbytes for a in tapes[0] if a.flags.owndata and not np.isnan(a).all()}
        assert freed and 0 < sum(by_op.values()) == sum(kept.values())

    @pytest.mark.parametrize("optimizer,update,curvature", [
        ("sgdph", "optim.step", ["bn1.beta", "bn1.gamma", "bn2.beta", "bn2.gamma"]),
        ("sgdm", "optim.sgdm_step", []),
    ])
    def test_a_traced_step_span_holds_the_whole_step(self, monkeypatch, tmp_path,
                                                     optimizer, update, curvature):
        # the tracer opens train.step at a forward_v directly under
        # train.train and closes it when that step's tape is released, so
        # the tape must be released after the optimizer step
        tracer = traced_train(monkeypatch, one_step_cnn_bn(tmp_path, optimizer))
        spans = [(name, parent, detail) for name, _, _, parent, _, detail in tracer.spans]
        steps = [i for i, (name, _, _) in enumerate(spans) if name == "train.step"]
        assert len(steps) == 1

        def in_step(i):
            while i > steps[0]:
                i = spans[i][1]
            return i == steps[0]

        inside = [(name, detail) for i, (name, _, detail) in enumerate(spans)
                  if i > steps[0] and in_step(i)]
        names = {name for name, _ in inside}
        assert {"nn.forward_v", "autodiff.backward", update} <= names
        assert sorted(detail for name, detail in inside
                      if name == "autodiff.hessian_diag_1d") == curvature


def one_step_cnn_bn(tmp_path, optimizer: str) -> RunConfig:
    """A one-step cnn-bn run on a 10-image digit fixture."""
    paths = write_digits_fixture(str(tmp_path / "idx"), n_train=10, n_test=10, seed=0)
    return RunConfig(model="cnn-bn", optimizer=optimizer, epochs=1, batch_size=10,
                     dataset_kind="idx", dataset_subset_n=10,
                     dataset_train_images=paths["train_images"],
                     dataset_train_labels=paths["train_labels"],
                     dataset_test_images=paths["test_images"],
                     dataset_test_labels=paths["test_labels"],
                     out_metrics=str(tmp_path / "m.jsonl"),
                     out_checkpoint=str(tmp_path / "m.ckpt"))


def traced_train(monkeypatch, cfg: RunConfig):
    """The bench's Tracer after one train.train run inside a train.train
    span, as the bench opens it."""
    tracer = load_bench_module(monkeypatch, "tracing").Tracer()
    tracer.install()
    try:
        sid = tracer.begin("train.train")
        train.train(cfg)
        tracer.end(sid)
    finally:
        tracer.uninstall()
    return tracer


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
        ({"dataset_subset_n": -3}, "dataset.subset_n"),
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
