"""Training loop artifacts: metrics layout, determinism, counters,
checkpoints, and the two-optimizer comparison."""

import gc
import itertools
import json
import platform
import warnings
import weakref

import numpy as np
import pytest

from sgdph import autodiff as ad
from sgdph import nn
from sgdph import train as tr
from sgdph.config import ConfigError, RunConfig
from sgdph.data import gen_blobs, write_digits_fixture
from sgdph.tensor import Rng

import nets


def small_cfg(tmp_path, tag, **kwargs):
    base = dict(
        epochs=2, dataset_n=100, batch_size=25, seed=0,
        out_metrics=str(tmp_path / f"{tag}.jsonl"),
        out_checkpoint=str(tmp_path / f"{tag}.ckpt"),
    )
    base.update(kwargs)
    return RunConfig(**base)


def read_records(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


class TestTrainLoop:
    def test_smoke_run_ends_with_eval_record(self, tmp_path):
        cfg = small_cfg(tmp_path, "smoke", optimizer="sgdm")
        result = tr.train(cfg)
        records = read_records(cfg.out_metrics)
        assert records == result.records
        assert records[-1]["split"] == "test"
        assert records[-1]["epoch"] == cfg.epochs - 1
        # 4 train batches + 1 eval per epoch
        assert len(records) == cfg.epochs * 5
        assert 0.0 <= result.final_test_accuracy <= 1.0

    def test_record_field_order_is_fixed(self, tmp_path):
        cfg = small_cfg(tmp_path, "order", optimizer="sgdph")
        tr.train(cfg)
        for rec in read_records(cfg.out_metrics):
            keys = list(rec.keys())
            assert keys[:7] == ["epoch", "step", "split", "loss", "accuracy", "lr", "wall_ms"]

    def test_wall_time_null_by_default(self, tmp_path):
        cfg = small_cfg(tmp_path, "nowall", optimizer="sgdm")
        tr.train(cfg)
        assert all(r["wall_ms"] is None for r in read_records(cfg.out_metrics))

    def test_wall_time_opt_in(self, tmp_path):
        cfg = small_cfg(tmp_path, "wall", optimizer="sgdm", log_wall_time=True)
        tr.train(cfg)
        train_recs = [r for r in read_records(cfg.out_metrics) if r["split"] == "train"]
        assert all(isinstance(r["wall_ms"], float) and r["wall_ms"] >= 0 for r in train_recs)

    def test_steps_count_partial_final_batch(self, tmp_path):
        # 100 examples -> 80 train, batch 30 -> batches of 30/30/20
        cfg = small_cfg(tmp_path, "partial", optimizer="sgdm", epochs=1, batch_size=30)
        result = tr.train(cfg)
        train_recs = [r for r in result.records if r["split"] == "train"]
        assert [r["step"] for r in train_recs] == [0, 1, 2]
        assert [r for r in result.records if r["split"] == "test"][0]["step"] == 3

    def test_byte_identical_metrics(self, tmp_path):
        cfg_a = small_cfg(tmp_path, "det-a", optimizer="sgdph")
        cfg_b = small_cfg(tmp_path, "det-b", optimizer="sgdph")
        tr.train(cfg_a)
        tr.train(cfg_b)
        with open(cfg_a.out_metrics, "rb") as fa, open(cfg_b.out_metrics, "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_changes_trajectory(self, tmp_path):
        ra = tr.train(small_cfg(tmp_path, "s0", optimizer="sgdm", seed=0))
        rb = tr.train(small_cfg(tmp_path, "s1", optimizer="sgdm", seed=1))
        assert ra.records != rb.records

    def test_lr_decay_appears_in_records(self, tmp_path):
        cfg = small_cfg(tmp_path, "decay", optimizer="sgdm", epochs=4,
                        lr_decay_every=2, lr_decay_factor=0.1, tau=0.2)
        result = tr.train(cfg)
        by_epoch = {r["epoch"]: r["lr"] for r in result.records}
        assert by_epoch[0] == by_epoch[1] == pytest.approx(0.2)
        assert by_epoch[2] == by_epoch[3] == pytest.approx(0.02)

    def test_abort_on_non_finite_loss(self, tmp_path):
        cfg = small_cfg(tmp_path, "abort", optimizer="sgdph", epochs=1, tau=1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(tr.TrainAbortError, match="non-finite loss"):
                tr.train(cfg)
        records = read_records(cfg.out_metrics)
        assert records[-1]["loss"] is None and records[-1]["accuracy"] is None

    def test_optimizer_failure_names_epoch_and_step(self, tmp_path, monkeypatch):
        real = ad.hessian_diag_1d
        calls = itertools.count()

        def nan_from_step_1(loss, p):
            # mlp-bn has two 1-D parameters, so calls 2 and up are step 1's
            h = real(loss, p)
            return np.full_like(h, np.nan) if next(calls) >= 2 else h

        monkeypatch.setattr(ad, "hessian_diag_1d", nan_from_step_1)
        cfg = small_cfg(tmp_path, "nan-h", optimizer="sgdph", epochs=1)
        with pytest.raises(tr.TrainAbortError,
                           match=r"^epoch 0 step 1: parameter 'bn1.gamma': "
                                 r"hessian momentum not finite"):
            tr.train(cfg)
        records = read_records(cfg.out_metrics)
        assert [(r["epoch"], r["step"], r["split"]) for r in records] == [(0, 0, "train")]

    def test_aborted_step_frees_its_tape(self, tmp_path, monkeypatch):
        # with the cyclic collector off, every array of the aborted step's
        # tape dies with the abort: the step releases its tape on the way out
        real_backward, real_hdiag = ad.backward, ad.hessian_diag_1d
        calls = itertools.count()
        refs = []

        def backward(loss, **kwargs):
            grads = real_backward(loss, **kwargs)
            refs[:] = [weakref.ref(v.value) for v in loss.graph.nodes if v.parents]
            return grads

        def nan_from_step_1(loss, p):
            h = real_hdiag(loss, p)
            return np.full_like(h, np.nan) if next(calls) >= 2 else h

        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(ad, "hessian_diag_1d", nan_from_step_1)
        cfg = small_cfg(tmp_path, "nan-h-freed", optimizer="sgdph", epochs=1)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(tr.TrainAbortError, match=r"^epoch 0 step 1: "):
                tr.train(cfg)
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert refs and alive == 0

    def test_non_finite_gradient_names_epoch_and_step(self, tmp_path, monkeypatch):
        real = ad.backward
        calls = itertools.count()

        def nan_from_step_1(loss, **kwargs):
            grads = real(loss, **kwargs)
            if next(calls) >= 1:
                # id 0 is the first leaf bound on a fresh tape: fc1.weight
                grads[0] = np.full_like(grads[0], np.nan)
            return grads

        monkeypatch.setattr(ad, "backward", nan_from_step_1)
        cfg = small_cfg(tmp_path, "nan-g", optimizer="sgdph", epochs=1)
        with pytest.raises(tr.TrainAbortError,
                           match=r"^epoch 0 step 1: parameter 'fc1.weight': "
                                 r"gradient not finite"):
            tr.train(cfg)
        records = read_records(cfg.out_metrics)
        assert [(r["epoch"], r["step"], r["split"]) for r in records] == [(0, 0, "train")]


def repeat_train_faults(tmp_path, optimizer: str, dtype: str) -> int:
    """Minor page faults of the second of two identical one-step cnn-bn
    runs at batch 100 in one process."""
    import resource

    paths = write_digits_fixture(str(tmp_path / "idx"), n_train=100, n_test=100, seed=0)
    cfg = RunConfig(model="cnn-bn", optimizer=optimizer, dtype=dtype, epochs=1,
                    batch_size=100, seed=0, dataset_kind="idx", dataset_subset_n=100,
                    dataset_train_images=paths["train_images"],
                    dataset_train_labels=paths["train_labels"],
                    dataset_test_images=paths["test_images"],
                    dataset_test_labels=paths["test_labels"],
                    out_metrics=str(tmp_path / "m.jsonl"),
                    out_checkpoint=str(tmp_path / "m.ckpt"))
    assert [r["step"] for r in tr.train(cfg).records if r["split"] == "train"] == [0]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.train(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_repeat_train_reuses_freed_heap(tmp_path):
    """A second one-step cnn-bn run reuses the heap the first one grew.
    Under an mmap threshold or heap trimming, the tape's arrays are
    returned to the kernel on release and faulted in again: about 40k
    minor faults per call at this size."""
    faults = repeat_train_faults(tmp_path, "sgdm", "f32")
    assert faults < 1000, f"{faults} minor faults on a repeated one-step run"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_repeat_f64_sgdph_train_reuses_freed_heap(tmp_path):
    """The same in f64 with the curvature sweeps. The convolutions unfold
    a few samples at a time, so no transient reaches the 32 MiB mmap
    threshold; a whole-batch patch matrix (45 MB for conv2's input) was
    mmapped and returned on every call, about 1.8k-2.7k faults a run."""
    faults = repeat_train_faults(tmp_path, "sgdph", "f64")
    assert faults < 100, f"{faults} minor faults on a repeated one-step f64 run"


class TestCounters:
    @staticmethod
    def spy_calls(monkeypatch) -> dict[str, int]:
        """Counts the training loop's backward and curvature calls."""
        calls = {"backward": 0, "hessian_diag_1d": 0}
        for name in calls:
            def spy(*args, _name=name, _call=getattr(ad, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(ad, name, spy)
        return calls

    @staticmethod
    def steps(result) -> int:
        return sum(r["split"] == "train" for r in result.records)

    def test_sgdph_one_hdiag_call_per_1d_param_per_step(self, tmp_path, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        result = tr.train(small_cfg(tmp_path, "c1", optimizer="sgdph"))
        one_d = [p for p in result.model.parameters() if p.kind == "channelwise-1d"]
        assert len(one_d) == 2  # bn gamma and beta
        assert calls["hessian_diag_1d"] == self.steps(result) * len(one_d)
        assert calls["backward"] == self.steps(result)

    def test_sgdm_never_extracts_curvature(self, tmp_path, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        result = tr.train(small_cfg(tmp_path, "c2", optimizer="sgdm"))
        assert calls["hessian_diag_1d"] == 0
        assert calls["backward"] == self.steps(result)

    def test_hessian_stats_only_under_sgdph(self, tmp_path):
        rp = tr.train(small_cfg(tmp_path, "h1", optimizer="sgdph"))
        rm = tr.train(small_cfg(tmp_path, "h2", optimizer="sgdm"))
        assert all("hessian" in r for r in rp.records)
        assert all("hessian" not in r for r in rm.records)
        names = {s["name"] for s in rp.records[-1]["hessian"]}
        assert names == {"bn1.gamma", "bn1.beta"}


class TestCheckpoints:
    def test_round_trip_includes_running_stats(self, tmp_path):
        cfg = small_cfg(tmp_path, "ck", optimizer="sgdph", dtype="f64")
        result = tr.train(cfg)
        stored = tr.load_checkpoint(cfg.out_checkpoint)
        for p in result.model.parameters():
            np.testing.assert_array_equal(stored[p.name], p.value)
        bn = result.model.layers[1]
        np.testing.assert_array_equal(stored["bn1.running_mean"], bn.running_mean)
        np.testing.assert_array_equal(stored["bn1.running_var"], bn.running_var)

    def test_f32_width(self, tmp_path):
        cfg = small_cfg(tmp_path, "ck32", optimizer="sgdm", dtype="f32")
        result = tr.train(cfg)
        stored = tr.load_checkpoint(cfg.out_checkpoint)
        assert stored["fc1.weight"].dtype == np.float32
        np.testing.assert_array_equal(stored["fc1.weight"],
                                      result.model.parameters()[0].value)

    def test_restored_model_reproduces_eval(self, tmp_path):
        cfg = small_cfg(tmp_path, "ckeval", optimizer="sgdm", dtype="f64")
        result = tr.train(cfg)
        stored = tr.load_checkpoint(cfg.out_checkpoint)

        fresh = tr.build_from_config(cfg, result.dataset)
        fresh.set_values({k: v for k, v in stored.items() if "running" not in k})
        for layer in fresh.layers:
            if hasattr(layer, "running_mean"):
                layer.running_mean = stored[f"{layer.name}.running_mean"]
                layer.running_var = stored[f"{layer.name}.running_var"]
        loss_a, acc_a = tr.evaluate(result.model, result.dataset.x_test,
                                    result.dataset.y_test, 25, np.float64)
        loss_b, acc_b = tr.evaluate(fresh, result.dataset.x_test,
                                    result.dataset.y_test, 25, np.float64)
        assert (loss_a, acc_a) == (loss_b, acc_b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(str(path))

    @staticmethod
    def saved_bytes(tmp_path):
        """A valid f32 checkpoint of an untrained mlp-bn (hidden width 32),
        whose last entry is the 32-float bn1.running_var."""
        model = nn.build_model("mlp-bn", Rng(0), in_shape=(2,), n_classes=3,
                               dtype=np.float32)
        path = tmp_path / "ok.ckpt"
        tr.save_checkpoint(str(path), model, "f32")
        return path.read_bytes()

    def load_bytes(self, tmp_path, raw):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw)
        return tr.load_checkpoint(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        raw = self.saved_bytes(tmp_path)
        with pytest.raises(ValueError, match="9 bytes for header at byte offset 4, got 6"):
            self.load_bytes(tmp_path, raw[:10])

    def test_truncated_payload_rejected(self, tmp_path):
        raw = self.saved_bytes(tmp_path)
        with pytest.raises(ValueError, match=f"128 bytes for payload of bn1.running_var "
                                             f"at byte offset {len(raw) - 128}, got 127"):
            self.load_bytes(tmp_path, raw[:-1])

    def test_trailing_bytes_rejected(self, tmp_path):
        raw = self.saved_bytes(tmp_path)
        with pytest.raises(ValueError, match=f"2 unexpected bytes after payload "
                                             f"at byte offset {len(raw)}"):
            self.load_bytes(tmp_path, raw + b"\x00\x00")

    def test_bad_width_rejected(self, tmp_path):
        raw = bytearray(self.saved_bytes(tmp_path))
        raw[8] = 2
        with pytest.raises(ValueError, match="width 2 at byte offset 8"):
            self.load_bytes(tmp_path, bytes(raw))


class TestDatasets:
    def test_idx_kind_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.train_images"):
            tr.make_dataset(RunConfig(dataset_kind="idx"))

    def test_blobs_kind_threads_parameters(self):
        cfg = RunConfig(dataset_n=50, dataset_dims=3, dataset_classes=5,
                        dataset_noise=0.1, dataset_seed=4)
        ds = tr.make_dataset(cfg)
        direct = gen_blobs(50, 3, 5, 0.1, 4)
        np.testing.assert_array_equal(ds.x_train, direct.x_train)
        assert ds.n_classes == 5

    def test_evaluate_on_separable_data(self):
        ds = gen_blobs(100, noise=0.0)
        cfg = RunConfig(dataset_n=100, dataset_noise=0.0, epochs=40, batch_size=20, seed=1)
        model = tr.build_from_config(cfg, ds)
        loss, acc = tr.evaluate(model, ds.x_test, ds.y_test, 20, np.float64)
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0


class TestCompare:
    def test_dense_only_curves_coincide(self, tmp_path, monkeypatch):
        # without 1-D parameters the two optimizers are the same algorithm
        monkeypatch.setattr(nn, "build_model", lambda name, *a, **kw: nets.mlp_plain(*a, **kw))
        cfg_a = small_cfg(tmp_path, "cmp-a", optimizer="sgdph")
        cfg_b = small_cfg(tmp_path, "cmp-b", optimizer="sgdm")
        result = tr.compare(cfg_a, cfg_b, str(tmp_path / "dense.csv"))
        for _, acc_a, acc_b in result.rows:
            assert abs(acc_a - acc_b) <= 1e-9
        assert abs(result.delta) <= 1e-9

    def test_csv_layout(self, tmp_path):
        cfg_a = small_cfg(tmp_path, "csv-a", optimizer="sgdph")
        cfg_b = small_cfg(tmp_path, "csv-b", optimizer="sgdm")
        result = tr.compare(cfg_a, cfg_b, str(tmp_path / "out.csv"))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "epoch,acc_a,acc_b"
        assert len(lines) == 2 + cfg_a.epochs
        assert lines[-1].startswith("delta,")
        epoch, a, b = lines[1].split(",")
        assert int(epoch) == 0
        assert result.rows[0][1] == float(a) and result.rows[0][2] == float(b)

    def test_mismatched_dataset_rejected(self, tmp_path):
        cfg_a = small_cfg(tmp_path, "mm-a")
        cfg_b = small_cfg(tmp_path, "mm-b", dataset_n=200)
        with pytest.raises(ConfigError, match="dataset_n"):
            tr.compare(cfg_a, cfg_b, str(tmp_path / "x.csv"))

    def test_colliding_output_paths_suffixed(self, tmp_path):
        shared = str(tmp_path / "same.jsonl")
        cfg_a = small_cfg(tmp_path, "sh-a", optimizer="sgdph", out_metrics=shared)
        cfg_b = small_cfg(tmp_path, "sh-b", optimizer="sgdm", out_metrics=shared)
        result = tr.compare(cfg_a, cfg_b, str(tmp_path / "s.csv"))
        assert result.result_a.cfg.out_metrics == shared + ".a"
        assert result.result_b.cfg.out_metrics == shared + ".b"

    def test_shared_checkpoint_suffixed_on_its_own(self, tmp_path):
        # distinct metrics paths, one checkpoint path: B must not overwrite A
        shared = str(tmp_path / "model.ckpt")
        cfg_a = small_cfg(tmp_path, "ck-a", optimizer="sgdph", out_checkpoint=shared)
        cfg_b = small_cfg(tmp_path, "ck-b", optimizer="sgdm", out_checkpoint=shared)
        result = tr.compare(cfg_a, cfg_b, str(tmp_path / "ck.csv"))
        assert result.result_a.cfg.out_metrics == cfg_a.out_metrics
        assert result.result_b.cfg.out_metrics == cfg_b.out_metrics
        assert result.result_a.cfg.out_checkpoint == shared + ".a"
        assert result.result_b.cfg.out_checkpoint == shared + ".b"
        for res in (result.result_a, result.result_b):
            saved = tr.load_checkpoint(res.cfg.out_checkpoint)
            for p in res.model.parameters():
                np.testing.assert_array_equal(saved[p.name], p.value)
