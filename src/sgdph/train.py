"""Deterministic training loop and run artifacts.

Metrics are line-delimited JSON with a fixed field order so identical
(config, seed) runs produce byte-identical files; wall-clock timing is
therefore opt-in (log_wall_time) and recorded as null by default.
Checkpoints are little-endian binary with a name/shape table followed by
raw parameter data; batch-norm running statistics are stored alongside
the parameters so eval-mode inference is self-contained.

A non-finite loss aborts the run with a TrainAbortError after writing a
record with null loss. An optimizer invariant that fails (Hessian
momentum not finite and positive) aborts it with a TrainAbortError that
names the epoch, step and parameter; the step is not applied and the
metrics file holds the records of the completed steps only.

Each step is one nn.taped_batch block, which releases the batch's tape
after the optimizer step or the abort, and keeps freed heap blocks for
the next step's tape (ad.keep_freed_memory).
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import nn, optim
from .config import ConfigError, RunConfig
from .data import Dataset, gen_blobs, load_idx
from .tensor import DTYPES, Rng


class TrainAbortError(RuntimeError):
    pass


CKPT_MAGIC = b"SGPH"
CKPT_VERSION = 1


def make_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset_kind == "blobs":
        return gen_blobs(cfg.dataset_n, cfg.dataset_dims, cfg.dataset_classes,
                         cfg.dataset_noise, cfg.dataset_seed)
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        if not getattr(cfg, f"dataset_{key}"):
            raise ConfigError(f"dataset.kind=idx requires dataset.{key}")
    return load_idx(cfg.dataset_train_images, cfg.dataset_train_labels,
                    cfg.dataset_test_images, cfg.dataset_test_labels,
                    cfg.dataset_subset_n)


def build_from_config(cfg: RunConfig, dataset: Dataset) -> nn.Model:
    return nn.build_model(cfg.model, Rng(cfg.seed), in_shape=dataset.in_shape,
                          n_classes=dataset.n_classes, dtype=DTYPES[cfg.dtype])


def evaluate(model: nn.Model, x: np.ndarray, y: np.ndarray, batch_size: int,
             dtype) -> tuple[float, float]:
    """Eval-mode pass (running statistics, no tape): mean loss and accuracy."""
    total_loss = 0.0
    hits = 0
    for lo in range(0, x.shape[0], batch_size):
        xb = x[lo : lo + batch_size].astype(dtype)
        yb = y[lo : lo + batch_size]
        logits = model.forward_np(xb, training=False).astype(np.float64)
        total_loss += nn.softmax_cross_entropy_np(logits, yb) * xb.shape[0]
        hits += int(np.sum(np.argmax(logits, axis=1) == yb))
    n = x.shape[0]
    return total_loss / n, hits / n


@dataclass
class TrainResult:
    cfg: RunConfig
    model: nn.Model
    dataset: Dataset
    records: list[dict]

    @property
    def final_test_accuracy(self) -> float:
        tests = [r for r in self.records if r["split"] == "test"]
        return tests[-1]["accuracy"] if tests else float("nan")


def _record(epoch: int, step: int, split: str, loss, accuracy, lr: float,
            wall_ms, hstats) -> dict:
    rec = {
        "epoch": epoch, "step": step, "split": split, "loss": loss,
        "accuracy": accuracy, "lr": lr, "wall_ms": wall_ms,
    }
    if hstats is not None:
        rec["hessian"] = hstats
    return rec


def _hessian_stats(state: optim.OptState, one_d_names: list[str]) -> list[dict]:
    out = []
    for name in one_d_names:
        m_h = state[name].m_h
        out.append({
            "name": name,
            "min": float(np.min(m_h)),
            "mean": float(np.mean(m_h)),
            "max": float(np.max(m_h)),
        })
    return out


def train(cfg: RunConfig) -> TrainResult:
    dataset = make_dataset(cfg)
    model = build_from_config(cfg, dataset)
    dtype = DTYPES[cfg.dtype]
    params = model.parameters()
    one_d = [p.name for p in params if p.kind == ad.CHANNELWISE_1D]
    curvature = one_d if cfg.optimizer == "sgdph" else []
    state = optim.OptState(params)
    records: list[dict] = []

    x_train = dataset.x_train.astype(dtype)
    y_train = dataset.y_train
    n = x_train.shape[0]

    for key, path in (("out.metrics", cfg.out_metrics), ("out.checkpoint", cfg.out_checkpoint)):
        if os.path.isdir(path):
            raise ConfigError(f"{key}={path} is a directory")
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    with open(cfg.out_metrics, "w", encoding="utf-8") as metrics_file:

        def emit(rec: dict) -> None:
            records.append(rec)
            metrics_file.write(json.dumps(rec, separators=(",", ":")) + "\n")

        def hstats() -> list[dict] | None:
            return _hessian_stats(state, one_d) if curvature else None

        for epoch in range(cfg.epochs):
            tau_epoch = optim.decayed_tau(cfg.tau, epoch, cfg.decay_every, cfg.lr_decay_factor)
            step_cfg = cfg.opt_config(tau=tau_epoch)
            perm = Rng(cfg.seed ^ epoch).permutation(n)
            n_batches = 0
            for step, lo in enumerate(range(0, n, cfg.batch_size)):
                t0 = time.perf_counter() if cfg.log_wall_time else None
                idx = perm[lo : lo + cfg.batch_size]
                xb, yb = x_train[idx], y_train[idx]

                # the tape is released as the block exits, after the step
                with nn.taped_batch(model, xb, yb, "ce", curvature) as (
                        loss, logits, grads, hdiags):
                    acc = float(np.mean(np.argmax(logits, axis=1) == yb))
                    if not np.isfinite(loss):
                        emit(_record(epoch, step, "train", None, None, tau_epoch, None, hstats()))
                        raise TrainAbortError(
                            f"non-finite loss at epoch {epoch} step {step}; aborting"
                        )
                    try:
                        if cfg.optimizer == "sgdph":
                            optim.step(params, grads, hdiags, step_cfg, state)
                        else:
                            optim.sgdm_step(params, grads, step_cfg, state)
                    except optim.InvariantViolation as e:
                        raise TrainAbortError(f"epoch {epoch} step {step}: {e}") from e
                # not held while the next step builds its tape
                del logits, grads, hdiags

                wall_ms = (time.perf_counter() - t0) * 1e3 if cfg.log_wall_time else None
                emit(_record(epoch, step, "train", loss, acc, tau_epoch, wall_ms, hstats()))
                n_batches += 1

            test_loss, test_acc = evaluate(model, dataset.x_test, dataset.y_test,
                                           cfg.batch_size, dtype)
            emit(_record(epoch, n_batches, "test", test_loss, test_acc, tau_epoch, None,
                         hstats()))

    save_checkpoint(cfg.out_checkpoint, model, cfg.dtype)
    return TrainResult(cfg, model, dataset, records)


# ---------------------------------------------------------------------------
# checkpoint format


def _checkpoint_entries(model: nn.Model) -> list[tuple[str, np.ndarray]]:
    entries = [(p.name, p.value) for p in model.parameters()]
    for layer in model.layers:
        if isinstance(layer, nn.BatchNorm):
            entries.append((f"{layer.name}.running_mean", layer.running_mean))
            entries.append((f"{layer.name}.running_var", layer.running_var))
    return entries


def save_checkpoint(path: str, model: nn.Model, dtype: str) -> None:
    width = 4 if dtype == "f32" else 8
    code = "<f4" if dtype == "f32" else "<f8"
    entries = _checkpoint_entries(model)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<IBI", CKPT_VERSION, width, len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
        for _, arr in entries:
            f.write(np.ascontiguousarray(arr).astype(code).tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Reads a save_checkpoint file. A bad magic, version or width byte, a
    truncated header or payload, or bytes after the payload raise
    ValueError naming the byte offset."""
    with open(path, "rb") as f:
        raw = f.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if len(raw) - offset < n:
            raise ValueError(f"truncated checkpoint {path}: wanted {n} bytes for {what} "
                             f"at byte offset {offset}, got {len(raw) - offset}")
        offset += n
        return raw[offset - n : offset]

    magic = take(4, "magic")
    if magic != CKPT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r} in {path}")
    version, width, count = struct.unpack("<IBI", take(9, "header"))
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} at byte offset 4 of {path}")
    if width not in (4, 8):
        raise ValueError(f"checkpoint width {width} at byte offset 8 of {path} is not 4 or 8")
    code = "<f4" if width == 4 else "<f8"
    table = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1, f"rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name}"))
        table.append((name, shape))
    out = {}
    for name, shape in table:
        n_items = int(np.prod(shape)) if shape else 1
        buf = take(n_items * width, f"payload of {name}")
        out[name] = np.frombuffer(buf, dtype=code).reshape(shape).copy()
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} unexpected bytes after payload "
                         f"at byte offset {offset}")
    return out


# ---------------------------------------------------------------------------
# optimizer comparison


@dataclass
class CompareResult:
    rows: list[tuple[int, float, float]]
    delta: float
    csv_path: str
    result_a: TrainResult
    result_b: TrainResult


def compare(cfg_a: RunConfig, cfg_b: RunConfig, csv_path: str = "compare.csv") -> CompareResult:
    """Runs both configs (which must share dataset and model) and writes an
    aligned per-epoch test-accuracy CSV ending in a delta line. A csv_path
    naming a directory is rejected before either run starts."""
    for f in ("model",) + tuple(name for name in vars(cfg_a) if name.startswith("dataset_")):
        if getattr(cfg_a, f) != getattr(cfg_b, f):
            raise ConfigError(f"compare requires matching dataset/model, differs on {f!r}")
    if os.path.isdir(csv_path):
        raise ConfigError(f"compare output {csv_path} is a directory")
    # each output path the two runs share gets its own suffix, so B never
    # overwrites A's metrics or checkpoint
    for f in ("out_metrics", "out_checkpoint"):
        path = getattr(cfg_a, f)
        if path == getattr(cfg_b, f):
            cfg_a = replace(cfg_a, **{f: path + ".a"})
            cfg_b = replace(cfg_b, **{f: path + ".b"})
    ra = train(cfg_a)
    rb = train(cfg_b)
    acc_a = {r["epoch"]: r["accuracy"] for r in ra.records if r["split"] == "test"}
    acc_b = {r["epoch"]: r["accuracy"] for r in rb.records if r["split"] == "test"}
    rows = [(e, acc_a[e], acc_b[e]) for e in sorted(acc_a) if e in acc_b]
    delta = rows[-1][1] - rows[-1][2]
    parent = os.path.dirname(csv_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("epoch,acc_a,acc_b\n")
        for epoch, a, b in rows:
            f.write(f"{epoch},{a!r},{b!r}\n")
        f.write(f"delta,{delta!r}\n")
    return CompareResult(rows, delta, csv_path, ra, rb)
