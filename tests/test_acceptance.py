"""Release gate: ten pinned criteria, one pass/fail line each.

Training-smoke thresholds and the baseline recipe (0.1 / 0.0005) were
pinned by a pre-release calibration run on this exact code; every other
number is a tolerance on an oracle or closed-form comparison. The training
smokes run the checked-in configs under configs/, with only their output
and fixture paths moved into the test's directory.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from sgdph import autodiff as ad
from sgdph import nn, optim, oracle
from sgdph import train as tr
from sgdph.config import load_config
from sgdph.data import gen_blobs, write_digits_fixture
from sgdph.tensor import Rng

import nets

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _pinned(name: str, out_dir: Path, fixture: dict[str, str] | None = None):
    """configs/<name>.cfg with its outputs in out_dir and, for the digit
    runs, its dataset paths on the given IDX fixture."""
    sets = [f"out.metrics={out_dir / (name + '.jsonl')}",
            f"out.checkpoint={out_dir / (name + '.ckpt')}"]
    sets += [f"dataset.{key}={path}" for key, path in (fixture or {}).items()]
    return load_config(str(CONFIGS / f"{name}.cfg"), sets)


@pytest.fixture(scope="session")
def digits_fixture(tmp_path_factory):
    """The 1000+1000-image IDX fixture of criterion 9 and its cnn-wn twin."""
    out = tmp_path_factory.mktemp("idx")
    return write_digits_fixture(str(out), n_train=1000, n_test=1000, seed=0)


@pytest.fixture(scope="session")
def crit8_sgdph(tmp_path_factory):
    """The canonical sgdph blobs run, shared by criteria 8 and 10."""
    cfg = _pinned("blobs-mlp-bn-sgdph", tmp_path_factory.mktemp("crit8"))
    t0 = time.perf_counter()
    result = tr.train(cfg)
    elapsed = time.perf_counter() - t0
    _, train_acc = tr.evaluate(result.model, result.dataset.x_train,
                               result.dataset.y_train, cfg.batch_size, np.float32)
    with open(cfg.out_metrics, "rb") as f:
        metrics_bytes = f.read()
    return {"train_acc": train_acc, "metrics_bytes": metrics_bytes, "elapsed": elapsed}


def test_criterion_01_layer_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = oracle.gradcheck_layers(range(20))
    elapsed = time.perf_counter() - t0
    err = max(worst.values())
    ok = err <= 1e-5 and elapsed < 30
    _report(1, ok, f"gradcheck {len(oracle.LAYER_CASES)} layer cases x 20 seeds: "
                   f"max rel err {err:.2e} "
                   f"<= 1e-5  ({elapsed:.1f}s < 30s)")


def test_criterion_02_extraction_equals_fd_row_sums():
    t0 = time.perf_counter()
    model = nets.mlp_bn2(Rng(0), in_shape=(4,), n_classes=3)
    x = Rng(1).normal((10, 4))
    labels = Rng(2).integers(0, 3, (10,))
    lossfn = oracle.model_lossfn(model, x, "ce", labels)
    one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
    assert one_d == ["bn1.gamma", "bn1.beta", "bn2.gamma", "bn2.beta"]
    err = 0.0
    for name in one_d:
        block = oracle.fd_hessian_block_1d(lossfn, model.values(), name)
        extracted = oracle.tape_hdiag(model, x, name, "ce", labels)
        err = max(err, oracle.max_rel_err(extracted, block.sum(axis=1)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-5 and elapsed < 60
    _report(2, ok, f"two-hidden-BN MLP, 4 blocks: extraction vs FD row sums "
                   f"max rel err {err:.2e} <= 1e-5  ({elapsed:.1f}s < 60s)")


def test_criterion_03_terminal_bn_block_is_diagonal_with_closed_form():
    t0 = time.perf_counter()
    model = nn.build_model("bn-terminal", Rng(0), in_shape=(5,), n_classes=2)
    n = 32
    x = Rng(1).normal((n, 5))
    # the loss is exactly quadratic in gamma/beta, so a large FD step has
    # zero truncation error and suppresses the roundoff a tiny step hits
    h = 0.25
    lossfn = oracle.model_lossfn(model, x)

    values = model.values()
    h1 = x @ values["fc1.weight"] + values["fc1.bias"]
    mu = h1.mean(axis=0)
    var = h1.var(axis=0)
    xhat = (h1 - mu) / np.sqrt(var + nn.EPS_BN)

    worst_off, worst_closed = 0.0, 0.0
    for name, closed in (("bn1.gamma", np.sum(xhat ** 2, axis=0)),
                         ("bn1.beta", np.full(6, float(n)))):
        block = oracle.fd_hessian_block_1d(lossfn, values, name, h)
        diag = np.diag(block)
        off = np.max(np.abs(block - np.diag(diag)))
        bound = 1e-8 * (1.0 + np.max(np.abs(diag)))
        worst_off = max(worst_off, off / bound)
        extracted = oracle.tape_hdiag(model, x, name)
        worst_closed = max(worst_closed, oracle.max_rel_err(extracted, closed))
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1.0 and worst_closed <= 1e-6 and elapsed < 30
    _report(3, ok, f"terminal BN: off-diag at {worst_off:.2e} of the 1e-8 bound, "
                   f"closed form rel err {worst_closed:.2e} <= 1e-6  ({elapsed:.1f}s < 30s)")


def test_criterion_04_newton_step_closed_form_grid():
    t0 = time.perf_counter()
    cfg = optim.SgdPhConfig(eta=0.1)
    residual = 0.0
    for a in (0.0, 0.5, 4.0):
        for g0 in (-1.0, 0.0, 2.0):
            res = oracle.newton_step_check(np.array([a]), np.array([g0]), cfg)
            residual = max(residual, res.residual)
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-10 and elapsed < 1
    _report(4, ok, f"3x3 (a, gamma) grid incl a=0 and g=0: max residual "
                   f"{residual:.2e} <= 1e-10  ({elapsed:.2f}s < 1s)")


def test_criterion_05_degeneration_to_sgdm_over_100_steps():
    t0 = time.perf_counter()
    ds = gen_blobs(200, seed=3)
    cfg = optim.SgdPhConfig(tau=0.05, eta=0.01)

    def trajectory(use_compound: bool):
        model = nets.mlp_plain(Rng(7), in_shape=(2,), n_classes=4)
        assert all(p.kind == ad.DENSE for p in model.parameters())
        state = optim.OptState(model.parameters())
        snaps = []
        for step in range(100):
            lo = (step * 20) % 160
            xb = ds.x_train[lo : lo + 20]
            yb = ds.y_train[lo : lo + 20]
            grads = oracle.tape_gradients(model, xb, "ce", yb)
            if use_compound:
                optim.step(model.parameters(), grads, {}, cfg, state)
            else:
                optim.sgdm_step(model.parameters(), grads, cfg, state)
            snaps.append(np.concatenate([p.value.ravel() for p in model.parameters()]))
        return snaps

    a = trajectory(True)
    b = trajectory(False)
    diff = max(float(np.max(np.abs(sa - sb))) for sa, sb in zip(a, b))
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-12 and elapsed < 10
    _report(5, ok, f"dense-only MLP, 100 steps: max per-weight trajectory diff "
                   f"{diff:.2e} <= 1e-12  ({elapsed:.1f}s < 10s)")


def test_criterion_06_doubling_curvature_halves_direction():
    t0 = time.perf_counter()
    cfg = optim.SgdPhConfig(eps=0.0)
    rng = Rng(5)
    g = rng.normal((16,))
    h = rng.normal((16,)) + 4.0
    p1 = nn.Parameter("g", np.zeros(16), ad.CHANNELWISE_1D)
    p2 = nn.Parameter("g", np.zeros(16), ad.CHANNELWISE_1D)
    _, _, d1 = optim.direction(optim.OptState([p1])["g"], g, h, cfg)
    _, _, d2 = optim.direction(optim.OptState([p2])["g"], g, 2.0 * h, cfg)
    err = float(np.max(np.abs(d2 - 0.5 * d1) / np.abs(d1)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and elapsed < 1
    _report(6, ok, f"eps=0 fresh state: doubled curvature halves direction, "
                   f"entrywise rel err {err:.2e} <= 1e-12  ({elapsed:.2f}s < 1s)")


def test_criterion_07_weight_norm_reproduces_plain_convolution():
    t0 = time.perf_counter()
    rng = Rng(9)
    conv = nn.Conv2d("c", 3, 4, 3, rng)
    w = conv.weight.value
    wn = nn.WNConv("c", 3, 4, 3, Rng(10))
    wn.v.value = w.copy()
    wn.gamma.value = np.sqrt(np.sum(w * w, axis=(1, 2, 3)))

    x = Rng(11).normal((2, 3, 8, 8))
    y_plain = nn.Model("a", [conv]).forward_np(x, training=True)
    y_wn = nn.Model("b", [wn]).forward_np(x, training=True)
    out_err = oracle.max_rel_err(y_wn, y_plain)

    w_eff = nets.wn_kernel(wn.v.value, wn.gamma.value)
    norms = np.sqrt(np.sum(w_eff * w_eff, axis=(1, 2, 3)))
    ulps = float(np.max(np.abs(norms - np.abs(wn.gamma.value)) /
                        np.spacing(np.abs(wn.gamma.value))))
    elapsed = time.perf_counter() - t0
    ok = out_err <= 1e-6 and ulps <= 4 and elapsed < 5
    _report(7, ok, f"WN with gamma=|V_i|, V=W: output rel err {out_err:.2e} <= 1e-6, "
                   f"norm-vs-gamma {ulps:.1f} ulps <= 4  ({elapsed:.1f}s < 5s)")


def test_criterion_08_training_smoke_blobs(crit8_sgdph, tmp_path):
    cfg_m = _pinned("blobs-mlp-bn-sgdm", tmp_path)
    t0 = time.perf_counter()
    result_m = tr.train(cfg_m)
    _, acc_m = tr.evaluate(result_m.model, result_m.dataset.x_train,
                           result_m.dataset.y_train, cfg_m.batch_size, np.float32)
    elapsed = crit8_sgdph["elapsed"] + (time.perf_counter() - t0)
    acc_p = crit8_sgdph["train_acc"]
    ok = acc_p >= 0.95 and acc_m >= 0.95 and elapsed < 60
    _report(8, ok, f"blobs 200 epochs: train acc sgdph {acc_p:.4f} / sgdm {acc_m:.4f} "
                   f">= 0.95  ({elapsed:.1f}s < 60s)")


def _mh_min(result: tr.TrainResult) -> float:
    """The smallest Hessian momentum entry logged over a sgdph run."""
    return min(s["min"] for r in result.records if r["split"] == "train"
               for s in r["hessian"])


def test_criterion_09_idx_smoke_with_positive_hessian_momenta(digits_fixture, tmp_path):
    t0 = time.perf_counter()
    result_p = tr.train(_pinned("digits-cnn-bn-sgdph", tmp_path, digits_fixture))
    result_m = tr.train(_pinned("digits-cnn-bn-sgdm", tmp_path, digits_fixture))
    acc_p = result_p.final_test_accuracy
    acc_m = result_m.final_test_accuracy
    mh_min = _mh_min(result_p)
    elapsed = time.perf_counter() - t0
    ok = acc_p >= 0.85 and acc_m >= 0.85 and mh_min > 0 and elapsed < 600
    _report(9, ok, f"IDX 1000-example cnn-bn 10 epochs: test acc sgdph {acc_p:.4f} / "
                   f"sgdm {acc_m:.4f} >= 0.85, m_h min {mh_min:.1e} > 0  "
                   f"({elapsed:.0f}s < 600s)")


def test_cnn_wn_idx_smoke_with_positive_hessian_momenta(digits_fixture, tmp_path):
    # criterion 9's bounds on its weight-norm twin; unnumbered, so the gate
    # keeps its ten criteria
    t0 = time.perf_counter()
    result = tr.train(_pinned("digits-cnn-wn-sgdph", tmp_path, digits_fixture))
    acc = result.final_test_accuracy
    mh_min = _mh_min(result)
    elapsed = time.perf_counter() - t0
    print(f"cnn-wn twin of criterion 9: test acc sgdph {acc:.4f} >= 0.85, "
          f"m_h min {mh_min:.1e} > 0  ({elapsed:.0f}s)")
    assert acc >= 0.85, f"cnn-wn test accuracy {acc:.4f} < 0.85"
    assert mh_min > 0, f"cnn-wn m_h min {mh_min:.1e} <= 0"


def test_criterion_10_byte_identical_metrics_on_repeat(crit8_sgdph, tmp_path):
    cfg = _pinned("blobs-mlp-bn-sgdph", tmp_path)
    tr.train(cfg)
    with open(cfg.out_metrics, "rb") as f:
        repeat_bytes = f.read()
    first = crit8_sgdph["metrics_bytes"]
    ok = repeat_bytes == first
    _report(10, ok, f"repeat of the sgdph blobs run: metrics files "
                    f"{'identical' if ok else 'DIFFER'} "
                    f"({len(first)} bytes vs {len(repeat_bytes)} bytes)")
