"""Brute-force verification of every differential quantity.

Finite differences here are the ground truth the tape is judged against:
losses are evaluated through the plain-array forward path only, so the
adjoint machinery under test contributes nothing to the reference
numbers. All oracle arithmetic runs in f64. Model losses hold every ReLU
mask at the base point, so a step never crosses a kink the tape's
derivative does not see.

Error metric used throughout: max_i |a_i - b_i| / (1 + |b_i|), an
entrywise relative error with an additive floor so near-zero reference
entries do not blow up the ratio.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from . import optim
from .tensor import Rng


class NonFiniteLossError(ValueError):
    pass


# step of the central differences every oracle here takes
FD_STEP = 1e-4


def _check_step(h: float) -> None:
    if not h > 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b)))) if a.size else 0.0


def _eval(lossfn, values: dict[str, np.ndarray], name: str, shifts: dict[int, float]) -> float:
    w = values[name].copy()
    flat = w.ravel()
    for idx, s in shifts.items():
        flat[idx] += s
    out = float(lossfn({**values, name: w}))
    if not np.isfinite(out):
        raise NonFiniteLossError(f"loss not finite at perturbation of {name!r}: {out}")
    return out


def fd_gradient(lossfn, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Central differences (L(w + h e_i) - L(w - h e_i)) / 2h at h = FD_STEP
    per coordinate of every parameter. lossfn maps a name->array dict to a scalar."""
    h = FD_STEP
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    out = {}
    for name, w in base.items():
        g = np.zeros(w.size, dtype=np.float64)
        for i in range(w.size):
            lp = _eval(lossfn, base, name, {i: +h})
            lm = _eval(lossfn, base, name, {i: -h})
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g.reshape(w.shape)
    return out


def fd_hessian_block_1d(lossfn, params: dict[str, np.ndarray], name: str,
                        h: float = FD_STEP) -> np.ndarray:
    """The full C x C second-difference Hessian block of one 1-D parameter,
    built as central differences of central-difference gradients,
    symmetrized as (H + H^T)/2. Entry (i, j) reads the four points
    L(w ± h e_i ± h e_j); entries (i, j) and (j, i) share them, and a
    diagonal entry reads its unshifted point twice, so each distinct point
    is evaluated once: 2C^2 + C loss evaluations in all."""
    _check_step(h)
    w = np.asarray(params[name], dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"{name!r} is not 1-D (shape {w.shape})")
    c = w.size
    if c > 64:
        raise ValueError(f"block Hessian limited to C <= 64, got C = {c}")
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    # shifts on distinct entries commute, so a point's key ignores their order
    seen: dict[tuple, float] = {}

    def point(shifts: dict[int, float]) -> float:
        key = tuple(sorted(shifts.items()))
        if key not in seen:
            seen[key] = _eval(lossfn, base, name, shifts)
        return seen[key]

    def grad_entry(j: int, i: int, si: float) -> float:
        sp = {i: si}
        sp[j] = sp.get(j, 0.0) + h
        sm = {i: si}
        sm[j] = sm.get(j, 0.0) - h
        return (point(sp) - point(sm)) / (2.0 * h)

    out = np.zeros((c, c), dtype=np.float64)
    for i in range(c):
        for j in range(c):
            gp = grad_entry(j, i, +h)
            gm = grad_entry(j, i, -h)
            out[i, j] = (gp - gm) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise NonFiniteLossError(f"non-finite entries in FD Hessian block of {name!r}")
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# dual-path helpers over models


@contextmanager
def preserve_bn_stats(model: nn.Model):
    """Training-mode tape forwards update running statistics; oracle code
    wraps them so repeated evaluations leave the model untouched."""
    saved = [
        (layer, layer.running_mean.copy(), layer.running_var.copy())
        for layer in model.layers
        if isinstance(layer, nn.BatchNorm)
    ]
    try:
        yield
    finally:
        for layer, mean, var in saved:
            layer.running_mean = mean
            layer.running_var = var


def model_lossfn(model: nn.Model, x: np.ndarray, loss: str = "sos", labels=None):
    """Array-path loss closure over parameter values, for FD oracles. Each
    ReLU is held at its mask z > 0 at the model's current values, so an FD
    step that carries a pre-activation across 0 stays on the smooth piece
    the tape differentiates there (relu'' = 0).

    The closure copies the model's values and caches, at them, the input of
    every layer that has parameters. A call starts at the first layer whose
    parameters differ from those copies in dtype, shape or bytes, from that
    layer's cached input, so an FD step on a late parameter reruns only the
    layers from its own on. Later changes to the model do not reach the
    closure."""
    base = {p.name: np.array(p.value, dtype=np.float64) for p in model.parameters()}
    # per layer: its cached input, its parameters' base bytes, its ReLU mask;
    # a call never starts at a layer without parameters, so none is cached
    inputs, snaps, masks = [], [], []
    z = np.array(x, dtype=np.float64)
    for layer in model.layers:
        inputs.append(z if layer.params() else None)
        snaps.append([(p.name, base[p.name].shape, base[p.name].tobytes())
                      for p in layer.params()])
        masks.append(z > 0 if isinstance(layer, nn.ReLU) else None)
        # z * mask, as a call computes it: np.maximum gives +0 where this
        # gives -0, and a cached input must hold what a call would compute
        z = layer.forward_np(z, base, training=True) if masks[-1] is None else z * masks[-1]
    inputs.append(z)  # the output, where a call that changes nothing starts

    def lossfn(values: dict[str, np.ndarray]) -> float:
        start = next((k for k, snap in enumerate(snaps)
                      if not all(_same_bits(values[n], shape, data) for n, shape, data in snap)),
                     len(snaps))
        z = inputs[start]
        for layer, mask in zip(model.layers[start:], masks[start:]):
            z = layer.forward_np(z, values, training=True) if mask is None else z * mask
        return nn._loss_np(loss, z, labels)

    return lossfn


def _same_bits(v, shape: tuple, data: bytes) -> bool:
    """Whether v is an f64 array of this shape holding exactly these bytes."""
    return (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == shape
            and v.tobytes() == data)


def tape_gradients(model: nn.Model, x: np.ndarray, loss: str = "sos",
                   labels=None) -> dict[str, np.ndarray]:
    """Tape gradients by parameter name, from one nn.taped_batch forward and
    backward that leaves the running statistics untouched."""
    with preserve_bn_stats(model), nn.taped_batch(model, x, labels, loss) as (_, _, grads, _):
        return grads


def tape_hdiag(model: nn.Model, x: np.ndarray, name: str | tuple[str, ...], loss: str = "sos",
               labels=None) -> np.ndarray | dict[str, np.ndarray]:
    """Channelwise curvature via the double backward, leaving the running
    statistics untouched: of the 1-D parameter `name`, or, for a tuple of
    names, of each of them by name, from one nn.taped_batch that retains
    them all. Each vector has the bits that a tape retaining its parameter
    alone gives."""
    names = (name,) if isinstance(name, str) else name
    with preserve_bn_stats(model), nn.taped_batch(model, x, labels, loss, names) as (
            _, _, _, hdiags):
        return hdiags[name] if isinstance(name, str) else hdiags


def gradcheck(model: nn.Model, x: np.ndarray, loss: str = "sos",
              labels=None) -> dict[str, float]:
    """Entrywise relative error between tape gradients and central
    differences (step FD_STEP), per parameter, in f64 training mode."""
    grads = tape_gradients(model, x, loss, labels)
    fd = fd_gradient(model_lossfn(model, x, loss, labels), model.values())
    return {name: max_rel_err(grads[name], fd[name]) for name in fd}


# ---------------------------------------------------------------------------
# per-layer gradient-check cases


def build_layer_case(case: str, seed: int):
    """A one-layer (or minimal composite) model plus a matching input batch
    for gradient checking; every registered layer type appears."""
    rng = Rng(seed)
    xrng = Rng(seed ^ 0x9E3779B9)
    if case == "linear":
        model = nn.Model(case, [nn.Linear("fc", 5, 4, rng)])
        return model, xrng.normal((8, 5)), "sos", None
    if case == "conv2d":
        model = nn.Model(case, [nn.Conv2d("conv", 2, 3, 3, rng)])
        return model, xrng.normal((2, 2, 6, 6)), "sos", None
    if case == "wnconv":
        model = nn.Model(case, [nn.WNConv("conv", 2, 3, 3, rng)])
        return model, xrng.normal((2, 2, 6, 6)), "sos", None
    if case == "two-conv":
        # conv2's input adjoint, conv2d of its flipped kernel, carries the
        # loss back to conv1
        model = nn.Model(case, [
            nn.Conv2d("conv1", 2, 3, 3, rng), nn.ReLU(), nn.Conv2d("conv2", 3, 2, 3, rng),
        ])
        return model, xrng.normal((2, 2, 6, 6)), "sos", None
    if case == "batchnorm2d":
        model = nn.Model(case, [nn.BatchNorm("bn", 5)])
        return model, xrng.normal((12, 5)), "sos", None
    if case == "batchnorm4d":
        model = nn.Model(case, [nn.BatchNorm("bn", 3)])
        return model, xrng.normal((4, 3, 5, 5)), "sos", None
    if case == "relu":
        model = nn.Model(case, [nn.Linear("fc", 5, 4, rng), nn.ReLU()])
        return model, xrng.normal((8, 5)), "sos", None
    if case == "flatten-head":
        model = nn.Model(case, [
            nn.Conv2d("conv", 1, 2, 3, rng), nn.ReLU(), nn.Flatten(),
            nn.Linear("fc", 2 * 5 * 5, 3, rng),
        ])
        labels = Rng(seed ^ 0xABCDEF).integers(0, 3, (4,))
        return model, xrng.normal((4, 1, 5, 5)), "ce", labels
    raise ValueError(f"unknown layer case {case!r}")


LAYER_CASES = ("linear", "conv2d", "wnconv", "two-conv", "batchnorm2d", "batchnorm4d",
               "relu", "flatten-head")


def gradcheck_layers(seeds) -> dict[str, float]:
    """Max entrywise relative FD error per (case, parameter) across seeds;
    a NaN error on any seed makes the entry NaN."""
    worst: dict[str, float] = {}
    for case in LAYER_CASES:
        for seed in seeds:
            model, x, loss, labels = build_layer_case(case, seed)
            for pname, err in gradcheck(model, x, loss, labels).items():
                key = f"{case}:{pname}"
                worst[key] = float(np.maximum(worst.get(key, 0.0), err))
    return worst


# ---------------------------------------------------------------------------
# diagonality audit


@dataclass
class DiagonalityReport:
    parameter: str
    c: int
    max_abs_offdiag: float
    max_abs_diag: float
    offdiag_mass_ratio: float
    extracted_vs_rowsum_relerr: float


def diagonality_report(model: nn.Model, x: np.ndarray, name: str,
                       h: float = FD_STEP, loss: str = "sos",
                       labels=None, extracted=None) -> DiagonalityReport:
    """Quantifies how diagonal a 1-D parameter's true Hessian block is, and
    how closely the tape extraction matches the block's row sums. The
    extraction always equals the row sums; it equals the diagonal only when
    the off-diagonal mass vanishes (terminal-layer configurations).
    `extracted` is the tape's curvature of `name` where the caller has it
    already; tape_hdiag computes it otherwise."""
    lossfn = model_lossfn(model, x, loss, labels)
    block = fd_hessian_block_1d(lossfn, model.values(), name, h)
    if extracted is None:
        extracted = tape_hdiag(model, x, name, loss, labels)
    diag = np.diag(block)
    off = block - np.diag(diag)
    rowsums = block.sum(axis=1)
    return DiagonalityReport(
        parameter=name,
        c=block.shape[0],
        max_abs_offdiag=float(np.max(np.abs(off))),
        max_abs_diag=float(np.max(np.abs(diag))),
        offdiag_mass_ratio=float(np.sum(np.abs(off)) / (np.sum(np.abs(diag)) + 1e-30)),
        extracted_vs_rowsum_relerr=max_rel_err(extracted, rowsums),
    )


# ---------------------------------------------------------------------------
# closed-form single-step check


@dataclass
class NewtonCheckResult:
    passed: bool
    residual: float
    applied: np.ndarray
    expected: np.ndarray


def newton_step_check(a, gamma0, opt: optim.SgdPhConfig, b=0.0,
                      tol: float = 1e-10) -> NewtonCheckResult:
    """Runs the real pipeline (tape loss, double backward, optimizer step)
    on the quadratic L = 1/2 sum a g^2 + sum b g and compares the applied
    update against the hand formula

        delta = -tau * (tau_so * (a g + b) / (|a| + eps) + eta g),

    valid on the first step from zero momenta when alpha == beta_m (the
    momentum weights cancel)."""
    if opt.alpha != opt.beta_m:
        raise ValueError("closed form requires alpha == beta_m")
    a = np.asarray(a, dtype=np.float64)
    gamma0 = np.asarray(gamma0, dtype=np.float64)
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), gamma0.shape)

    graph = ad.Graph()
    gvar = graph.variable(gamma0.copy())
    loss = ad.add(
        ad.sum_all(ad.cmul(ad.mul(gvar, gvar), 0.5 * a)),
        ad.sum_all(ad.cmul(gvar, b)),
    )
    grad = ad.backward(loss, retain=[gvar])[gvar.id]
    h = ad.hessian_diag_1d(loss, gvar)
    graph.release()

    param = nn.Parameter("gamma", gamma0.copy(), ad.CHANNELWISE_1D)
    state = optim.OptState([param])
    optim.step([param], {"gamma": grad}, {"gamma": h}, opt, state)
    applied = param.value - gamma0

    g_hand = a * gamma0 + b
    expected = -opt.tau * (opt.tau_so * g_hand / (np.abs(a) + opt.eps) + opt.eta * gamma0)
    residual = float(np.max(np.abs(applied - expected)))
    return NewtonCheckResult(residual <= tol, residual, applied, expected)
