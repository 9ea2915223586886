"""Layers, losses, and the model zoo.

Every layer carries two forward implementations that share nothing but
the tensor kernels: `forward_v` builds tape Variables for training and
curvature extraction, `forward_np` evaluates plain arrays so the
finite-difference oracles never touch the adjoint machinery.

Parameter tagging drives the optimizer split: batch-norm scale/shift and
the weight-norm conv's lengths and biases are "channelwise-1d" and
receive second-order updates; weight matrices stay "dense".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensor import Rng, ShapeMismatchError, conv2d as conv2d_np, moments

NORM_FLOOR = 1e-12
# weight of the new batch statistic in the running-statistics update
_STAT_MOMENTUM = 0.1


class LabelRangeError(ValueError):
    pass


class DegenerateNormError(ValueError):
    pass


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    kind: str  # ad.CHANNELWISE_1D or ad.DENSE

    def __post_init__(self):
        if self.kind == ad.CHANNELWISE_1D and self.value.ndim != 1:
            raise ValueError(f"{self.name}: channelwise-1d parameter must be 1-D")


def _kaiming_uniform(rng: Rng, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape, dtype=dtype)


class Layer:
    def params(self) -> list[Parameter]:
        return []

    def forward_v(self, x: ad.Variable, env: dict[str, ad.Variable]) -> ad.Variable:
        raise NotImplementedError

    def forward_np(self, x: np.ndarray, values: dict[str, np.ndarray], training: bool) -> np.ndarray:
        raise NotImplementedError


class Linear(Layer):
    def __init__(self, name: str, d_in: int, d_out: int, rng: Rng, dtype=np.float64):
        self.name = name
        self.weight = Parameter(
            f"{name}.weight", _kaiming_uniform(rng, (d_in, d_out), d_in, dtype), ad.DENSE
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(d_out, dtype=dtype), ad.DENSE)

    def params(self):
        return [self.weight, self.bias]

    def forward_v(self, x, env):
        y = ad.matmul(x, env[self.weight.name])
        b = ad.reshape(env[self.bias.name], (1, y.shape[1]))
        return ad.add(y, ad.broadcast_to(b, y.shape))

    def forward_np(self, x, values, training):
        return x @ values[self.weight.name] + values[self.bias.name]


def _odd_kernel(name: str, k: int) -> None:
    if k % 2 == 0:
        raise ShapeMismatchError(f"{name}: same padding needs an odd kernel size, got {k}")


class Conv2d(Layer):
    """Same-padded stride-1 convolution without a bias: every Conv2d feeds
    a BatchNorm, whose mean subtraction would cancel one."""

    def __init__(self, name, c_in, c_out, k, rng, dtype=np.float64):
        _odd_kernel(name, k)
        self.name = name
        fan_in = c_in * k * k
        self.weight = Parameter(
            f"{name}.weight", _kaiming_uniform(rng, (c_out, c_in, k, k), fan_in, dtype), ad.DENSE
        )

    def params(self):
        return [self.weight]

    def forward_v(self, x, env):
        return ad.conv2d(x, env[self.weight.name])

    def forward_np(self, x, values, training):
        return conv2d_np(x, values[self.weight.name])


class WNConv(Layer):
    """Convolution in the weight-norm parameterization W_i = gamma_i V_i/|V_i|:
    per-channel length gamma decouples from direction V, and gamma is a 1-D
    parameter eligible for second-order updates."""

    def __init__(self, name, c_in, c_out, k, rng, dtype=np.float64):
        _odd_kernel(name, k)
        self.name = name
        fan_in = c_in * k * k
        v0 = _kaiming_uniform(rng, (c_out, c_in, k, k), fan_in, dtype)
        self.v = Parameter(f"{name}.v", v0, ad.DENSE)
        # gamma starts at |V_i| so the initial effective kernel equals v0
        gamma0 = np.sqrt(np.sum(v0.astype(np.float64) ** 2, axis=(1, 2, 3))).astype(dtype)
        self.gamma = Parameter(f"{name}.gamma", gamma0, ad.CHANNELWISE_1D)
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype), ad.CHANNELWISE_1D)
        _direction_norms(v0, name)

    def params(self):
        return [self.v, self.gamma, self.bias]

    def reparam_v(self, env) -> ad.Variable:
        v, gamma = env[self.v.name], env[self.gamma.name]
        _direction_norms(v.value, self.name)
        s = ad.sum_axes(ad.mul(v, v), (1, 2, 3))
        scale = ad.mul(gamma, ad.recip(ad.sqrt(s)))
        cout = v.shape[0]
        return ad.mul(ad.broadcast_to(ad.reshape(scale, (cout, 1, 1, 1)), v.shape), v)

    def forward_v(self, x, env):
        y = ad.conv2d(x, self.reparam_v(env))
        b = ad.reshape(env[self.bias.name], (1, y.shape[1], 1, 1))
        return ad.add(y, ad.broadcast_to(b, y.shape))

    def forward_np(self, x, values, training):
        w = wn_reparam_values(values[self.v.name], values[self.gamma.name], self.name)
        y = conv2d_np(x, w)
        return y + values[self.bias.name].reshape(1, -1, 1, 1)


class BatchNorm(Layer):
    """Per-channel normalize-scale-shift with population batch statistics
    while training and tracked running statistics in eval mode (array path
    only: the tape always trains). Accepts [N,C] or [N,C,H,W] activations."""

    def __init__(self, name, c, dtype=np.float64, eps_bn=1e-5):
        self.name = name
        self.c = c
        self.eps_bn = eps_bn
        self.gamma = Parameter(f"{name}.gamma", np.ones(c, dtype=dtype), ad.CHANNELWISE_1D)
        self.beta = Parameter(f"{name}.beta", np.zeros(c, dtype=dtype), ad.CHANNELWISE_1D)
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)

    def params(self):
        return [self.gamma, self.beta]

    @staticmethod
    def _axes_and_keep(x_ndim: int, c: int):
        if x_ndim == 2:
            return (0,), (1, c)
        if x_ndim == 4:
            return (0, 2, 3), (1, c, 1, 1)
        raise ShapeMismatchError(f"batch norm expects 2-D or 4-D activations, got ndim {x_ndim}")

    def _check_channels(self, x_shape):
        if x_shape[1] != self.c:
            raise ShapeMismatchError(
                f"{self.name}: expected {self.c} channels, got {x_shape[1]} (input {x_shape})"
            )

    def forward_v(self, x, env):
        self._check_channels(x.shape)
        axes, keep = self._axes_and_keep(x.value.ndim, self.c)
        mu = ad.mean_axes(x, axes)
        # x + (-mu), bitwise x - mu: the backward negates the C-vector, where
        # sub would negate a batch-sized adjoint
        d = ad.add(x, ad.broadcast_to(ad.reshape(ad.neg(mu), keep), x.shape))
        var = ad.cmul(ad.chdot(d, d), 1.0 / (x.value.size // self.c))
        # running stats track detached batch statistics
        self.running_mean = (1 - _STAT_MOMENTUM) * self.running_mean + _STAT_MOMENTUM * mu.value
        self.running_var = (1 - _STAT_MOMENTUM) * self.running_var + _STAT_MOMENTUM * var.value
        inv = ad.recip(ad.sqrt(ad.cadd(var, self.eps_bn)))
        # gamma/sigma folded into one scale per channel: the tape holds no
        # normalized activation
        y = ad.chscale(d, ad.mul(env[self.gamma.name], inv))
        return ad.add(y, ad.broadcast_to(ad.reshape(env[self.beta.name], keep), x.shape))

    def forward_np(self, x, values, training):
        self._check_channels(x.shape)
        axes, keep = self._axes_and_keep(x.ndim, self.c)
        if training:
            mu, var = moments(x, axes)
        else:
            mu, var = self.running_mean, self.running_var
        xhat = (x - mu.reshape(keep)) / np.sqrt(var.reshape(keep) + self.eps_bn)
        return values[self.gamma.name].reshape(keep) * xhat + values[self.beta.name].reshape(keep)


class ReLU(Layer):
    def forward_v(self, x, env):
        return ad.relu(x)

    def forward_np(self, x, values, training):
        return np.maximum(x, 0)


class Flatten(Layer):
    def forward_v(self, x, env):
        n = x.shape[0]
        return ad.reshape(x, (n, int(np.prod(x.shape[1:]))))

    def forward_np(self, x, values, training):
        return x.reshape(x.shape[0], -1)


def _direction_norms(v: np.ndarray, name: str) -> np.ndarray:
    """Per-output-channel norms |V_i|; a norm below NORM_FLOOR is rejected."""
    norms = np.sqrt(np.sum(v * v, axis=tuple(range(1, v.ndim))))
    if np.min(norms) < NORM_FLOOR:
        raise DegenerateNormError(
            f"{name}: direction norm {np.min(norms):.3e} below floor {NORM_FLOOR:.0e}"
        )
    return norms


def wn_reparam_values(v: np.ndarray, gamma: np.ndarray, name: str = "wn") -> np.ndarray:
    """Effective kernel W_i = gamma_i V_i/|V_i|."""
    norms = _direction_norms(v, name)
    shape = (v.shape[0],) + (1,) * (v.ndim - 1)
    return (gamma / norms).reshape(shape) * v


# ---------------------------------------------------------------------------
# losses (dual path like the layers)


def _check_labels(labels: np.ndarray, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelRangeError(f"labels must lie in [0, {k}), got range "
                              f"[{labels.min()}, {labels.max()}]")
    return labels


def softmax_cross_entropy(logits: ad.Variable, labels: np.ndarray) -> ad.Variable:
    n, k = logits.shape
    labels = _check_labels(labels, k)
    # subtracting the detached row max is exact for both value and derivative
    m = logits.value.max(axis=1, keepdims=True)
    z = ad.cadd(logits, -m)
    lse = ad.log(ad.sum_axes(ad.exp(z), (1,)))
    onehot = np.zeros((n, k), dtype=logits.dtype)
    onehot[np.arange(n), labels] = 1.0
    picked = ad.sum_axes(ad.cmul(z, onehot), (1,))
    return ad.cmul(ad.sum_all(ad.sub(lse, picked)), 1.0 / n)


def softmax_cross_entropy_np(logits: np.ndarray, labels: np.ndarray) -> float:
    n, k = logits.shape
    labels = _check_labels(labels, k)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    return float(np.mean(lse - z[np.arange(n), labels]))


def sum_of_squares(y: ad.Variable) -> ad.Variable:
    return ad.cmul(ad.sum_all(ad.mul(y, y)), 0.5)


def sum_of_squares_np(y: np.ndarray) -> float:
    return float(0.5 * np.sum(y * y))


def _loss_v(kind: str, y: ad.Variable, labels) -> ad.Variable:
    if kind == "sos":
        return sum_of_squares(y)
    if kind == "ce":
        return softmax_cross_entropy(y, labels)
    raise ValueError(f"unknown loss kind {kind!r}")


def _loss_np(kind: str, y: np.ndarray, labels) -> float:
    if kind == "sos":
        return sum_of_squares_np(y)
    if kind == "ce":
        return softmax_cross_entropy_np(y, labels)
    raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# model container and zoo


class Model:
    def __init__(self, name: str, layers: list[Layer]):
        self.name = name
        self.layers = layers
        seen = set()
        for p in self.parameters():
            if p.name in seen:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            seen.add(p.name)

    def parameters(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def values(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.parameters()}

    def set_values(self, values: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            v = np.asarray(values[p.name], dtype=p.value.dtype)
            if v.shape != p.value.shape:
                raise ShapeMismatchError(
                    f"{p.name}: stored shape {v.shape} != model shape {p.value.shape}"
                )
            p.value = v.copy()

    def bind(self, graph: ad.Graph) -> dict[str, ad.Variable]:
        """One leaf per parameter, by name; the tape sees no parameter kind."""
        return {p.name: graph.variable(p.value) for p in self.parameters()}

    def forward_v(self, x: ad.Variable, env: dict[str, ad.Variable]) -> ad.Variable:
        for layer in self.layers:
            x = layer.forward_v(x, env)
        return x

    def forward_np(self, x: np.ndarray, values: dict[str, np.ndarray] | None = None,
                   training: bool = False) -> np.ndarray:
        if values is None:
            values = {p.name: p.value for p in self.parameters()}
        for layer in self.layers:
            x = layer.forward_np(x, values, training)
        return x


@contextmanager
def taped_batch(model: Model, x: np.ndarray, labels, loss: str, curvature=()):
    """One batch on a fresh tape, the only place a model tape is built.
    Yields (loss value, logits array, gradients by parameter name, and the
    curvature H_pp @ 1 of each parameter named in `curvature`, by name),
    for x cast to the parameters' dtype. The tape is released when the
    block exits, also on an exception, so none waits for the gc."""
    ad.keep_freed_memory()
    graph = ad.Graph()
    try:
        env = model.bind(graph)
        xv = graph.constant(np.asarray(x, dtype=model.parameters()[0].value.dtype))
        y = model.forward_v(xv, env)
        loss_var = _loss_v(loss, y, labels)
        logits = y.value  # before the backward frees it
        grads_by_id = ad.backward(loss_var, retain=[env[n] for n in curvature])
        grads = {name: grads_by_id[v.id] for name, v in env.items()}
        hdiags = {name: ad.hessian_diag_1d(loss_var, env[name]) for name in curvature}
        yield float(loss_var.value), logits, grads, hdiags
    finally:
        graph.release()


def build_model(name: str, rng: Rng, *, in_shape, n_classes: int,
                dtype=np.float64) -> Model:
    """Model zoo. Training architectures: "mlp-bn", "cnn-bn", "cnn-wn";
    "bn-terminal", whose BatchNorm block is diagonal in closed form, exists
    for oracle runs."""
    if name == "mlp-bn":
        d = int(np.prod(in_shape))
        h = 32
        layers = [
            Linear("fc1", d, h, rng, dtype),
            BatchNorm("bn1", h, dtype),
            ReLU(),
            Linear("fc2", h, n_classes, rng, dtype),
        ]
    elif name == "bn-terminal":
        d = int(np.prod(in_shape))
        layers = [
            Linear("fc1", d, 6, rng, dtype),
            BatchNorm("bn1", 6, dtype),
        ]
    elif name == "cnn-bn":
        c, _, _ = in_shape
        layers = [
            Conv2d("conv1", c, 8, 3, rng, dtype),
            BatchNorm("bn1", 8, dtype),
            ReLU(),
            Conv2d("conv2", 8, 16, 3, rng, dtype),
            BatchNorm("bn2", 16, dtype),
            ReLU(),
            Flatten(),
            Linear("fc", 16 * in_shape[1] * in_shape[2], n_classes, rng, dtype),
        ]
    elif name == "cnn-wn":
        c, _, _ = in_shape
        layers = [
            WNConv("conv1", c, 8, 3, rng, dtype),
            ReLU(),
            WNConv("conv2", 8, 16, 3, rng, dtype),
            ReLU(),
            Flatten(),
            Linear("fc", 16 * in_shape[1] * in_shape[2], n_classes, rng, dtype),
        ]
    else:
        raise ValueError(f"unknown model {name!r}")
    return Model(name, layers)
