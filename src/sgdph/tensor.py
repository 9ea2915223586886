"""Dense tensor kernels shared by the tape, the layers, and the oracles.

Tensors are plain numpy arrays in NCHW row-major layout, f32 for training
runs and f64 for every oracle comparison. All kernels here are pure: no
input is ever mutated.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32
F64 = np.float64

DTYPES = {"f32": F32, "f64": F64}


class ShapeMismatchError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Rng:
    """Deterministic random source backed by the Philox counter-based
    generator: identical seeds produce identical sample sequences on every
    platform."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniform(self, low, high, size, dtype=F64):
        return self._gen.uniform(low, high, size).astype(dtype)

    def normal(self, size, dtype=F64):
        return self._gen.standard_normal(size).astype(dtype)

    def integers(self, low, high, size):
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def permutation(self, n):
        return self._gen.permutation(n)


def broadcast_shape(s1: tuple, s2: tuple) -> tuple:
    """Broadcast rule: align trailing axes; mismatched extents only legal
    when one of them is 1."""
    out = []
    for a, b in zip(reversed(s1), reversed(s2)):
        if a == b or b == 1:
            out.append(a)
        elif a == 1:
            out.append(b)
        else:
            raise ShapeMismatchError(f"cannot broadcast shapes {s1} and {s2}")
    longer = s1 if len(s1) >= len(s2) else s2
    out.extend(longer[: len(longer) - len(out)][::-1])
    return tuple(reversed(out))


_UNARY = {
    "sqrt": np.sqrt,
    "recip": lambda a: 1.0 / a,
    "relu": lambda a: np.maximum(a, 0),
    "exp": np.exp,
    "log": np.log,
}


def elementwise(op: str, a: np.ndarray) -> np.ndarray:
    """Apply a unary kernel with explicit shape/domain validation."""
    a = np.asarray(a)
    if a.size == 0:
        raise ShapeMismatchError(f"tensor has a zero extent: shape {a.shape}")
    if op not in _UNARY:
        raise ValueError(f"unknown elementwise op '{op}'")
    if op == "sqrt" and np.any(a < 0):
        raise DomainError("sqrt of negative value")
    if op == "log" and np.any(a <= 0):
        raise DomainError("log of non-positive value")
    if op == "recip" and np.any(a == 0):
        raise DomainError("reciprocal of zero")
    return _UNARY[op](a)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(
            f"matmul needs 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    return a @ b


def moments(x: np.ndarray, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and variance over the given axes (divide by the
    element count, no Bessel correction)."""
    x = np.asarray(x)
    axes = tuple(axes)
    count = 1
    for ax in axes:
        if ax >= x.ndim or ax < -x.ndim:
            raise ShapeMismatchError(f"axis {ax} invalid for shape {x.shape}")
        count *= x.shape[ax]
    if count == 0:
        raise ShapeMismatchError("empty reduction in moments")
    mean = np.mean(x, axis=axes)
    d = x - np.mean(x, axis=axes, keepdims=True)
    # corrected two-pass: removing the deviations' residual mean keeps a
    # constant input at exactly zero variance
    var = np.mean(d * d, axis=axes) - np.mean(d, axis=axes) ** 2
    return mean, var


def same_padding(kh: int, kw: int) -> tuple[int, int, int, int]:
    """Asymmetric zero padding that keeps H and W under a stride-1 kernel."""
    top = (kh - 1) // 2
    left = (kw - 1) // 2
    return top, kh - 1 - top, left, kw - 1 - left


def unfold2d(x: np.ndarray, kh: int, kw: int, pads: tuple) -> np.ndarray:
    """im2col: [N,C,H,W] -> [N*OH*OW, C*kh*kw] patch matrix, stride 1.

    Row r = n*OH*OW + oh*OW + ow holds the receptive field of output pixel
    (oh, ow) of sample n, channels varying slowest.
    """
    pt, pb, pl, pr = pads
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    n, c, h, w = x.shape
    if kh > h or kw > w:
        raise ShapeMismatchError(
            f"kernel {kh}x{kw} larger than padded input {h}x{w}"
        )
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # [N,C,OH,OW,kh,kw] -> [N,OH,OW,C,kh,kw] -> rows
    win = win.transpose(0, 2, 3, 1, 4, 5)
    oh, ow = win.shape[1], win.shape[2]
    return win.reshape(n * oh * ow, c * kh * kw)


def fold2d(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, pads: tuple) -> np.ndarray:
    """Adjoint of unfold2d: scatter-add patch rows back onto [N,C,H,W]."""
    n, c, h, w = x_shape
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, w + pl + pr
    oh, ow = hp - kh + 1, wp - kw + 1
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            out[:, :, u : u + oh, v : v + ow] += patches[:, :, :, :, u, v]
    return out[:, :, pt : pt + h, pl : pl + w]


def conv_pads(h: int, w: int, kh: int, kw: int, padding: str) -> tuple:
    if padding == "valid":
        pads = (0, 0, 0, 0)
    elif padding == "same":
        pads = same_padding(kh, kw)
    else:
        raise ValueError(f"unknown padding '{padding}' (expected valid|same)")
    if kh > h + pads[0] + pads[1] or kw > w + pads[2] + pads[3]:
        raise ShapeMismatchError(
            f"kernel {kh}x{kw} larger than padded input {h}x{w} ({padding})"
        )
    return pads


def conv2d(x: np.ndarray, w: np.ndarray, padding: str = "valid") -> np.ndarray:
    """Stride-1 cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw]."""
    x = np.asarray(x)
    w = np.asarray(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatchError(f"conv2d needs 4-D input/kernel, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatchError(
            f"channel mismatch: input {x.shape[1]} vs kernel {w.shape[1]}"
        )
    n, _, h, wd = x.shape
    cout, cin, kh, kw = w.shape
    pads = conv_pads(h, wd, kh, kw, padding)
    oh = h + pads[0] + pads[1] - kh + 1
    ow = wd + pads[2] + pads[3] - kw + 1
    cols = unfold2d(x, kh, kw, pads)
    out = cols @ w.reshape(cout, cin * kh * kw).T
    return out.reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)
