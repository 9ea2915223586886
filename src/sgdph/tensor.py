"""Dense tensor kernels shared by the tape, the layers, and the oracles.

Tensors are plain numpy arrays in NCHW row-major layout, f32 for training
runs and f64 for every oracle comparison. Every convolution is same-padded
with stride 1 and takes an odd kernel only, so its padding is symmetric.
A convolution is lowered per sample: unfold2d turns [N,C,H,W] into patch
matrices [N, C*kh*kw, H*W] and one GEMM per sample with the [Cout, C*kh*kw]
kernel gives [N, Cout, H*W], which is already NCHW, so no activation is a
strided view. Its kernel adjoint conv_w is lowered the same way. Its input
adjoint needs no kernel of its own: it is conv2d of the output adjoint
with the kernel turned half a turn and its channel axes swapped
(autodiff.flip), which holds because the padding is symmetric. Both
kernels run over the batch in chunks of as many samples as fit a
_PATCH_BYTES patch matrix, so the patch matrix is a per-chunk transient,
never the whole batch's (22.6 MB for conv2's input of a cnn-bn f32 step at
batch 100), and is never returned. A conv2d with fewer output than input
channels, as an input adjoint is, also takes at most n*Cout/Cin samples a
chunk, so its patch matrix never outgrows the transposed convolution's.
Every sample's GEMM is the one the unchunked call makes, so chunking keeps
every bit. The channel-wise kernels chshift, chscale and chdot apply a
C-vector along axis 1 of an [N,C] or [N,C,H,W] array, or reduce one into
it; one check serves the vector of the first two. Every kernel here is
pure: none writes into an argument.
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
    """Product of two matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(f"matmul needs two matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul inner extents differ: {a.shape} x {b.shape}")
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


# per-channel inner products over every axis but the channel axis 1
_CHDOT = {2: "nc,nc->c", 4: "nchw,nchw->c"}


def _check_channel_layout(op: str, x_shape: tuple) -> None:
    if len(x_shape) not in _CHDOT:
        raise ShapeMismatchError(f"{op} needs [N,C] or [N,C,H,W], got {x_shape}")


def _along_channels(op: str, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The C-vector v as a [1,C] or [1,C,1,1] array that numpy broadcasts
    along axis 1 of an [N,C] or [N,C,H,W] x."""
    _check_channel_layout(op, x.shape)
    if v.shape != x.shape[1:2]:
        raise ShapeMismatchError(f"{op} needs a vector of shape ({x.shape[1]},) for "
                                 f"{x.shape}, got {v.shape}")
    return v.reshape((1, -1) + (1,) * (x.ndim - 2))


def chscale(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x scaled per channel, x[:, c] * s[c], for an [N,C] or [N,C,H,W] x
    and a C-vector s."""
    x = np.asarray(x)
    return x * _along_channels("chscale", x, np.asarray(s))


def chshift(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x shifted per channel, x[:, c] + b[c], for an [N,C] or [N,C,H,W] x
    and a C-vector b."""
    x = np.asarray(x)
    return x + _along_channels("chshift", x, np.asarray(b))


def chdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-channel inner product: the C-vector of sums of x*y over every
    axis but 1, for two [N,C] or [N,C,H,W] arrays of one shape. One einsum
    reduction, which builds no product array."""
    x = np.asarray(x)
    y = np.asarray(y)
    _check_channel_layout("chdot", x.shape)
    if x.shape != y.shape:
        raise ShapeMismatchError(f"chdot needs equal shapes, got {x.shape} and {y.shape}")
    return np.einsum(_CHDOT[x.ndim], x, y)


def _taps(kh: int, kw: int, h: int, w: int):
    """Per kernel tap (u, v) of a same-padded stride-1 convolution over an
    unpadded [..,H,W] input: the row and column slices of the input window
    and of the output window it reads into. The odd kernel pads top =
    (kh-1)/2 rows above and below the plane and left = (kw-1)/2 columns on
    either side, so the output is H x W. Output pixel (i, j) reads input
    pixel (i + u - top, j + v - left); the windows keep only the pixels
    that fall inside the input, so the padding is never materialised."""
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    for u in range(kh):
        i0, i1 = max(0, pt - u), min(h, h + pt - u)
        for v in range(kw):
            j0, j1 = max(0, pl - v), min(w, w + pl - v)
            yield (u, v, slice(i0 + u - pt, i1 + u - pt), slice(j0 + v - pl, j1 + v - pl),
                   slice(i0, i1), slice(j0, j1))


def unfold2d(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Per-sample im2col of a same-padded stride-1 convolution:
    [N,C,H,W] -> [N, C*kh*kw, H*W].

    Column p = oh*W + ow of sample n holds the receptive field of output
    pixel (oh, ow), row c*kh*kw + u*kw + v its tap (c, u, v); taps that fall
    in the zero padding read 0. Built by one slab copy per tap, each running
    along W.
    """
    n, c, h, w = x.shape
    cols = np.zeros((n, c, kh, kw, h, w), dtype=x.dtype)
    for u, v, si, sj, oi, oj in _taps(kh, kw, h, w):
        cols[:, :, u, v, oi, oj] = x[:, :, si, sj]
    return cols.reshape(n, c * kh * kw, h * w)


def check_conv(x_shape: tuple, w_shape: tuple) -> None:
    """Checks a stride-1 same-padded convolution of an [N,Cin,H,W] input
    with a [Cout,Cin,kh,kw] kernel; the output keeps H and W. Only an odd
    kernel pads as much on one side as on the other."""
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ShapeMismatchError(f"conv2d needs 4-D input/kernel, got {x_shape}, {w_shape}")
    if x_shape[1] != w_shape[1]:
        raise ShapeMismatchError(f"channel mismatch: input {x_shape[1]} vs kernel {w_shape[1]}")
    if w_shape[2] % 2 == 0 or w_shape[3] % 2 == 0:
        raise ShapeMismatchError(f"same padding needs an odd kernel, got kernel shape {w_shape}")
    # same padding fits any odd kernel on a plane of at least one pixel
    if 0 in x_shape[2:]:
        raise ShapeMismatchError(f"conv2d needs a non-empty input plane, got {x_shape}")


# the bytes of patch matrix a convolution kernel unfolds at a time. On
# conv2's f32 shapes at batch 100 (2-core host), chunks of 2 to 100 samples
# timed within 10% of each other in each kernel; this gives 9.
_PATCH_BYTES = 2 << 20


def _chunk(c: int, kh: int, kw: int, h: int, w: int, dtype) -> int:
    """Samples per chunk: as many [C*kh*kw, H*W] patch matrices as fit in
    _PATCH_BYTES, and at least one."""
    return max(1, _PATCH_BYTES // (c * kh * kw * h * w * np.dtype(dtype).itemsize))


def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation of [N,Cin,H,W] with
    [Cout,Cin,kh,kw]: W[Cout, Cin*kh*kw] @ unfold2d(x) per sample, a
    C-contiguous [N,Cout,H,W], unfolded one chunk of samples at a time."""
    x = np.asarray(x)
    w = np.asarray(w)
    check_conv(x.shape, w.shape)
    n, _, h, wd = x.shape
    cout, cin, kh, kw = w.shape
    wm = w.reshape(cout, cin * kh * kw)
    out = np.empty((n, cout, h * wd), np.result_type(w, x))
    # an input adjoint unfolds more channels than it outputs: chunks of at
    # most n*Cout/Cin samples hold no more patches than kh*kw outputs
    k = min(_chunk(cin, kh, kw, h, wd, x.dtype), max(1, n * cout // cin))
    for lo in range(0, n, k):
        np.matmul(wm, unfold2d(x[lo : lo + k], kh, kw), out=out[lo : lo + k])
    return out.reshape(n, cout, h, wd)


def conv_w(x: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Kernel adjoint of conv2d for an [N,Cin,H,W] input and an [N,Cout,H,W]
    output adjoint: the per-sample products g_n @ unfold2d(x)_n^T summed over
    the batch, a [Cout,Cin,kh,kw] kernel. The patches are unfolded anew on
    every call, one chunk of samples at a time, and the products of the
    whole batch are summed once."""
    x = np.asarray(x)
    g = np.asarray(g)
    if g.ndim != 4 or x.shape[:1] + x.shape[2:] != g.shape[:1] + g.shape[2:]:
        raise ShapeMismatchError(f"conv_w needs [N,Cin,H,W] and [N,Cout,H,W], "
                                 f"got {x.shape} and {g.shape}")
    n, cin, h, wd = x.shape
    cout = g.shape[1]
    check_conv(x.shape, (cout, cin, kh, kw))
    gm = g.reshape(n, cout, h * wd)
    prods = np.empty((n, cout, cin * kh * kw), np.result_type(g, x))
    k = _chunk(cin, kh, kw, h, wd, x.dtype)
    for lo in range(0, n, k):
        np.matmul(gm[lo : lo + k], unfold2d(x[lo : lo + k], kh, kw).swapaxes(-1, -2),
                  out=prods[lo : lo + k])
    return np.sum(prods, axis=0).reshape(cout, cin, kh, kw)
