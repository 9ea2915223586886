"""Reverse-mode tape over numpy values with a differentiable backward pass.

Every adjoint the backward sweep builds is expressed through the same
operations as the forward pass, so the backward computation can land on
the tape too. A retaining backward records only what can feed the
gradient g_p of a channel-wise parameter: the adjoints of the nodes that
depend on a channel-wise leaf. It computes every other adjoint off the
tape with the same arithmetic. A second reverse sweep seeded with ones at
g_p then computes d(sum g_p)/dp. For a 1-D parameter p of length C that
vector is exactly H_pp @ 1, the row sums of p's Hessian block; it
coincides with the block's diagonal whenever the block is diagonal, as it
is for the scale and shift of a terminal batch-norm layer under an
elementwise loss.

Both sweeps run through one routine that lets adjoints flow only into a
given set of nodes, a descendant cone found by one forward pass over the
tape, and records the adjoints of a second such cone. The first backward
pass admits the cone of the parameter leaves and records that of the
channel-wise leaves; the second admits only p's, the nodes between p and
g_p that depend on p, since no other node's adjoint can reach p, and
records nothing. Skipping the rest (the activations upstream of p above
all) leaves every curvature vector bit for bit unchanged.

The primitives do only what the layers ask of them. add, sub and mul take
operands of equal shape; a layer broadcasts explicitly with reshape and
broadcast_to, which keeps the rank. matmul takes two matrices. conv2d is
same-padded with stride 1, and with its input adjoint conv_t and its kernel
adjoint conv_w it forms a family closed under differentiation: each of the
three has its vjps in the other two and itself, so a recorded backward
through a convolution holds no patch matrix and stays exact to any order.

Tapes are define-by-run and single-use: build a fresh Graph per step.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .tensor import ShapeMismatchError, elementwise

CHANNELWISE_1D = "channelwise-1d"
DENSE = "dense"


class NonScalarLossError(ValueError):
    pass


class MissingDifferentiableGraphError(RuntimeError):
    pass


class WrongKindError(TypeError):
    pass


class Graph:
    """Append-only tape. Node ids are topologically ordered (inputs precede
    consumers) and a backward pass visits them in strictly reverse id order.

    While `recording` is False, newly built Variables get id -1, are not
    appended and hold no edges (no parents, no vjp): their values are still
    computed, but no sweep can traverse them, and an off-tape adjoint keeps
    none of its operands alive."""

    def __init__(self):
        self.nodes: list[Variable] = []
        self.recording = True
        self.retained: dict[int, "Variable"] | None = None

    def _append(self, v: "Variable") -> int:
        if not self.recording:
            return -1
        self.nodes.append(v)
        return len(self.nodes) - 1

    def variable(self, value, kind: str | None = None) -> "Variable":
        return Variable(self, value, kind=kind, op="leaf")

    def constant(self, value) -> "Variable":
        return Variable(self, value, op="const")

    def release(self) -> None:
        """Severs every node's tape edges and drops the node list.
        Self-capturing vjp closures (exp, sqrt, recip) tie the forward and
        backward webs into reference cycles that refcounting cannot free, so
        a finished tape otherwise lives until a full gc pass. Only recorded
        nodes carry those closures, so the cycles exist only among the nodes
        this severs. No sweep may run afterwards."""
        for v in self.nodes:
            v.vjp = None
            v.parents = ()
        self.nodes.clear()
        self.retained = None
        self.recording = False


def keep_freed_memory() -> None:
    """Lets glibc keep freed blocks in the heap for the next step to reuse.

    A cnn-bn f32 batch-100 step builds and frees about 106 MiB of
    activation-sized tape arrays, and each curvature sweep up to 34 MiB
    more of transient adjoints (tracemalloc peak). When those come from
    mmap, or are trimmed off the top of the heap after Graph.release(),
    every step's arrays are page-faulted and zeroed by the kernel again.
    Measured on cnn-bn f32 at batch 100 with a fixed 1 MiB mmap
    threshold, over the 100-step criterion 9 run: about 123k minor
    faults and 0.57 s of system CPU a step, 31% of the run's wall time,
    and no lower peak RSS. glibc's default dynamic
    policy still trims the heap after each release, so both thresholds
    are set (setting either one also turns the dynamic policy off): the
    mmap threshold to 32 MiB, the 64-bit maximum that mallopt(3)
    documents and above the largest f32 array of a step (the 22.6 MB
    patch matrix of conv2's 8-channel input, a transient inside the
    convolution kernels; the largest tape array is a 4.8 MB activation),
    and the trim threshold to never. A repeated step then faults almost no
    pages. The cost is that the process keeps its heap high-water mark
    (about 170 MiB after the criterion 9 cnn-bn sgdph run) after train()
    returns; a malloc_trim there would only re-fault it on the first step
    of the next train(). The oracle releases each tape it builds as well,
    so it sets the same policy: with the heap trimmed, one desk-scale
    tape_hdiag call on cnn-bn re-faulted about 400 pages.
    No-op off glibc. train.train and oracle.tape_gradients call it."""
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


class Variable:
    """One tape node: forward value, parent edges, and a vjp closure that
    maps an output adjoint and a per-parent mask of wanted contributions to
    a list with one contribution (or None where unwanted) per parent."""

    __slots__ = ("graph", "id", "value", "parents", "vjp", "kind", "op")

    def __init__(self, graph, value, parents=(), vjp=None, kind=None, op=""):
        self.graph = graph
        self.value = np.asarray(value)
        self.kind = kind
        self.op = op
        self.id = graph._append(self)
        on_tape = self.id >= 0
        self.parents = tuple(parents) if on_tape else ()
        self.vjp = vjp if on_tape else None

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Variable(id={self.id}, op={self.op!r}, shape={self.shape})"


def _op(graph: Graph, value, parents, vjp, op: str) -> Variable:
    return Variable(graph, value, parents, vjp, op=op)


# ---------------------------------------------------------------------------
# primitive ops; every vjp is itself built from these ops so that a recorded
# backward pass stays differentiable


def _same_shape(op: str, a: Variable, b: Variable) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


def add(a: Variable, b: Variable) -> Variable:
    _same_shape("add", a, b)

    def vjp(g, want):
        return [g if want[0] else None, g if want[1] else None]

    return _op(a.graph, a.value + b.value, (a, b), vjp, "add")


def sub(a: Variable, b: Variable) -> Variable:
    _same_shape("sub", a, b)

    def vjp(g, want):
        return [g if want[0] else None, neg(g) if want[1] else None]

    return _op(a.graph, a.value - b.value, (a, b), vjp, "sub")


def neg(a: Variable) -> Variable:
    def vjp(g, want):
        return [neg(g)]

    return _op(a.graph, -a.value, (a,), vjp, "neg")


def mul(a: Variable, b: Variable) -> Variable:
    _same_shape("mul", a, b)

    def vjp(g, want):
        if a is b:  # both contributions are g*a: build it once
            c = mul(g, a)
            return [c, c]
        return [
            mul(g, b) if want[0] else None,
            mul(g, a) if want[1] else None,
        ]

    return _op(a.graph, a.value * b.value, (a, b), vjp, "mul")


def recip(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("recip", a.value), (a,), None, "recip")
    if out.id >= 0:  # the vjp captures out; an off-tape node holds no vjp
        def vjp(g, want):
            return [neg(mul(g, mul(out, out)))]
        out.vjp = vjp
    return out


def cadd(a: Variable, c) -> Variable:
    """Add a non-differentiable constant (scalar or array)."""
    value = a.value + c
    if value.shape != a.shape:
        raise ShapeMismatchError(
            f"constant of shape {np.shape(c)} widens variable of shape {a.shape}"
        )

    def vjp(g, want):
        return [g]

    return _op(a.graph, value, (a,), vjp, "cadd")


def cmul(a: Variable, c) -> Variable:
    """Multiply by a non-differentiable constant (scalar or array). The
    constant is invisible to differentiation: this is how zero second
    derivatives of relu kinks enter the tape."""
    value = a.value * c
    if value.shape != a.shape:
        raise ShapeMismatchError(
            f"constant of shape {np.shape(c)} widens variable of shape {a.shape}"
        )

    def vjp(g, want):
        return [cmul(g, c)]

    return _op(a.graph, value, (a,), vjp, "cmul")


def sqrt(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("sqrt", a.value), (a,), None, "sqrt")
    if out.id >= 0:
        def vjp(g, want):
            return [mul(g, cmul(recip(out), 0.5))]
        out.vjp = vjp
    return out


def exp(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("exp", a.value), (a,), None, "exp")
    if out.id >= 0:
        def vjp(g, want):
            return [mul(g, out)]
        out.vjp = vjp
    return out


def log(a: Variable) -> Variable:
    def vjp(g, want):
        return [mul(g, recip(a))]

    return _op(a.graph, elementwise("log", a.value), (a,), vjp, "log")


def relu(a: Variable) -> Variable:
    # a bool mask: a quarter of an f32 one, and g * mask gives the same bits
    mask = a.value > 0

    def vjp(g, want):
        return [cmul(g, mask)]

    return _op(a.graph, elementwise("relu", a.value), (a,), vjp, "relu")


def matmul(a: Variable, b: Variable) -> Variable:
    """Product of two matrices (tensor.matmul)."""
    value = tensor.matmul(a.value, b.value)

    def vjp(g, want):
        return [
            matmul(g, transpose(b)) if want[0] else None,
            matmul(transpose(a), g) if want[1] else None,
        ]

    return _op(a.graph, value, (a, b), vjp, "matmul")


def transpose(a: Variable) -> Variable:
    if a.value.ndim != 2:
        raise ShapeMismatchError(f"transpose needs a matrix, got {a.shape}")

    def vjp(g, want):
        return [transpose(g)]

    return _op(a.graph, a.value.T, (a,), vjp, "transpose")


def reshape(a: Variable, shape: tuple) -> Variable:
    src = a.shape

    def vjp(g, want):
        return [reshape(g, src)]

    return _op(a.graph, a.value.reshape(shape), (a,), vjp, "reshape")


def broadcast_to(a: Variable, shape: tuple) -> Variable:
    """Repeats a's extent-1 axes up to `shape`, which has a's rank; numpy
    rejects any other mismatch."""
    src = a.shape
    if len(shape) != len(src):
        raise ShapeMismatchError(f"broadcast_to keeps the rank: cannot broadcast {src} to {shape}")

    def vjp(g, want):
        axes = tuple(i for i, (s, t) in enumerate(zip(src, shape)) if s != t)
        return [reshape(sum_axes(g, axes), src) if axes else g]

    return _op(a.graph, np.broadcast_to(a.value, shape), (a,), vjp, "broadcast")


def sum_axes(a: Variable, axes: tuple) -> Variable:
    axes = tuple(int(ax) % a.value.ndim for ax in axes)
    keep = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    src = a.shape

    def vjp(g, want):
        return [broadcast_to(reshape(g, keep), src)]

    return _op(a.graph, np.sum(a.value, axis=axes), (a,), vjp, "sum")


def sum_all(a: Variable) -> Variable:
    return sum_axes(a, tuple(range(a.value.ndim))) if a.value.ndim else a


def mean_axes(a: Variable, axes: tuple) -> Variable:
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return cmul(sum_axes(a, axes), 1.0 / count)


def conv2d(x: Variable, w: Variable) -> Variable:
    """Same-padded stride-1 cross-correlation of [N,Cin,H,W] with
    [Cout,Cin,kh,kw] (tensor.conv2d). Its vjps are the input adjoint
    conv_t(g, w) and the kernel adjoint conv_w(x, g)."""
    value = tensor.conv2d(x.value, w.value)
    kh, kw = w.shape[2:]

    def vjp(g, want):
        return [
            conv_t(g, w) if want[0] else None,
            conv_w(x, g, kh, kw) if want[1] else None,
        ]

    return _op(x.graph, value, (x, w), vjp, "conv2d")


def conv_t(g: Variable, w: Variable) -> Variable:
    """Transposed convolution of an [N,Cout,H,W] adjoint with w
    (tensor.conv_t): conv2d's input adjoint. Being linear in each operand,
    it has the vjps conv2d(z, w) for g and conv_w(z, g) for w."""
    value = tensor.conv_t(g.value, w.value)
    kh, kw = w.shape[2:]

    def vjp(z, want):
        return [
            conv2d(z, w) if want[0] else None,
            conv_w(z, g, kh, kw) if want[1] else None,
        ]

    return _op(g.graph, value, (g, w), vjp, "conv_t")


def conv_w(x: Variable, g: Variable, kh: int, kw: int) -> Variable:
    """Kernel adjoint of conv2d for input x and output adjoint g
    (tensor.conv_w), a [Cout,Cin,kh,kw] kernel. Its vjps are conv_t(g, k)
    for x and conv2d(x, k) for g. The node keeps x and g, never their
    patch matrix: the kernel unfolds x again on each call."""

    def vjp(k, want):
        return [
            conv_t(g, k) if want[0] else None,
            conv2d(x, k) if want[1] else None,
        ]

    return _op(x.graph, tensor.conv_w(x.value, g.value, kh, kw), (x, g), vjp, "conv_w")


# ---------------------------------------------------------------------------
# backward machinery


def _sweep(graph: Graph, root: Variable, reach: set[int],
           keep: set[int] = frozenset()) -> dict[int, Variable]:
    """Reverse accumulation of d(sum root)/d(node) from a ones seed at root.
    Visits recorded nodes in strictly decreasing id order, so every tape
    edge receives at most one adjoint contribution. `reach` holds the ids
    of the nodes an adjoint must flow into: parents outside it get no
    contribution, and each vjp receives the per-parent mask so it builds
    only the contributions that are wanted. A node whose parents are all
    outside `reach` does not fire.

    `keep` holds the ids of the nodes whose adjoints are recorded, a
    descendant cone within `reach`: a contribution into a parent in `keep`,
    and the add that accumulates it, go on the tape; every other
    contribution is computed off the tape with the same arithmetic. A node
    with a parent in `keep` is in `keep` itself, so a recorded contribution
    is built from a recorded adjoint. Such a node fires once for its
    parents in `keep` and, if it wants any others, once more off the tape
    for them. With `keep` empty the sweep records nothing.

    A node's adjoint is complete when the sweep reaches it, since every
    consumer has a higher id, so it is dropped there: once its vjp has
    fired, nothing else refers to an off-tape adjoint and it is freed while
    the sweep runs. The returned dict holds the adjoints of the parentless
    nodes (leaves and constants) only. The graph's recording flag is left
    as the sweep found it."""
    recording = graph.recording
    graph.recording = root.id in keep
    try:
        adj = {root.id: graph.constant(np.ones_like(root.value))}
        graph.recording = False
        for nid in range(root.id, -1, -1):
            g = adj.get(nid)
            if g is None:
                continue
            node = graph.nodes[nid]
            if not node.parents:
                continue
            del adj[nid]
            want = [p.id in reach for p in node.parents]
            if not any(want):
                continue
            if nid in keep:
                kept = [p.id in keep for p in node.parents]
                graph.recording = True
                for p, c in zip(node.parents, node.vjp(g, kept)):
                    if c is not None:
                        prev = adj.get(p.id)
                        adj[p.id] = c if prev is None else add(prev, c)
                graph.recording = False
                if kept == want:
                    continue
                want = [w and not k for w, k in zip(want, kept)]
            for p, c in zip(node.parents, node.vjp(g, want)):
                if c is None:
                    continue
                prev = adj.get(p.id)
                adj[p.id] = c if prev is None else add(prev, c)
    finally:
        graph.recording = recording
    return adj


def _cone(graph: Graph, sources: list[Variable], last: int) -> set[int]:
    """Ids of the sources and of every node up to id `last` that depends on
    one of them: one forward pass marking a node when any of its parents is
    marked. Node ids are topological, so no descendant precedes its source;
    no sources give an empty cone."""
    cone = {s.id for s in sources}
    for node in graph.nodes[min(cone, default=last) + 1 : last + 1]:
        for q in node.parents:
            if q.id in cone:
                cone.add(node.id)
                break
    return cone


def backward(loss: Variable, retain_differentiable: bool = False) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss for every leaf, keyed by node id. With
    retain_differentiable the backward pass that feeds a channel-wise
    gradient is itself recorded, and those gradient Variables are kept on
    the graph, making a subsequent hessian_diag_1d call valid. Only the
    adjoints of the channel-wise leaves' descendant cone go on the tape: no
    other adjoint can reach a channel-wise gradient, so the rest (the dense
    gradients, and the adjoints upstream of every channel-wise leaf) are
    computed off the tape, bit for bit as they would be on it."""
    graph = loss.graph
    if loss.value.size != 1:
        raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
    if loss.id < 0:
        raise MissingDifferentiableGraphError("loss was built while recording was off")
    leaves = [node for node in graph.nodes if node.op == "leaf"]
    one_d = [node for node in leaves if node.kind == CHANNELWISE_1D]
    keep = _cone(graph, one_d, loss.id) if retain_differentiable else frozenset()
    adj = _sweep(graph, loss, _cone(graph, leaves, loss.id), keep)
    grads: dict[int, np.ndarray] = {}
    for node in leaves:
        a = adj.get(node.id)
        grads[node.id] = np.zeros_like(node.value) if a is None else a.value.copy()
    graph.retained = ({v.id: adj[v.id] for v in one_d if v.id in adj}
                      if retain_differentiable else None)
    return grads


def hessian_diag_1d(loss: Variable, p: Variable) -> np.ndarray:
    """Channel-wise curvature of a 1-D parameter: seeds a second reverse
    sweep with ones at p's retained gradient, returning d(sum grad_p)/dp,
    i.e. the row sums H_pp @ 1 of p's exact Hessian block. The sweep visits
    only p's descendant cone below grad_p, the nodes through which an
    adjoint can reach p."""
    if p.kind != CHANNELWISE_1D or p.value.ndim != 1:
        raise WrongKindError(
            f"hessian_diag_1d needs a 1-D parameter tagged {CHANNELWISE_1D!r}, "
            f"got kind {p.kind!r} with shape {p.shape}"
        )
    graph = p.graph
    if loss.graph is not graph:
        raise MissingDifferentiableGraphError("loss and parameter live on different graphs")
    if graph.retained is None:
        raise MissingDifferentiableGraphError(
            "run backward(loss, retain_differentiable=True) on this graph first"
        )
    g_p = graph.retained.get(p.id)
    if g_p is None:
        return np.zeros_like(p.value)
    adj = _sweep(graph, g_p, _cone(graph, [p], g_p.id))
    a = adj.get(p.id)
    return np.zeros_like(p.value) if a is None else np.array(a.value)
