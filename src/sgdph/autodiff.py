"""Reverse-mode tape over numpy values with a differentiable backward pass.

Every adjoint the backward sweep builds is expressed through the same
operations as the forward pass, so the backward computation can land on
the tape too. backward(loss, retain=leaves) records only what can feed
the gradient g_p of each leaf p it is given: the adjoints of the nodes
that depend on one of those leaves. It computes every other adjoint off
the tape with the same arithmetic. A second reverse sweep seeded with ones
at g_p then computes d(sum g_p)/dp. For a 1-D parameter p of length C
that vector is exactly H_pp @ 1, the row sums of p's Hessian block; it
coincides with the block's diagonal whenever the block is diagonal, as it
is for the scale and shift of a terminal batch-norm layer under an
elementwise loss. The tape holds no parameter semantics: its caller
(nn.taped_batch) names the leaves whose curvature it wants.

Both sweeps run through one routine that lets adjoints flow only into a
given set of nodes, a descendant cone found by one forward pass over the
tape, and records the adjoints of a second such cone. The first backward
pass admits the cone of the parameter leaves and records that of the
retained leaves; the second admits only p's, the nodes between p and
g_p that depend on p, since no other node's adjoint can reach p, and
records nothing. Skipping the rest (the activations upstream of p above
all) leaves every curvature vector bit for bit unchanged.

Both decisions are made per tape edge, by the parent the edge leads to.
A node holds one vjp per parent, and the sweep calls vjps[i] only when
parents[i] is admitted, with recording on exactly when parents[i]'s
adjoint is recorded. No op builds a contribution nobody asked for, and
none is told which of its parents are admitted.

The primitives do only what the layers ask of them. add, sub and mul take
operands of equal shape; a layer broadcasts explicitly with reshape and
broadcast_to, which keeps the rank. matmul takes two matrices. conv2d is
same-padded with stride 1, and with its input adjoint conv_t and its kernel
adjoint conv_w it forms a family closed under differentiation: each of the
three has its vjps in the other two and itself, so a recorded backward
through a convolution holds no patch matrix and stays exact to any order.

A node keeps its value only if some vjp reads it. An on-tape op marks
`saved` the operands its vjps capture (both operands of mul, matmul and
the three convolutions, and log's), or its own output where the vjp is
written in it (recip, sqrt, exp). The other ops capture a bool mask
(relu), a constant (cmul) or shapes only. Once the forward is complete,
backward() frees every unsaved value below the loss. A retaining sweep
frees each unsaved adjoint it records, and both operands of each
recorded add, once the node that used them last has fired; backward()
then frees the rest of the unsaved values the sweep recorded. The loss,
the leaves, the constants and the retained gradients keep theirs. On a
cnn-bn f32 step at batch 100 the tape then holds 39.1 MiB after the
backward, counted by distinct base arrays, where it held 106.1. By
tracemalloc the recorded backward peaks at 52.6 MiB (96.1 when its
values lived to the end of the sweep) and the step at 69.4 MiB, inside
the bn1 curvature sweeps.

Tapes are define-by-run and single-use: build a fresh Graph per step.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from . import tensor
from .tensor import ShapeMismatchError, elementwise

# parameter tags that nn.Parameter and the optimizer read; the tape itself does not
CHANNELWISE_1D = "channelwise-1d"
DENSE = "dense"


def _frozen_nan(dtype) -> np.ndarray:
    a = np.full((), np.nan, dtype)
    a.flags.writeable = False
    return a


# the one buffer that every dropped value of a dtype views (see _drop)
_NAN = {np.dtype(t): _frozen_nan(t) for t in (np.float32, np.float64)}


class NonScalarLossError(ValueError):
    pass


class MissingDifferentiableGraphError(RuntimeError):
    pass


class Graph:
    """Append-only tape. Node ids are topologically ordered (inputs precede
    consumers) and a backward pass visits them in strictly reverse id order.

    While `recording` is False, newly built Variables get id -1, are not
    appended and hold no edges (no parents, no vjps): their values are still
    computed, but no sweep can traverse them, and an off-tape adjoint keeps
    none of its operands alive."""

    def __init__(self):
        self.nodes: list[Variable] = []
        self.recording = True
        # leaf id -> its differentiable gradient, None where the loss does not reach it
        self.retained: dict[int, Variable | None] = {}
        # (shape, dtype) -> the NaN view that the freed values of that shape share (_drop)
        self.nan_views: dict[tuple, np.ndarray] = {}

    def _append(self, v: "Variable") -> int:
        if not self.recording:
            return -1
        self.nodes.append(v)
        return len(self.nodes) - 1

    def variable(self, value) -> "Variable":
        return Variable(self, value, op="leaf")

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
            v.vjps = ()
            v.parents = ()
        self.nodes.clear()
        self.nan_views.clear()
        self.retained = {}
        self.recording = False


@functools.cache
def keep_freed_memory() -> None:
    """Lets glibc keep freed blocks in the heap for the next step to reuse.

    A cnn-bn f32 batch-100 step builds and frees about 106 MiB of
    activation-sized tape arrays (backward() frees 67 MiB of them as soon
    as no vjp can read them), and each curvature sweep up to 30 MiB more of
    transient adjoints; by tracemalloc the step peaks at 69 MiB, inside the
    bn1 sweeps. When those arrays come from
    mmap, or are trimmed off the top of the heap after Graph.release(),
    every step's arrays are page-faulted and zeroed by the kernel again.
    Measured on cnn-bn f32 at batch 100 with a fixed 1 MiB mmap
    threshold, over the 100-step criterion 9 run: about 123k minor
    faults and 0.57 s of system CPU a step, 31% of the run's wall time,
    and no lower peak RSS. glibc's default dynamic
    policy still trims the heap after each release, so both thresholds
    are set (setting either one also turns the dynamic policy off): the
    mmap threshold to 32 MiB, the 64-bit maximum that mallopt(3)
    documents and above every array of a step in f32 or f64: the largest
    tape array is a 4.8 MiB f32 activation, and the convolution kernels
    unfold at most 2 MiB of patches at a time, where a whole batch's patch
    matrix of conv2's input (22.6 MB in f32, 45 MB in f64) went past the
    threshold in f64. The trim threshold is set to never. A repeated step
    then faults almost no pages, in f32 and f64 alike. The cost is that the
    process keeps its heap high-water mark
    (a 99 MiB arena after the criterion 9 cnn-bn sgdph run) after train()
    returns; a malloc_trim there would only re-fault it on the first step
    of the next train(). The oracle releases each tape it builds as well,
    and with the heap trimmed, one desk-scale tape_hdiag call on cnn-bn
    re-faulted about 400 pages. No-op off glibc. nn.taped_batch calls it
    before every model tape; the policy is process-wide, so only the
    first call acts."""
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
    """One tape node: forward value, parent edges, and one vjp per edge.
    `vjps` is aligned with `parents`: vjps[i] maps the output adjoint to the
    contribution flowing into parents[i]. Two consecutive edges that hold
    the same function object get one contribution between them, built
    once: that is how mul(a, a) builds g*a a single time for both.

    `saved` is set when an on-tape vjp captures the node. backward() frees
    the value of a node with parents that is not saved (see _drop): it
    keeps its shape and dtype but reads as NaN."""

    __slots__ = ("graph", "id", "value", "parents", "vjps", "op", "saved")

    def __init__(self, graph, value, parents=(), vjps=(), op=""):
        self.graph = graph
        self.value = np.asarray(value)
        self.op = op
        self.saved = False
        self.id = graph._append(self)
        on_tape = self.id >= 0
        self.parents = tuple(parents) if on_tape else ()
        self.vjps = tuple(vjps) if on_tape else ()

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Variable(id={self.id}, op={self.op!r}, shape={self.shape})"


def _op(graph: Graph, value, parents, vjps, op: str, saves=()) -> Variable:
    """A new node; `saves` are the operands its vjps capture, marked saved
    only when the node is on the tape (an off-tape node holds no vjp)."""
    out = Variable(graph, value, parents, vjps, op=op)
    if out.id >= 0:
        for v in saves:
            v.saved = True
    return out


def _pass(g: Variable) -> Variable:
    return g


# ---------------------------------------------------------------------------
# primitive ops; every vjp is itself built from these ops so that a recorded
# backward pass stays differentiable


def _same_shape(op: str, a: Variable, b: Variable) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


def add(a: Variable, b: Variable) -> Variable:
    _same_shape("add", a, b)
    return _op(a.graph, a.value + b.value, (a, b), (_pass, _pass), "add")


def sub(a: Variable, b: Variable) -> Variable:
    _same_shape("sub", a, b)
    return _op(a.graph, a.value - b.value, (a, b), (_pass, neg), "sub")


def neg(a: Variable) -> Variable:
    return _op(a.graph, -a.value, (a,), (neg,), "neg")


def mul(a: Variable, b: Variable) -> Variable:
    _same_shape("mul", a, b)
    if a is b:  # both contributions are g*a: one function, so it is built once
        def f(g):
            return mul(g, a)
        vjps = (f, f)
    else:
        vjps = (lambda g: mul(g, b), lambda g: mul(g, a))
    return _op(a.graph, a.value * b.value, (a, b), vjps, "mul", (a, b))


def recip(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("recip", a.value), (a,), (), "recip")
    if out.id >= 0:  # the vjp captures out; an off-tape node holds no vjp
        out.vjps, out.saved = (lambda g: neg(mul(g, mul(out, out))),), True
    return out


def cadd(a: Variable, c) -> Variable:
    """Add a non-differentiable constant (scalar or array)."""
    value = a.value + c
    if value.shape != a.shape:
        raise ShapeMismatchError(
            f"constant of shape {np.shape(c)} widens variable of shape {a.shape}"
        )
    return _op(a.graph, value, (a,), (_pass,), "cadd")


def cmul(a: Variable, c) -> Variable:
    """Multiply by a non-differentiable constant (scalar or array). The
    constant is invisible to differentiation: this is how zero second
    derivatives of relu kinks enter the tape."""
    value = a.value * c
    if value.shape != a.shape:
        raise ShapeMismatchError(
            f"constant of shape {np.shape(c)} widens variable of shape {a.shape}"
        )
    return _op(a.graph, value, (a,), (lambda g: cmul(g, c),), "cmul")


def sqrt(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("sqrt", a.value), (a,), (), "sqrt")
    if out.id >= 0:
        out.vjps, out.saved = (lambda g: mul(g, cmul(recip(out), 0.5)),), True
    return out


def exp(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("exp", a.value), (a,), (), "exp")
    if out.id >= 0:
        out.vjps, out.saved = (lambda g: mul(g, out),), True
    return out


def log(a: Variable) -> Variable:
    return _op(a.graph, elementwise("log", a.value), (a,), (lambda g: mul(g, recip(a)),), "log",
               (a,))


def relu(a: Variable) -> Variable:
    # a bool mask: a quarter of an f32 one, and g * mask gives the same bits
    mask = a.value > 0
    return _op(a.graph, elementwise("relu", a.value), (a,), (lambda g: cmul(g, mask),), "relu")


def matmul(a: Variable, b: Variable) -> Variable:
    """Product of two matrices (tensor.matmul)."""
    return _op(a.graph, tensor.matmul(a.value, b.value), (a, b),
               (lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g)), "matmul",
               (a, b))


def transpose(a: Variable) -> Variable:
    if a.value.ndim != 2:
        raise ShapeMismatchError(f"transpose needs a matrix, got {a.shape}")
    return _op(a.graph, a.value.T, (a,), (transpose,), "transpose")


def reshape(a: Variable, shape: tuple) -> Variable:
    src = a.shape
    return _op(a.graph, a.value.reshape(shape), (a,), (lambda g: reshape(g, src),), "reshape")


def broadcast_to(a: Variable, shape: tuple) -> Variable:
    """Repeats a's extent-1 axes up to `shape`, which has a's rank; numpy
    rejects any other mismatch."""
    src = a.shape
    if len(shape) != len(src):
        raise ShapeMismatchError(f"broadcast_to keeps the rank: cannot broadcast {src} to {shape}")

    def vjp(g):
        axes = tuple(i for i, (s, t) in enumerate(zip(src, shape)) if s != t)
        return reshape(sum_axes(g, axes), src) if axes else g

    return _op(a.graph, np.broadcast_to(a.value, shape), (a,), (vjp,), "broadcast")


def sum_axes(a: Variable, axes: tuple) -> Variable:
    axes = tuple(int(ax) % a.value.ndim for ax in axes)
    keep = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    src = a.shape
    return _op(a.graph, np.sum(a.value, axis=axes), (a,),
               (lambda g: broadcast_to(reshape(g, keep), src),), "sum")


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
    return _op(x.graph, value, (x, w),
               (lambda g: conv_t(g, w), lambda g: conv_w(x, g, kh, kw)), "conv2d", (x, w))


def conv_t(g: Variable, w: Variable) -> Variable:
    """Transposed convolution of an [N,Cout,H,W] adjoint with w
    (tensor.conv_t): conv2d's input adjoint. Being linear in each operand,
    it has the vjps conv2d(z, w) for g and conv_w(z, g) for w."""
    value = tensor.conv_t(g.value, w.value)
    kh, kw = w.shape[2:]
    return _op(g.graph, value, (g, w),
               (lambda z: conv2d(z, w), lambda z: conv_w(z, g, kh, kw)), "conv_t", (g, w))


def conv_w(x: Variable, g: Variable, kh: int, kw: int) -> Variable:
    """Kernel adjoint of conv2d for input x and output adjoint g
    (tensor.conv_w), a [Cout,Cin,kh,kw] kernel. Its vjps are conv_t(g, k)
    for x and conv2d(x, k) for g. The node keeps x and g, never their
    patch matrix: the kernel unfolds x again on each call."""
    return _op(x.graph, tensor.conv_w(x.value, g.value, kh, kw), (x, g),
               (lambda k: conv_t(g, k), lambda k: conv2d(x, k)), "conv_w", (x, g))


# ---------------------------------------------------------------------------
# backward machinery


def _iadd(prev: Variable, c: Variable) -> Variable:
    """prev + c written into prev's own array: the sums add() makes, with
    no new array."""
    np.add(prev.value, c.value, out=prev.value)
    return prev


def _sweep(graph: Graph, root: Variable, reach: set[int],
           keep: set[int] = frozenset()) -> dict[int, Variable]:
    """Reverse accumulation of d(sum root)/d(node) from a ones seed at root.
    Visits recorded nodes in strictly decreasing id order, so every tape
    edge receives at most one adjoint contribution. The sweep walks a
    node's edges in parent order and decides each one by its parent alone:
    an edge into a parent outside `reach`, the ids of the nodes an adjoint
    must flow into, is skipped and its vjp never called. Consecutive edges
    that hold the same function share one call and one contribution: the
    two edges of mul(a, a) get a single g*a. A node whose parents are all
    outside `reach` builds nothing.

    `keep` holds the ids of the nodes whose adjoints are recorded, a
    descendant cone within `reach`: an edge into a parent in `keep` builds
    its contribution, and the add that accumulates it, on the tape; every
    other edge builds its contribution off the tape with the same
    arithmetic. A node with a parent in `keep` is in `keep` itself, so a
    recorded contribution is built from a recorded adjoint. With `keep`
    empty the sweep records nothing.

    A node's adjoint is complete when the sweep reaches it, since every
    consumer has a higher id, so it is dropped there. Nothing else refers
    to an off-tape adjoint or contribution, so each is freed at its last
    use. An off-tape parent's third and later contributions are summed in
    place into the array the off-tape add of its second one built (parents
    tracked by id); a first contribution may be a view of another array or
    the adjoint itself, so it is never written into. A recorded value
    lives on the tape, so once all of a node's edges have fired, _drop
    frees its adjoint g and the two operands of every recorded add it
    built: not before, since both edges of mul(a, a) read one product. A
    saved value is kept, and so is an adjoint that a vjp handed on as its
    own contribution (add, sub, cadd and an identity broadcast_to do), as
    it may sit in a second parent's slot. On a cnn-bn f32 step at batch
    100 that takes the recorded backward's tracemalloc peak from 96.1 MiB
    to 52.6. A sweep that records nothing keeps none of this
    bookkeeping. The returned dict holds the adjoints of the parentless
    nodes (leaves and constants) only. The graph's recording flag is left
    as the sweep found it."""
    recording = graph.recording
    graph.recording = root.id in keep
    try:
        adj = {root.id: graph.constant(np.ones_like(root.value))}
        summed = set()  # off-tape parents whose adjoint an add of this sweep built
        handed = set()  # recorded adjoints a vjp returned as they were
        for nid in range(root.id, -1, -1):
            g = adj.get(nid)
            if g is None:
                continue
            node = graph.nodes[nid]
            if not node.parents:
                continue
            del adj[nid]
            spent = [g] if nid in keep else None
            last = None
            for p, f in zip(node.parents, node.vjps):
                pid = p.id
                if pid not in reach:
                    continue
                on_tape = graph.recording = pid in keep
                if f is not last:  # mul(a, a): both edges share one product
                    c, last = f(g), f
                    if c is g and spent:
                        handed.add(g.id)
                prev = adj.get(pid)
                if prev is None:
                    adj[pid] = c
                elif on_tape:
                    adj[pid] = add(prev, c)
                    spent += (prev, c)
                elif pid in summed:
                    adj[pid] = _iadd(prev, c)
                else:
                    adj[pid] = add(prev, c)
                    summed.add(pid)
            if spent:
                _drop(graph, spent, handed)
    finally:
        graph.recording = recording
    return adj


def _drop(graph: Graph, nodes, kept=frozenset()) -> None:
    """Frees the value of every node in `nodes` that has parents, is not
    saved and is not in `kept`, the ids of the values a caller still reads.
    The value is rebound to a zero-strided view of the read-only NaN of its
    dtype: it keeps the node's shape and dtype, owns no data, raises on a
    write and turns any stray read into NaN. Being read-only, one such view
    serves every freed value of its shape and dtype, and the graph keeps
    it for the next call. A value of another dtype is kept."""
    views = graph.nan_views
    for v in nodes:
        if v.saved or not v.parents or v.id in kept:
            continue
        a = v.value
        key = a.shape, a.dtype
        view = views.get(key)
        if view is None:
            nan = _NAN.get(a.dtype)
            if nan is None:
                continue
            # buffer, offset and strides by position: keywords cost a third more
            view = views[key] = np.ndarray(a.shape, a.dtype, nan, 0, (0,) * a.ndim)
        v.value = view


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


def backward(loss: Variable, retain: Sequence[Variable] = ()) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss for every leaf, keyed by node id. The
    backward pass that feeds the gradient of each leaf in `retain` is itself
    recorded, and graph.retained maps each such leaf's id to its gradient
    Variable, or to None where the loss does not reach the leaf: that makes
    a subsequent hessian_diag_1d call valid for exactly these leaves. Only
    the adjoints of the retained leaves' descendant cone go on the tape: no
    other adjoint can reach their gradients, so the rest (the other leaves'
    gradients, and the adjoints upstream of every retained leaf) are
    computed off the tape, bit for bit as they would be on it. With
    `retain` empty nothing is recorded.

    No vjp reads an unsaved value, so the values of the unsaved nodes below
    the loss are freed before the sweep. The sweep frees the recorded
    adjoints and the operands of the recorded adds at their last use (see
    _sweep), and the values of the other unsaved nodes it recorded, such
    as the intermediates inside a vjp, bar the retained gradients, are
    freed after it: a value read after backward() returns may be NaN."""
    graph = loss.graph
    if loss.value.size != 1:
        raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
    if loss.id < 0:
        raise MissingDifferentiableGraphError("loss was built while recording was off")
    leaves = [node for node in graph.nodes if node.op == "leaf"]
    keep = _cone(graph, retain, loss.id)
    _drop(graph, graph.nodes[:loss.id])  # the forward is complete
    recorded = len(graph.nodes)
    adj = _sweep(graph, loss, _cone(graph, leaves, loss.id), keep)
    grads: dict[int, np.ndarray] = {}
    for node in leaves:
        a = adj.get(node.id)
        grads[node.id] = np.zeros_like(node.value) if a is None else a.value.copy()
    graph.retained = {v.id: adj.get(v.id) for v in retain}
    _drop(graph, graph.nodes[recorded:],
          {g.id for g in graph.retained.values() if g is not None})
    return grads


def hessian_diag_1d(loss: Variable, p: Variable) -> np.ndarray:
    """Curvature of a 1-D leaf p that backward() retained: seeds a second
    reverse sweep with ones at p's retained gradient, returning
    d(sum grad_p)/dp, i.e. the row sums H_pp @ 1 of p's exact Hessian
    block. The sweep visits only p's descendant cone below grad_p, the
    nodes through which an adjoint can reach p."""
    if p.value.ndim != 1:
        raise ShapeMismatchError(f"hessian_diag_1d needs a 1-D parameter, got shape {p.shape}")
    graph = p.graph
    if loss.graph is not graph:
        raise MissingDifferentiableGraphError("loss and parameter live on different graphs")
    if p.id not in graph.retained:
        raise MissingDifferentiableGraphError(
            f"{p!r} was not retained: run backward(loss, retain=[p]) on this graph first"
        )
    g_p = graph.retained[p.id]
    if g_p is None:
        return np.zeros_like(p.value)
    adj = _sweep(graph, g_p, _cone(graph, [p], g_p.id))
    a = adj.get(p.id)
    return np.zeros_like(p.value) if a is None else np.array(a.value)
