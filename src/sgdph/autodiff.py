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
operands of equal shape; broadcast_to, which keeps the rank, broadcasts
explicitly. The channel-wise ops work along axis 1 of an [N,C] or
[N,C,H,W] activation: chshift(x, b) adds entry c of the C-vector b to
channel c, chscale(x, s) scales each channel by one entry of s, and
chdot(x, y) sums x*y over every other axis into a C-vector. Every bias and
BatchNorm shift is a chshift, whose vjps hand the adjoint on to x and sum
it into a C-vector for b, reading no value. chscale's vjps are chscale and
chdot, and chdot's are two chscales, so the pair is closed under
differentiation and BatchNorm's per-channel scale and variance stay exact
to any order without an activation-sized product on the tape. matmul takes
two matrices. conv2d is same-padded with stride 1 and takes an odd kernel.
With its kernel adjoint conv_w and flip, which turns a kernel half a turn
and swaps its channel axes, it forms a family closed under
differentiation: conv2d's input adjoint is conv2d(g, flip(w)), and each of
the three has its vjps in the family, so a recorded backward through a
convolution holds no patch matrix and stays exact to any order.

A node keeps its value only while a sweep still to run can read it, and
a sweep reads a value only through an edge it crosses. Each on-tape edge
names in `reads` the one operand its vjp reads: the other operand for
mul, matmul, the channel pair and the two convolutions, the input for
log, and the node's own output for recip, sqrt and exp. The other ops
read a bool mask (relu), a constant (cmul), shapes only (chshift among
them) or nothing (flip). So once the forward is complete, backward()
frees every value below the loss that no edge reads. A curvature sweep
crosses only the edges into the retained leaves' descendant cone, so the
values those edges read are `live` (the to-be-recorded analysis of
Hascoet, Naumann and Pascual, 2005, run over the recorded backward). The
first sweep then frees every other value by one rule: when its step is
done, or as the sweep passes a node it never reaches. The loss, the
leaves, the constants and the retained gradients keep theirs, and with
nothing retained nothing else does.

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
        Self-reading nodes (exp, sqrt, recip), whose vjp closure and `reads`
        hold the node itself, tie the forward and backward webs into
        reference cycles that refcounting cannot free, so a finished tape
        otherwise lives until a full gc pass. Only recorded nodes carry
        edges, so the cycles exist only among the nodes this severs. No
        sweep may run afterwards."""
        for v in self.nodes:
            v.vjps = v.parents = v.reads = ()
        self.nodes.clear()
        self.nan_views.clear()
        self.retained = {}
        self.recording = False


@functools.cache
def keep_freed_memory() -> None:
    """Lets glibc keep freed blocks in the heap for the next step to reuse.

    A step builds and frees many activation-sized tape arrays. When they
    come from mmap, or are trimmed off the top of the heap after
    Graph.release(), the kernel page-faults and zeroes every step's arrays
    again. So the mmap threshold is set to 32 MiB, the 64-bit maximum that
    mallopt(3) documents and above every array of a step in f32 or f64 (the
    convolution kernels unfold at most 2 MiB of patches at a time), and the
    trim threshold to never; setting either also turns glibc's dynamic
    policy off. The cost is that the process keeps its heap high-water mark
    after train() returns: a malloc_trim there would only re-fault it on
    the first step of the next train(). README gives the measured figures.
    No-op off glibc. nn.taped_batch calls it before every model tape; the
    policy is process-wide, so only the first call acts."""
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
    `reads` is aligned with them too: reads[i] is the one Variable whose
    value vjps[i] reads, or None where it reads only shapes, a mask or a
    constant. backward() frees the value of a node that no sweep still to
    run reads (see _drop): it keeps its shape and dtype but reads as NaN."""

    __slots__ = ("graph", "id", "value", "parents", "vjps", "reads", "op")

    def __init__(self, graph, value, parents=(), vjps=(), op=""):
        self.graph = graph
        self.value = np.asarray(value)
        self.op = op
        self.id = graph._append(self)
        on_tape = self.id >= 0
        self.parents = tuple(parents) if on_tape else ()
        self.vjps = tuple(vjps) if on_tape else ()
        self.reads = ()  # _op sets an on-tape node's

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Variable(id={self.id}, op={self.op!r}, shape={self.shape})"


def _op(graph: Graph, value, parents, vjps, op: str, reads=None) -> Variable:
    """A new node. `reads` holds, per edge, the operand its vjp reads; None
    (the default) means that no edge reads one. An on-tape node keeps it,
    as one None per edge where it is None (an off-tape node holds no vjp)."""
    out = Variable(graph, value, parents, vjps, op)
    if out.id >= 0:
        out.reads = (None,) * len(out.parents) if reads is None else reads
    return out


def _reads_itself(out: Variable, vjp) -> Variable:
    """Gives an on-tape node its one vjp, which is written in the node's own
    output (recip, sqrt, exp), and the one read of that output."""
    if out.id >= 0:
        out.vjps, out.reads = (vjp,), (out,)
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
    return _op(a.graph, a.value * b.value, (a, b), vjps, "mul", (b, a))


def recip(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("recip", a.value), (a,), (), "recip")
    return _reads_itself(out, lambda g: neg(mul(g, mul(out, out))))


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
    return _reads_itself(out, lambda g: mul(g, cmul(recip(out), 0.5)))


def exp(a: Variable) -> Variable:
    out = _op(a.graph, elementwise("exp", a.value), (a,), (), "exp")
    return _reads_itself(out, lambda g: mul(g, out))


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
               (b, a))


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


def chshift(x: Variable, b: Variable) -> Variable:
    """x shifted per channel by the C-vector b, x[:, c] + b[c], for an [N,C]
    or [N,C,H,W] x (tensor.chshift). Its vjps read no value: g itself for x,
    handed on as add hands it, and sum_axes(g) over every axis but 1 for b."""
    value = tensor.chshift(x.value, b.value)
    axes = (0,) + tuple(range(2, x.value.ndim))
    return _op(x.graph, value, (x, b), (_pass, lambda g: sum_axes(g, axes)), "chshift")


def chscale(x: Variable, s: Variable) -> Variable:
    """x scaled per channel by the C-vector s, x[:, c] * s[c], for an [N,C]
    or [N,C,H,W] x (tensor.chscale). Its vjps are chscale(g, s) for x and
    chdot(x, g) for s."""
    return _op(x.graph, tensor.chscale(x.value, s.value), (x, s),
               (lambda g: chscale(g, s), lambda g: chdot(x, g)), "chscale", (s, x))


def chdot(x: Variable, y: Variable) -> Variable:
    """Per-channel inner product of two [N,C] or [N,C,H,W] operands of one
    shape, the C-vector of sums of x*y over every axis but 1 (tensor.chdot).
    Its vjps are chscale(y, G) for x and chscale(x, G) for y, so with
    chscale it forms a pair closed under differentiation."""
    value = tensor.chdot(x.value, y.value)
    if x is y:  # as in mul(a, a): one function, so G*x is built once
        def f(G):
            return chscale(x, G)
        vjps = (f, f)
    else:
        vjps = (lambda G: chscale(y, G), lambda G: chscale(x, G))
    return _op(x.graph, value, (x, y), vjps, "chdot", (y, x))


def conv2d(x: Variable, w: Variable) -> Variable:
    """Same-padded stride-1 cross-correlation of [N,Cin,H,W] with
    [Cout,Cin,kh,kw] (tensor.conv2d). Its vjps are the input adjoint
    conv2d(g, flip(w)) and the kernel adjoint conv_w(x, g)."""
    value = tensor.conv2d(x.value, w.value)
    kh, kw = w.shape[2:]
    return _op(x.graph, value, (x, w),
               (lambda g: conv2d(g, flip(w)), lambda g: conv_w(x, g, kh, kw)), "conv2d", (w, x))


def flip(w: Variable) -> Variable:
    """The [Cout,Cin,kh,kw] kernel w as a [Cin,Cout,kh,kw] view, turned half
    a turn in its plane: conv2d(g, flip(w)) is conv2d's input adjoint, since
    an odd kernel's same padding is symmetric. A permutation that undoes
    itself, flip is its own vjp."""
    return _op(w.graph, w.value.swapaxes(0, 1)[:, :, ::-1, ::-1], (w,), (flip,), "flip")


def conv_w(x: Variable, g: Variable, kh: int, kw: int) -> Variable:
    """Kernel adjoint of conv2d for input x and output adjoint g
    (tensor.conv_w), a [Cout,Cin,kh,kw] kernel. Its vjps are
    conv2d(g, flip(k)) for x and conv2d(x, k) for g. The node keeps x and
    g, never their patch matrix: the kernel unfolds x again on each call."""
    return _op(x.graph, tensor.conv_w(x.value, g.value, kh, kw), (x, g),
               (lambda k: conv2d(g, flip(k)), lambda k: conv2d(x, k)), "conv_w", (g, x))


# ---------------------------------------------------------------------------
# backward machinery


def _iadd(prev: Variable, c: Variable) -> Variable:
    """prev + c written into prev's own array: the sums add() makes, with
    no new array."""
    np.add(prev.value, c.value, out=prev.value)
    return prev


def _sweep(root: Variable, reach: set[int], keep: set[int] = frozenset(),
           live: set[int] | None = None) -> dict[int, Variable]:
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
    the adjoint itself, so it is never written into.

    A sweep given `live` fills it in with the ids of the values read by
    edges into `keep`, the only edges a curvature sweep crosses. It adds
    each such edge's read as it crosses the edge, and after each step it
    extends `keep` over the nodes the step appended and adds the reads of
    their edges into `keep`. Every value a later step of this sweep reads
    belongs to that step's node or to its parents, which have lower ids,
    so once a step is done its node, its adjoint, every adjoint an add
    replaced and the nodes it appended are freed (see _drop), and a node
    the sweep never reaches is freed as the sweep passes its id. Not
    before: both edges of mul(a, a) read one product. A value is kept if
    it is live, has no parents, or an adjoint slot still holds it, as one
    does where a vjp hands its adjoint on as its contribution (add, sub,
    cadd, chshift into x and an identity broadcast_to). A sweep without
    `live` frees nothing. The returned dict holds the adjoints of the
    parentless nodes (leaves and constants) only. The graph's recording
    flag is left as the sweep found it."""
    graph = root.graph
    recording = graph.recording
    graph.recording = root.id in keep
    nodes = graph.nodes
    try:
        adj = {root.id: graph.constant(np.ones_like(root.value))}
        slots = adj.values()  # a view: what the adjoint slots hold now
        summed = set()  # off-tape parents whose adjoint an add of this sweep built
        for nid in range(root.id, -1, -1):
            node = nodes[nid]
            if not node.parents:
                continue
            g = adj.pop(nid, None)
            if g is None:  # never reached: no step of this sweep reads it
                if live is not None:
                    _drop(graph, (node,), live)
                continue
            spent, start = [node, g], len(nodes)
            last = None
            for p, f, r in zip(node.parents, node.vjps, node.reads):
                pid = p.id
                if pid not in reach:
                    continue
                on_tape = graph.recording = pid in keep
                if on_tape and r is not None:
                    live.add(r.id)
                if f is not last:  # mul(a, a): both edges share one product
                    c, last = f(g), f
                prev = adj.get(pid)
                if prev is None:
                    adj[pid] = c
                elif pid in summed:
                    adj[pid] = _iadd(prev, c)
                else:
                    adj[pid] = add(prev, c)
                    spent.append(prev)
                    if not on_tape:
                        summed.add(pid)
            for v in nodes[start:]:  # the nodes the step recorded
                spent.append(v)
                for q, r in zip(v.parents, v.reads):
                    if q.id in keep:
                        keep.add(v.id)
                        if r is not None:
                            live.add(r.id)
            if live is not None:
                _drop(graph, spent, live, slots)
    finally:
        graph.recording = recording
    return adj


def _drop(graph: Graph, nodes, needed: set[int], slots=()) -> None:
    """Frees the value of every node in `nodes` that has parents, unless
    `needed` holds its id or `slots` holds the node itself. The value is
    rebound to a zero-strided view of the read-only NaN of its dtype: it
    keeps the node's shape and dtype, owns no data, raises on a write and
    turns any stray read into NaN. Being read-only, one such view serves
    every freed value of its shape and dtype, and the graph keeps it for
    the next call. A value of another dtype is kept."""
    views = graph.nan_views
    for v in nodes:
        if not v.parents or v.id in needed or v in slots:
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
    `retain` empty nothing is recorded. An entry of `retain` that is not a
    leaf of the loss's graph raises MissingDifferentiableGraphError.

    A sweep reads only the values that an edge reads, so once the forward
    is complete every other value below the loss is freed. The sweep then
    frees each value when its step is done, bar those a curvature sweep
    reads (see _sweep), so with `retain` empty every value below the loss
    goes: a value read after backward() returns may be NaN."""
    graph = loss.graph
    if loss.value.size != 1:
        raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
    if loss.id < 0:
        raise MissingDifferentiableGraphError("loss was built while recording was off")
    for v in retain:
        if v.graph is not graph or v.op != "leaf" or v.id < 0:
            raise MissingDifferentiableGraphError(
                f"cannot retain {v!r}: only a leaf of the loss's graph has a gradient to retain"
            )
    leaves = [node for node in graph.nodes if node.op == "leaf"]
    keep = _cone(graph, retain, loss.id)
    read = {r.id for v in graph.nodes for r in v.reads if r is not None}
    _drop(graph, graph.nodes[:loss.id], read)  # the forward is done
    live = {loss.id}  # the loss, and what a curvature sweep reads: _sweep fills it in
    adj = _sweep(loss, _cone(graph, leaves, loss.id), keep, live)
    grads: dict[int, np.ndarray] = {}
    for node in leaves:
        a = adj.get(node.id)
        grads[node.id] = np.zeros_like(node.value) if a is None else a.value.copy()
    graph.retained = {v.id: adj.get(v.id) for v in retain}
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
    adj = _sweep(g_p, _cone(graph, [p], g_p.id))
    a = adj.get(p.id)
    return np.zeros_like(p.value) if a is None else np.array(a.value)
