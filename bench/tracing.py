"""Spans around the program's public calls, recorded from outside it.

`Tracer.install` replaces module and class attributes of `sgdph` with
wrappers that time each call; `uninstall` puts the originals back, so an
untraced phase runs the program exactly as shipped. A span is
(name, start, end, parent span, step id, detail). Garbage-collector pauses
come from `gc.callbacks`. Tensor kernels are reached through names bound
inside `autodiff` and `nn`, so their time stays inside those spans; the
tape's owned bytes per op, computed after each backward, stand in for the
bytes they move.

Training steps are not a function of the program, so a `train.step` span is
opened when `Model.forward_v` is called directly under a `train.train` span
and closed when that step's `Graph.release` returns.
"""

from __future__ import annotations

import functools
import gc
import json
import time

NAME, START, END, PARENT, STEP, DETAIL = range(6)

# wrapped attribute -> span name; the smoke check expects a span for each
WRAPPED = {
    ("train", "make_dataset"): "data.make_dataset",
    ("data", "write_digits_fixture"): "data.write_digits_fixture",
    ("nn", "Model.forward_v"): "nn.forward_v",
    ("nn", "softmax_cross_entropy"): "nn.loss",
    ("autodiff", "backward"): "autodiff.backward",
    ("autodiff", "hessian_diag_1d"): "autodiff.hessian_diag_1d",
    ("autodiff", "Graph.release"): "autodiff.release",
    ("optim", "step"): "optim.step",
    ("optim", "sgdm_step"): "optim.sgdm_step",
    ("train", "evaluate"): "train.evaluate",
    ("train", "save_checkpoint"): "train.save_checkpoint",
    ("oracle", "fd_hessian_block_1d"): "oracle.fd_hessian_block_1d",
    ("oracle", "tape_hdiag"): "oracle.tape_hdiag",
    ("oracle", "model_lossfn"): "oracle.lossfn",
}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = None
        self.n_steps = 0
        # tape leaf id -> parameter name, from the env of the last forward
        self.param_names: dict[int, str] = {}
        # one row per backward: (span count at the time, step, nodes before,
        # nodes added, {op: owned bytes})
        self.tape: list[tuple] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, detail=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        # building the row may trigger a gc pass, whose own span must land
        # first; so the id is read after the append
        self.spans.append([name, time.perf_counter(), None, parent, self.step, detail])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == sid:
                return

    def top_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def _on_gc(self, phase, info):
        if phase == "start":
            self.begin("py.gc", info.get("generation"))
        elif self.top_name() == "py.gc":
            self.end(self.stack[-1])

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, detail=None, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self.begin(name, detail(args) if detail else None)
            try:
                out = original(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                out = after(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from sgdph import autodiff as ad
        from sgdph import data, nn, optim, oracle, train

        def begin_step(args):
            _model, _x, env = args[:3]
            self.param_names = {v.id: k for k, v in env.items()}
            if self.top_name() == "train.train":
                self.n_steps += 1
                self.step = self.n_steps
                self.begin("train.step")

        def end_step(_args, out):
            if self.top_name() == "train.step":
                self.end(self.stack[-1])
                self.step = None
            return out

        self._patch(ad, "backward", "autodiff.backward")
        backward_traced = ad.backward

        # the tape census runs outside the backward span, in a span of its
        # own, so it inflates neither backward_ms nor the loop's self time
        def backward(loss, *args, **kwargs):
            graph = loss.graph
            before = len(graph.nodes)
            grads = backward_traced(loss, *args, **kwargs)
            sid = self.begin("trace.probe")
            by_op: dict[str, int] = {}
            seen = set()
            for v in graph.nodes:
                if v.value.flags.owndata and id(v.value) not in seen:
                    seen.add(id(v.value))
                    by_op[v.op] = by_op.get(v.op, 0) + v.value.nbytes
            self.tape.append((len(self.spans), self.step, before,
                              len(graph.nodes) - before, by_op))
            self.end(sid)
            return grads

        ad.backward = backward
        self._undo.append((ad, "backward", backward_traced))

        model_lossfn = oracle.model_lossfn

        def traced_model_lossfn(*args, **kwargs):
            lossfn = model_lossfn(*args, **kwargs)

            def traced_lossfn(values):
                sid = self.begin("oracle.lossfn")
                try:
                    return lossfn(values)
                finally:
                    self.end(sid)

            return traced_lossfn

        oracle.model_lossfn = traced_model_lossfn
        self._undo.append((oracle, "model_lossfn", model_lossfn))
        self._patch(train, "make_dataset", "data.make_dataset")
        self._patch(data, "write_digits_fixture", "data.write_digits_fixture")
        self._patch(nn.Model, "forward_v", "nn.forward_v", before=begin_step)
        self._patch(nn, "softmax_cross_entropy", "nn.loss")
        self._patch(ad, "hessian_diag_1d", "autodiff.hessian_diag_1d",
                    detail=lambda a: self.param_names.get(a[1].id))
        self._patch(ad.Graph, "release", "autodiff.release", after=end_step)
        self._patch(optim, "step", "optim.step")
        self._patch(optim, "sgdm_step", "optim.sgdm_step")
        self._patch(train, "evaluate", "train.evaluate")
        self._patch(train, "save_checkpoint", "train.save_checkpoint")
        self._patch(oracle, "fd_hessian_block_1d", "oracle.fd_hessian_block_1d",
                    detail=lambda a: a[2])
        self._patch(oracle, "tape_hdiag", "oracle.tape_hdiag", detail=lambda a: a[2])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, step, detail) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0,
                    "end": None if end is None else end - self.t0,
                    "parent": parent, "step": step, "detail": detail,
                }, separators=(",", ":")) + "\n")
