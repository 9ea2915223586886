"""One benchmark workload in a process of its own; run.py starts it.

    python3 bench/workload.py NAME SEED SECONDS TRACE OUTDIR [--tiny]

Set-up (data generation, model build, one warm-up step) runs several times
and its median is `setup_s`. Then measured units run until the next one
would overrun SECONDS: a training unit is one `train.train` call with
`log_wall_time` on, whose step times are the `wall_ms` fields of its
metrics file; a verify unit is one `sgdph verify` audit of every 1-D
parameter. With TRACE 1, set-up runs traced, then untraced and traced units
alternate; the per-layer metrics come from the traced units' spans, and the
tracing overhead from each traced unit against its untraced neighbours.

Writes OUTDIR/result.json, OUTDIR/fingerprint.json (training) and, traced,
OUTDIR/spans.jsonl.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import re
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
from sgdph import autodiff as ad  # noqa: E402
from sgdph import cli, data, oracle, train  # noqa: E402
from sgdph.config import RunConfig  # noqa: E402

import spec  # noqa: E402
from tracing import DETAIL, END, NAME, PARENT, START, STEP, Tracer  # noqa: E402

WALL_MS = re.compile(rb'"wall_ms":[^,}]*')


@contextmanager
def span(tracer, name):
    if tracer is None:
        yield
        return
    sid = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(sid)


def setup_reps(first_s: float, seconds: float, tiny: bool) -> int:
    """How many times a run sets up, from the first set-up's time: as many
    as fit in spec.SETUP_SHARE of the run, within the spec's floor and cap."""
    if tiny:
        return 1
    fit = round(spec.SETUP_SHARE * seconds / first_s)
    return max(spec.SETUP_REPS_MIN, min(spec.SETUP_REPS_MAX, fit))


def collected(fn):
    """fn() followed, outside its timing, by a full garbage collection.
    A user runs one set-up and one training run or audit in a process; a
    benchmark run repeats them, and the cyclic garbage each leaves for the
    oldest generation would pile up across repeats and set the peak RSS.
    Collecting it between repeats keeps the peak that of one set-up and
    one unit (for verify, about 68 MiB instead of 86 to 95 MiB, depending
    on how many repeats the run's time allowed). Memory a unit keeps alive
    is not garbage and still adds up."""
    def call():
        out = fn()
        gc.collect()
        return out
    return call


def run_phase(seconds: float, unit, setup=None, tiny: bool = False, min_units: int = 1):
    """Runs unit() `min_units` times, then again while the next run, taking
    as long as the last, still ends within `seconds` of unit time; stops
    after a unit that raised. With `setup`, runs it once first, takes the
    repeat count from that time (setup_reps), and runs the rest
    between units in step with the unit time used, so the set-up median
    samples the whole run rather than one burst of it. Set-ups and units
    are each followed by a collection (collected()).
    Returns (set-up times, unit results)."""
    setup = collected(setup) if setup else None
    setups = [setup()] if setup else []
    reps = setup_reps(setups[0], seconds, tiny) if setup else 0
    units = []
    busy = 0.0
    while True:
        u0 = time.perf_counter()
        units.append(unit())
        last = time.perf_counter() - u0
        busy += last
        gc.collect()
        if units[-1].get("error") or (len(units) >= min_units and busy + last > seconds):
            break
        while setup and len(setups) < round(reps * busy / seconds):
            setups.append(setup())
    while setup and len(setups) < reps:
        setups.append(setup())
    return setups, units


def alternating(work, tracer):
    """A unit() for a traced run: untraced and traced units in turn, from an
    untraced one, with the tracer installed for the traced ones only."""
    count = 0

    def unit() -> dict:
        nonlocal count
        traced = count % 2 == 1
        count += 1
        if traced:
            tracer.install()
        try:
            out = work.unit(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        out["traced"] = traced
        return out

    return unit


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the maximum at 100."""
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def step_ok(rec: dict) -> bool:
    """A step passes if its loss is finite and every m_h is finite and > 0."""
    if rec["loss"] is None or not math.isfinite(rec["loss"]):
        return False
    for stats in rec.get("hessian", []):
        vals = (stats["min"], stats["mean"], stats["max"])
        if not all(math.isfinite(v) for v in vals) or not stats["min"] > 0:
            return False
    return True


class TrainingWorkload:
    def __init__(self, w: spec.Training, seed: int, outdir: Path, tiny: bool):
        self.w, self.seed, self.outdir = w, seed, outdir
        self.n = w.tiny_n if tiny else w.n
        self.epochs = w.tiny_epochs if tiny else w.epochs
        self.fixture = outdir / "fixture"
        self.unit_cfg = self.config(self.n, self.epochs, "unit")
        # one batch of training data, so the warm-up call makes one step
        self.warm_cfg = self.config(spec.BATCH if w.data == "digits" else spec.BATCH * 5 // 4,
                                    1, "warmup")
        self.n_train = self.n if w.data == "digits" else self.n - self.n // 5
        self.steps_per_unit = math.ceil(self.n_train / spec.BATCH) * self.epochs
        self.checked_checkpoint = False

    def config(self, n: int, epochs: int, name: str) -> RunConfig:
        kw = dict(model=self.w.model, optimizer=self.w.optimizer, epochs=epochs,
                  batch_size=spec.BATCH, seed=self.seed, dtype="f32", tau=self.w.tau,
                  eta=self.w.eta, log_wall_time=True,
                  out_metrics=str(self.outdir / f"{name}.jsonl"),
                  out_checkpoint=str(self.outdir / f"{name}.ckpt"))
        if self.w.data == "digits":
            kw.update(dataset_kind="idx", dataset_subset_n=n, **{
                f"dataset_{key}": str(self.fixture / f"{key.replace('_', '-')}.idx")
                for key in ("train_images", "train_labels", "test_images", "test_labels")})
        else:
            kw.update(dataset_kind="blobs", dataset_n=n, dataset_noise=0.5,
                      dataset_seed=self.seed)
        return RunConfig(**kw)

    def setup_once(self, tracer) -> float:
        t0 = time.perf_counter()
        with span(tracer, "bench.setup"):
            if self.w.data == "digits":
                data.write_digits_fixture(str(self.fixture), n_train=self.n, n_test=self.n,
                                          seed=self.seed)
            train.build_from_config(self.unit_cfg, train.make_dataset(self.unit_cfg))
            with span(tracer, "train.train"):
                train.train(self.warm_cfg)
        return time.perf_counter() - t0

    def unit(self, tracer) -> dict:
        cfg = self.unit_cfg
        t0 = time.perf_counter()
        try:
            with span(tracer, "train.train"):
                result = train.train(cfg)
        except Exception:  # a run that raises fails its remaining steps
            run_s = time.perf_counter() - t0
            path = Path(cfg.out_metrics)
            recs = [json.loads(line) for line in path.read_text().splitlines()
                    if '"split":"train"' in line] if path.exists() else []
            return {"run_s": run_s,
                    "walls": [r["wall_ms"] for r in recs if r["wall_ms"] is not None],
                    "attempted": self.steps_per_unit,
                    "failed": self.steps_per_unit - sum(step_ok(r) for r in recs),
                    "error": traceback.format_exc()}
        run_s = time.perf_counter() - t0

        recs = [r for r in result.records if r["split"] == "train"]
        raw = Path(cfg.out_metrics).read_bytes()
        unit = {
            "run_s": run_s,
            "walls": [r["wall_ms"] for r in recs],
            "attempted": self.steps_per_unit,
            "failed": self.steps_per_unit - sum(step_ok(r) for r in recs),
            "complete": len(recs) == self.steps_per_unit,
            "final_loss": statistics.fmean(
                r["loss"] if r["loss"] is not None else math.nan
                for r in recs if r["epoch"] == cfg.epochs - 1),
            "test_accuracy": result.final_test_accuracy,
            "fingerprint": {
                "metrics_sha256": sha256(WALL_MS.sub(b'"wall_ms":null', raw)),
                "checkpoint_sha256": sha256(Path(cfg.out_checkpoint).read_bytes()),
            },
        }
        if not self.checked_checkpoint:
            stored = train.load_checkpoint(cfg.out_checkpoint)
            unit["complete"] &= all(np.array_equal(stored[p.name], p.value)
                                    for p in result.model.parameters())
            self.checked_checkpoint = True
        return unit

    def checks(self, units) -> tuple[int, int]:
        """(steps attempted, steps failed) over every unit of the run."""
        return sum(u["attempted"] for u in units), sum(u["failed"] for u in units)

    def summarize(self, setup_times, units) -> tuple[dict, bool, dict]:
        walls = [w for u in units for w in u["walls"]]
        ok = [u for u in units if not u.get("error")]
        fingerprints = {json.dumps(u["fingerprint"], sort_keys=True) for u in ok}
        correct = (len(ok) == len(units) and all(u["complete"] for u in ok)
                   and len(fingerprints) == 1)
        metrics = {"setup_s": statistics.median(setup_times)}
        tail_info = {}
        if walls:
            metrics["step_ms.p50"] = statistics.median(walls)
            metrics["step_ms.tail"], pct = tail(walls)
            tail_info = {"percentile": pct, "samples": len(walls)}
            metrics["train_samples_per_s"] = spec.BATCH * len(walls) / (sum(walls) / 1e3)
        metrics["run_s"] = statistics.median(u["run_s"] for u in units)
        if ok:
            metrics["final_loss"] = ok[0]["final_loss"]
            metrics["test_accuracy"] = ok[0]["test_accuracy"]
            fp = ok[0]["fingerprint"]
            (self.outdir / "fingerprint.json").write_text(json.dumps(fp, indent=2) + "\n")
        else:
            fp = None
        extra = {"tail": tail_info, "fingerprint": fp, "units": len(units),
                 "unit_run_s": [u["run_s"] for u in units],
                 "errors": [u["error"] for u in units if u.get("error")]}
        return metrics, correct, extra

    def layers(self, tracer: Tracer, setup_end: int, units) -> dict:
        spans, mark = tracer.spans, setup_end
        traced = [u for u in units if u["traced"]]
        step_ids = [i for i in range(mark, len(spans)) if spans[i][NAME] == "train.step"]
        walls = [w for u in traced for w in u["walls"]]
        pairs = list(zip(step_ids, walls))
        by_step = sums_by_step(spans, mark)
        direct = defaultdict(float)
        for i in range(mark, len(spans)):
            parent = spans[i][PARENT]
            if parent >= mark and spans[parent][NAME] == "train.step":
                direct[parent] += spans[i][END] - spans[i][START]

        n = len(pairs)
        total_wall = sum(w for _, w in pairs)

        def per_step(name):
            return sum(by_step[spans[s][STEP]][name] for s, _ in pairs) / n

        def share(name):
            return sum(by_step[spans[s][STEP]][name] for s, _ in pairs) / total_wall

        m = {name: per_step(key) for name, key in (
            ("nn.forward_v_ms", "nn.forward_v"), ("nn.loss_ms", "nn.loss"),
            ("autodiff.backward_ms", "autodiff.backward"),
            ("autodiff.release_ms", "autodiff.release"), ("py.gc_ms", "py.gc"))}
        m["autodiff.release_share"] = share("autodiff.release")
        optim_key = "optim.step" if self.w.optimizer == "sgdph" else "optim.sgdm_step"
        m["optim.step_ms"] = per_step(optim_key)
        m["optim.step_share"] = share(optim_key)
        m["autodiff.hdiag_share"] = share("autodiff.hessian_diag_1d")
        if self.w.optimizer == "sgdph":
            m["autodiff.hdiag_ms"] = per_step("autodiff.hessian_diag_1d")
            for i in range(mark, len(spans)):
                if spans[i][NAME] == "autodiff.hessian_diag_1d":
                    key = f"autodiff.hdiag_ms.{spans[i][DETAIL]}"
                    m[key] = m.get(key, 0.0) + (spans[i][END] - spans[i][START]) * 1e3 / n
        self_ms = [w - direct[s] * 1e3 for s, w in pairs]
        m["train.loop_self_ms"] = sum(self_ms) / n
        m["train.loop_self_share"] = sum(self_ms) / total_wall

        runs = {i for i in range(mark, len(spans)) if spans[i][NAME] == "train.train"}
        run_total = sum(spans[i][END] - spans[i][START] for i in runs)
        for name, key in (("train.evaluate", "train.evaluate"),
                          ("train.checkpoint", "train.save_checkpoint"),
                          ("data.make_dataset", "data.make_dataset")):
            t = sum(spans[i][END] - spans[i][START] for i in range(mark, len(spans))
                    if spans[i][NAME] == key and spans[i][PARENT] in runs)
            m[f"{name}_ms"] = t * 1e3 / len(runs)
            if name.startswith("train."):
                m[f"{name}_share"] = t / run_total

        setup_ms, setup_share = [], []
        for i in range(setup_end):
            if spans[i][NAME] != "bench.setup":
                continue
            s0, s1 = spans[i][START], spans[i][END]
            t = sum(spans[j][END] - spans[j][START] for j in range(i, setup_end)
                    if spans[j][NAME].startswith("data.")
                    and spans[j][START] >= s0 and spans[j][END] <= s1)
            setup_ms.append(t * 1e3)
            setup_share.append(t / (s1 - s0))
        m["data.setup_ms"] = statistics.median(setup_ms)
        m["data.setup_share"] = statistics.median(setup_share)
        m["oracle.fd_share"] = 0.0
        m["oracle.fd_evals"] = 0
        m.update(tape_metrics(tracer, mark, m["nn.forward_v_ms"] + m["nn.loss_ms"]))
        m.update(overhead(units))
        return m


class VerifyWorkload:
    def __init__(self, w: spec.Verify, seed: int, outdir: Path, tiny: bool):
        self.w, self.seed, self.outdir, self.tiny = w, seed, outdir, tiny
        self.params: dict[str, list[str]] = {}
        self.n_steps = 0
        self.step_param: dict[int, str] = {}

    def setup_once(self, tracer) -> float:
        t0 = time.perf_counter()
        with span(tracer, "bench.setup"):
            for name in self.w.models:
                # the verify command's own model and batch, so the warm-up
                # sees what the audit sees
                model, x, loss, labels = cli._verify_input(name, self.seed)
                one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
                oracle.model_lossfn(model, x, loss, labels)(model.values())
                oracle.tape_hdiag(model, x, one_d[0], loss, labels)
                self.params[name] = one_d[:1] if self.tiny else one_d
        return time.perf_counter() - t0

    def unit(self, tracer) -> dict:
        calls = []
        t0 = time.perf_counter()
        for name, params in self.params.items():
            for pname in params:
                out = self.outdir / f"verify-{name}-{pname}.json"
                self.n_steps += 1
                self.step_param[self.n_steps] = f"{name}.{pname}"
                if tracer is not None:
                    tracer.step = self.n_steps
                s0 = time.perf_counter()
                with span(tracer, "cli.verify"):
                    rc = cli.cli(["verify", "--model", name, "--seed", str(self.seed),
                                  "--param", pname, "--out", str(out)])
                calls.append((name, pname, (time.perf_counter() - s0) * 1e3, rc, out))
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.step = None

        walls, failed, complete, evals, verdicts = [], 0, True, 0, []
        for name, pname, ms, rc, out in calls:
            try:
                doc = json.loads(out.read_text())
                rep = doc["reports"][0]
                relerr = rep["extracted_vs_rowsum_relerr"]
                ok = relerr <= cli.ROWSUM_TOL
                complete &= (rep["parameter"] == pname and rep["rowsum_ok"] == ok
                             and doc["passed"] == ok and rc == (0 if ok else 1)
                             and all(math.isfinite(rep[k]) for k in (
                                 "max_abs_offdiag", "max_abs_diag", "offdiag_mass_ratio")))
                # a step is one FD evaluation: the audit's time over the
                # 4 C^2 evaluations of its C x C block
                walls.append(ms / (4 * rep["c"] ** 2))
                evals += 4 * rep["c"] ** 2
                verdicts.append((name, pname, relerr, ok))
            except (OSError, ValueError, KeyError, IndexError):
                ok, complete = False, False
                verdicts.append((name, pname, None, False))
            failed += not ok
        return {"run_s": run_s, "walls": walls, "attempted": len(calls), "failed": failed,
                "complete": complete, "fd_evals": evals, "verdicts": verdicts,
                "call_ms": [ms for _, _, ms, _, _ in calls]}

    def checks(self, units) -> tuple[int, int]:
        """(parameters audited, parameters that missed) of the seed's audit.
        Every unit repeats the same audit, and summarize() requires the same
        verdicts from each, so a check counts once however many units the
        run's time allowed."""
        return units[0]["attempted"], units[0]["failed"]

    def summarize(self, setup_times, units) -> tuple[dict, bool, dict]:
        walls = [w for u in units for w in u["walls"]]
        correct = (all(u["complete"] for u in units)
                   and len({json.dumps(u["verdicts"]) for u in units}) == 1)
        # one audit's time, from each parameter's median call time over the
        # units: a burst of load that slows a few calls of one audit moves
        # only those calls' medians, where it would move that audit's total
        run_s = sum(statistics.median(ms) for ms in zip(*(u["call_ms"] for u in units))) / 1e3
        metrics = {"setup_s": statistics.median(setup_times),
                   "run_s": run_s,
                   "step_ms.p50": statistics.median(walls),
                   "fd_evals_per_s": units[0]["fd_evals"] / run_s}
        metrics["step_ms.tail"], pct = tail(walls)
        extra = {"tail": {"percentile": pct, "samples": len(walls)}, "units": len(units),
                 "unit_run_s": [u["run_s"] for u in units],
                 "verdicts": [{"model": a, "parameter": b, "rel_err": c, "ok": d}
                              for a, b, c, d in units[0]["verdicts"]]}
        return metrics, correct, extra

    def layers(self, tracer: Tracer, setup_end: int, units) -> dict:
        spans, mark = tracer.spans, setup_end
        traced = [u for u in units if u["traced"]]
        steps = [i for i in range(mark, len(spans)) if spans[i][NAME] == "cli.verify"]
        by_step = sums_by_step(spans, mark)
        n = len(steps)
        total_wall = sum(spans[i][END] - spans[i][START] for i in steps) * 1e3

        def total(key):
            return sum(by_step[spans[s][STEP]][key] for s in steps)

        m = {name: total(key) / n for name, key in (
            ("nn.forward_v_ms", "nn.forward_v"), ("nn.loss_ms", "nn.loss"),
            ("autodiff.backward_ms", "autodiff.backward"),
            ("autodiff.hdiag_ms", "autodiff.hessian_diag_1d"), ("py.gc_ms", "py.gc"),
            ("oracle.fd_block_ms", "oracle.fd_hessian_block_1d"),
            ("oracle.tape_hdiag_ms", "oracle.tape_hdiag"))}
        m["autodiff.hdiag_share"] = total("autodiff.hessian_diag_1d") / total_wall
        m["oracle.fd_share"] = total("oracle.fd_hessian_block_1d") / total_wall
        per_param = defaultdict(list)
        for i in range(mark, len(spans)):
            if spans[i][NAME] == "oracle.fd_hessian_block_1d":
                per_param[self.step_param[spans[i][STEP]]].append(
                    (spans[i][END] - spans[i][START]) * 1e3)
        for key, vals in per_param.items():
            m[f"oracle.fd_block_ms.{key}"] = statistics.median(vals)
        m["oracle.fd_evals"] = sum(
            1 for i in range(mark, len(spans)) if spans[i][NAME] == "oracle.lossfn"
        ) // len(traced)
        for key in ("autodiff.release_share", "optim.step_share", "train.evaluate_share",
                    "train.checkpoint_share", "train.loop_self_share", "data.setup_share"):
            m[key] = 0.0
        m.update(tape_metrics(tracer, mark, m["nn.forward_v_ms"] + m["nn.loss_ms"]))
        m.update(overhead(units))
        return m


def sums_by_step(spans, mark) -> dict:
    """step id -> span name -> total ms of that name's spans in the step."""
    out = defaultdict(lambda: defaultdict(float))
    for i in range(mark, len(spans)):
        step = spans[i][STEP]
        if step is not None:
            out[step][spans[i][NAME]] += (spans[i][END] - spans[i][START]) * 1e3
    return out


def tape_metrics(tracer: Tracer, mark: int, record_ms: float) -> dict:
    rows = [r for r in tracer.tape if r[0] > mark]
    n = len(rows)
    m = {"autodiff.nodes.forward": sum(r[2] for r in rows) / n,
         "autodiff.nodes.backward": sum(r[3] for r in rows) / n,
         "autodiff.tape_mib": sum(sum(r[4].values()) for r in rows) / n / 2**20}
    ops = sorted({op for r in rows for op in r[4]})
    for op in ops:
        m[f"autodiff.tape_mib.{op}"] = sum(r[4].get(op, 0) for r in rows) / n / 2**20
    m["autodiff.us_per_node"] = record_ms * 1e3 / m["autodiff.nodes.forward"]
    return m


def overhead(units) -> dict:
    """Tracing overhead from alternating untraced and traced units: each
    traced unit's step p50 minus the mean p50 of the untraced units beside
    it, so a drift of the host across the run cancels; the median of that
    over the traced units. `trace.noise_ms`, the range of the untraced
    units' p50s, is the run's own spread; an overhead within it is not
    resolved. It needs two untraced units."""
    units = [u for u in units if u["walls"]]
    p50 = [statistics.median(u["walls"]) for u in units]
    diffs = []
    for i, u in enumerate(units):
        beside = [p50[j] for j in (i - 1, i + 1)
                  if 0 <= j < len(units) and not units[j]["traced"]]
        if u["traced"] and beside:
            diffs.append(p50[i] - statistics.fmean(beside))
    untraced = [w for u in units if not u["traced"] for w in u["walls"]]
    m = {"trace.step_ms.p50": statistics.median(w for u in units if u["traced"]
                                                for w in u["walls"]),
         "trace.untraced_step_ms.p50": statistics.median(untraced),
         "trace.overhead_ms": statistics.median(diffs)}
    m["trace.overhead_share"] = m["trace.overhead_ms"] / m["trace.untraced_step_ms.p50"]
    untraced_p50 = [p for p, u in zip(p50, units) if not u["traced"]]
    if len(untraced_p50) > 1:
        m["trace.noise_ms"] = max(untraced_p50) - min(untraced_p50)
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    name, seed, seconds, trace, outdir = sys.argv[1:6]
    seed, seconds, trace, outdir = int(seed), float(seconds), int(trace), Path(outdir)
    tiny = "--tiny" in sys.argv[6:]
    w, _ = spec.WORKLOADS[name]
    kind = TrainingWorkload if isinstance(w, spec.Training) else VerifyWorkload
    work = kind(w, seed, outdir, tiny)

    if not trace:
        setup_times, units = run_phase(seconds, lambda: work.unit(None),
                                       lambda: work.setup_once(None), tiny)
        metrics, correct, extra = work.summarize(setup_times, units)
        attempted, failed = work.checks(units)
        metrics["error_rate"] = failed / attempted
    else:
        tracer = Tracer()
        tracer.install()
        setup = collected(lambda: work.setup_once(tracer))
        setup_times = [setup()]
        for _ in range(setup_reps(setup_times[0], seconds, tiny) - 1):
            setup_times.append(setup())
        setup_end = len(tracer.spans)
        tracer.uninstall()
        _, units = run_phase(seconds, alternating(work, tracer), min_units=2)
        tracer.write(str(outdir / "spans.jsonl"))
        _, correct, extra = work.summarize(setup_times, units)
        metrics = work.layers(tracer, setup_end, units)
        noise = metrics.get("trace.noise_ms")
        # tracing only adds work, so a figure at or below the noise, or
        # below zero, is the host's drift and not the tracer's cost
        extra["overhead_resolved"] = noise is not None and metrics["trace.overhead_ms"] > noise

    attempted, failed = work.checks(units)
    result = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny,
        "correct": correct, "setups": len(setup_times),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": spec.unit_of(k)} for k, v in metrics.items()},
        "env": environment(),
        **extra,
    }
    (outdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
