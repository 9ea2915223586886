"""Smoke check of the benchmark harness, at tiny sizes (about a minute):

    python3 bench/smoke.py

For every workload it makes one untraced and one traced run and asserts
that every metric named for that workload is reported with its unit, that
the result line carries every metric BENCHMARK.json lists, and that the
traced run has a span for each wrapped call the workload makes. Across
workloads, every wrapped call and the gc pauses must show up. Last, it
checks that the benchmark exits nonzero without a result when the program
is missing, as in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402
from tracing import WRAPPED  # noqa: E402

E2E = {
    "training": ["setup_s", "run_s", "step_ms.p50", "step_ms.tail", "peak_rss_mib",
                 "train_samples_per_s", "final_loss", "test_accuracy", "error_rate"],
    "verify": ["setup_s", "run_s", "step_ms.p50", "step_ms.tail", "peak_rss_mib",
               "fd_evals_per_s", "error_rate"],
}
LAYERS = {
    "training": ["trace.untraced_step_ms.p50", "trace.overhead_share", "data.setup_ms",
                 "data.make_dataset_ms", "autodiff.release_ms", "optim.step_ms",
                 "train.evaluate_ms", "train.checkpoint_ms", "train.loop_self_ms"],
    "verify": ["trace.untraced_step_ms.p50", "trace.overhead_share", "autodiff.hdiag_ms",
               "oracle.fd_block_ms", "oracle.tape_hdiag_ms"],
}
SPANS_COMMON = {"nn.forward_v", "nn.loss", "autodiff.backward"}


def expected_spans(w) -> tuple[set, set]:
    """(span names the traced run must have, span names it must not have)."""
    if isinstance(w, spec.Verify):
        return SPANS_COMMON | {"autodiff.hessian_diag_1d", "oracle.fd_hessian_block_1d",
                               "oracle.tape_hdiag", "oracle.lossfn"}, set()
    want = SPANS_COMMON | {"data.make_dataset", "autodiff.release", "train.evaluate",
                           "train.save_checkpoint", "train.step"}
    if w.data == "digits":
        want.add("data.write_digits_fixture")
    if w.optimizer == "sgdph":
        return want | {"autodiff.hessian_diag_1d", "optim.step"}, set()
    return want | {"optim.sgdm_step"}, {"autodiff.hessian_diag_1d"}


def check_metrics(report: dict, names: list[str]) -> list[str]:
    errors = []
    for name in names:
        got = report["metrics"].get(name)
        if got is None:
            errors.append(f"{name} missing")
        elif got["unit"] != spec.unit_of(name):
            errors.append(f"{name} has unit {got['unit']!r}, not {spec.unit_of(name)!r}")
    try:
        run.result_line(report)
    except KeyError as exc:
        errors.append(str(exc))
    return errors


def check_bare_directory() -> list[str]:
    """A copy of BENCHMARK.json and bench/ alone must fail without a result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    errors = []
    seen_spans = set()
    for name, (w, _) in spec.WORKLOADS.items():
        kind = "verify" if isinstance(w, spec.Verify) else "training"
        plain = run.run_workload(name, 0, 1, 0, tiny=True)
        traced = run.run_workload(name, 0, 1, 1, tiny=True)
        if plain is None or traced is None:
            errors.append(f"{name}: a run failed")
            continue
        errors += [f"{name} trace 0: {e}" for e in check_metrics(plain, E2E[kind])]
        layer_names = spec.listed(1) + LAYERS[kind]
        if isinstance(w, spec.Training) and w.optimizer == "sgdph":
            layer_names.append("autodiff.hdiag_ms")
        errors += [f"{name} trace 1: {e}" for e in check_metrics(traced, layer_names)]
        spans_path = ROOT / Path(traced["path"]).parent / "spans.jsonl"
        names = {json.loads(line)["name"] for line in spans_path.read_text().splitlines()}
        want, forbid = expected_spans(w)
        errors += [f"{name}: no {s} span" for s in sorted(want - names)]
        errors += [f"{name}: unexpected {s} span" for s in sorted(forbid & names)]
        seen_spans |= names
        print(f"{name}: checked", flush=True)
    for span_name in sorted((set(WRAPPED.values()) | {"py.gc"}) - seen_spans):
        errors.append(f"no workload produced a {span_name} span")
    errors += check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("smoke check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
