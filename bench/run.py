"""The sgdph benchmark. Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --write-spec

A run starts the workload in a child process of its own (so its peak RSS
is its own), prints every metric it measured with its unit, and ends with
one JSON line: `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json lists for that --trace value. `--all` runs every workload,
untraced and traced, and prints each table. `--write-spec` regenerates
BENCHMARK.json from bench/spec.py. The full report of a run, with the
environment record, goes to bench/out/<workload>/seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

# a benchmark run must end within 180 s; the child is stopped before that
CHILD_TIMEOUT_S = 170.0


def nproc() -> int:
    """CPUs this process may use; every workload runs with this many BLAS
    threads."""
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False,
                 timeout: float = CHILD_TIMEOUT_S) -> dict | None:
    """Runs one workload in a fresh child; returns its report, or None if
    the child failed or overran."""
    outdir = BENCH / "out" / name / f"seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    threads = nproc()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    cmd = [sys.executable, str(BENCH / "workload.py"), name, str(seed), str(seconds),
           str(trace), str(outdir)] + (["--tiny"] if tiny else [])
    # the child's stdout goes to our stderr, so our last stdout line is the result
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=2)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(f"{name}: stopped after {timeout:.0f} s", file=sys.stderr)
            return None
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = outdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"{name}: workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(result_path.read_text())
    if not trace:
        # ru_maxrss is in KiB on Linux
        report["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024,
                                             "unit": spec.unit_of("peak_rss_mib")}
    report["env"].update({
        "nproc": threads, "blas_threads": threads, "python": platform.python_version(),
        "git_commit": git_commit(), "seconds": seconds,
    })
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    report["path"] = str(outdir.relative_to(ROOT) / "report.json")
    return report


def print_table(report: dict) -> None:
    order = [row[0] for row in spec.END_TO_END + spec.PER_LAYER]
    metrics = report["metrics"]
    names = sorted(metrics, key=lambda k: (order.index(k) if k in order else len(order), k))
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"  ({report['units']} units)")
    for key in names:
        print(f"  {key:<40} {metrics[key]['value']:>14.6g} {metrics[key]['unit']}")
    print(f"  checks: {report['failed']} of {report['attempted']} failed; "
          f"outputs {'correct' if report['correct'] else 'NOT CORRECT'}")
    if report.get("tail"):
        print(f"  step_ms.tail is p{report['tail']['percentile']:.1f} "
              f"of {report['tail']['samples']} samples")
    if "overhead_resolved" in report:
        print("  trace.overhead_ms is " + ("resolved" if report["overhead_resolved"] else
              "not resolved: negative, or within the run's own spread "
                                                    "(trace.noise_ms)"))
    if report.get("fingerprint"):
        for key, value in report["fingerprint"].items():
            print(f"  {key}: {value}")
    for verdict in report.get("verdicts", []):
        if not verdict["ok"]:
            print(f"  verify miss: {verdict['model']} {verdict['parameter']} "
                  f"rel err {verdict['rel_err']}")
    for error in report.get("errors", []):
        print(f"  raised: {error.strip().splitlines()[-1]}")
    print(f"  report: {report['path']}")


def result_line(report: dict) -> str:
    metrics = report["metrics"]
    missing = [k for k in spec.listed(report["trace"]) if k not in metrics]
    if missing:
        raise KeyError(f"{report['workload']} did not report {missing}")
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: metrics[k] for k in spec.listed(report["trace"])},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sgdph benchmark")
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "sgdph" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'sgdph'} is missing", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if args.all:
        reports = []
        for name in spec.WORKLOADS:
            for trace in (0, 1):
                report = run_workload(name, args.seed, args.seconds, trace)
                if report is None:
                    return 1
                print_table(report)
                reports.append(report)
        summary = BENCH / "out" / f"all-seed{args.seed}.json"
        summary.write_text(json.dumps(reports, indent=2) + "\n")
        print(f"all reports: {summary.relative_to(ROOT)}")
        return 0 if all(r["correct"] for r in reports) else 1

    if args.workload is None:
        ap.error("--workload is required unless --all or --write-spec is given")
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        return 1
    line = result_line(report)
    print_table(report)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
