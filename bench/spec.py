"""What the benchmark runs and reports: workloads, metric names and units,
and the regression bounds. BENCHMARK.json is generated from this module
(`python3 bench/run.py --write-spec`), so the two cannot drift apart.

Only metrics that every workload emits are listed in BENCHMARK.json, since
a run must report each listed metric. Metrics that exist on some workloads
only (samples/s, FD evaluations/s, loss, accuracy, error rate, per-parameter
and per-op splits, per-layer times in ms) are printed and written to the run
report; the per-layer ones also appear in BENCHMARK.json as shares, which
are 0 where a workload never calls the layer.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 25
BATCH = 100

# Set-up repeats in a run: as many as fit in SETUP_SHARE of --seconds at the
# first set-up's time, within [SETUP_REPS_MIN, SETUP_REPS_MAX]. The floor
# gives a median that one slow set-up cannot move; the cap bounds the count
# where set-up takes milliseconds (mlp-bn, verify). At 25 s this comes to 3
# on cnn-bn.sgdph (about 1.8 s a set-up), 3 to 8 on cnn-bn.sgdm (0.4 s, but
# the slower first set-up sets the count) and 21 on mlp-bn.sgdph and verify
# (5 to 20 ms).
SETUP_SHARE = 0.1
SETUP_REPS_MIN = 3
SETUP_REPS_MAX = 21


@dataclass(frozen=True)
class Training:
    """One `train.train` call per measured unit. digits: `n` examples per
    split of the generated 28x28 IDX fixture; blobs: `n` examples in all,
    split 80/20 by the generator."""

    model: str
    optimizer: str
    data: str
    n: int
    epochs: int
    tau: float
    eta: float
    tiny_n: int
    tiny_epochs: int


@dataclass(frozen=True)
class Verify:
    """One measured unit is a full `sgdph verify` audit of every 1-D
    parameter of each model, run as one CLI call per parameter."""

    models: tuple


WORKLOADS = {
    # the criterion 9 recipe (f32, batch 100, tau 0.01, eta 0.005), cut to
    # 300 examples and one epoch per unit so several units fit in a run
    "cnn-bn.sgdph": (
        Training("cnn-bn", "sgdph", "digits", 300, 1, 0.01, 0.005, 100, 1),
        "curvature sweeps over activation-sized arrays dominate the step; "
        "every sweep, tape-memory and dead-bias change shows here",
    ),
    "cnn-bn.sgdm": (
        Training("cnn-bn", "sgdm", "digits", 300, 1, 0.1, 0.0005, 100, 1),
        "same data, model and tape as cnn-bn.sgdph but no recorded backward "
        "and no curvature sweep: a sweep-only change should not move it",
    ),
    # the criterion 8 blobs recipe, cut to 50 of its 200 epochs per unit so
    # that about twenty units fit in a run and run_s is a median of many
    "mlp-bn.sgdph": (
        Training("mlp-bn", "sgdph", "blobs", 1000, 50, 0.01, 0.005, 250, 2),
        "tiny arrays, about a hundred tape nodes a step: per-node Python "
        "dispatch, the optimizer and the metrics writer dominate",
    ),
    "verify": (
        Verify(("cnn-bn", "cnn-wn")),
        "desk-scale FD audit of every 1-D parameter of cnn-bn and cnn-wn: "
        "thousands of forward_np evaluations, the oracle layer's workload",
    ),
}

# (name, unit, better, bound); bound None means printed and reported only
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("step_ms.p50", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("step_ms.tail", "ms", "lower", None),
    ("train_samples_per_s", "samples/s", "higher", None),
    ("fd_evals_per_s", "evals/s", "higher", None),
    ("final_loss", "nats", "lower", None),
    ("test_accuracy", "fraction", "higher", None),
    ("error_rate", "fraction", "lower", None),
]

# (name, unit, better, listed in BENCHMARK.json)
PER_LAYER = [
    ("trace.step_ms.p50", "ms", "lower", True),
    ("trace.untraced_step_ms.p50", "ms", "lower", False),
    ("trace.overhead_ms", "ms", "lower", True),
    ("trace.overhead_share", "share", "lower", False),
    ("trace.noise_ms", "ms", "lower", False),
    ("data.setup_ms", "ms", "lower", False),
    ("data.setup_share", "share", "lower", True),
    ("data.make_dataset_ms", "ms", "lower", False),
    ("nn.forward_v_ms", "ms", "lower", True),
    ("nn.loss_ms", "ms", "lower", True),
    ("autodiff.backward_ms", "ms", "lower", True),
    ("autodiff.hdiag_ms", "ms", "lower", False),
    ("autodiff.hdiag_share", "share", "lower", True),
    ("autodiff.release_ms", "ms", "lower", False),
    ("autodiff.release_share", "share", "lower", True),
    ("autodiff.nodes.forward", "count", "lower", True),
    ("autodiff.nodes.backward", "count", "lower", True),
    ("autodiff.us_per_node", "us", "lower", True),
    ("autodiff.tape_mib", "MiB", "lower", True),
    ("optim.step_ms", "ms", "lower", False),
    ("optim.step_share", "share", "lower", True),
    ("train.evaluate_ms", "ms", "lower", False),
    ("train.evaluate_share", "share", "lower", True),
    ("train.checkpoint_ms", "ms", "lower", False),
    ("train.checkpoint_share", "share", "lower", True),
    ("train.loop_self_ms", "ms", "lower", False),
    ("train.loop_self_share", "share", "lower", True),
    ("oracle.fd_block_ms", "ms", "lower", False),
    ("oracle.fd_share", "share", "lower", True),
    ("oracle.tape_hdiag_ms", "ms", "lower", False),
    ("oracle.fd_evals", "count", "lower", True),
    ("py.gc_ms", "ms", "lower", True),
]

# metric-name prefixes with one entry per parameter or per tape op
PER_KEY_UNITS = {
    "autodiff.hdiag_ms.": "ms",
    "autodiff.tape_mib.": "MiB",
    "oracle.fd_block_ms.": "ms",
}


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER):
        for row in table:
            if row[0] == name:
                return row[1]
    for prefix, unit in PER_KEY_UNITS.items():
        if name.startswith(prefix):
            return unit
    raise KeyError(name)


def listed(trace: int) -> list[str]:
    """The metric names a run with this --trace value must print last."""
    if trace:
        return [name for name, _, _, keep in PER_LAYER if keep]
    return [name for name, _, _, bound in END_TO_END if bound is not None]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END if bound is not None
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, keep in PER_LAYER if keep
        ],
    }
