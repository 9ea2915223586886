"""Command-line entry point: train / verify / compare / gradcheck.

Exit codes: 0 success, 1 validation or tolerance failure, 2 bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import autodiff as ad, nn, oracle, train as training
from .config import ConfigError, load_config
from .data import IdxFormatError
from .tensor import Rng

ROWSUM_TOL = 1e-5
GRADCHECK_TOL = 1e-5


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgdph")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training config")
    p_train.add_argument("--config", default="", help="key=value config file")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config field (repeatable)")

    p_verify = sub.add_parser("verify", help="FD diagonality audit of 1-D parameter blocks")
    p_verify.add_argument("--model", default="bn-terminal")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--param", default="", help="restrict to one parameter name")
    p_verify.add_argument("--out", default="", help="write the JSON report here instead of stdout")

    p_cmp = sub.add_parser("compare", help="train two optimizers on one setup, emit CSV")
    p_cmp.add_argument("--config", default="", help="config for run A")
    p_cmp.add_argument("--config-b", default="", help="config for run B "
                       "(default: run A with the optimizer flipped)")
    p_cmp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override applied to both runs")
    p_cmp.add_argument("--out", default="compare.csv")

    p_gc = sub.add_parser("gradcheck", help="FD gradient check of every layer type")
    p_gc.add_argument("--seeds", type=_positive_int, default=3, help="seeds per layer case")
    p_gc.add_argument("--tol", type=_tolerance, default=GRADCHECK_TOL)
    return parser


def _cmd_train(args) -> int:
    cfg = load_config(args.config, getattr(args, "set"))
    result = training.train(cfg)
    print(f"wrote {cfg.out_metrics} and {cfg.out_checkpoint}")
    print(f"final test accuracy: {result.final_test_accuracy:.4f}")
    return 0


def _verify_input(model_name: str, seed: int):
    if model_name.startswith("cnn"):
        in_shape, n_classes, batch = (1, 10, 10), 4, 8
    else:
        in_shape, n_classes, batch = (6,), 4, 16
    model = nn.build_model(model_name, Rng(seed), in_shape=in_shape, n_classes=n_classes)
    x = Rng(seed ^ 0x5F5E1).normal((batch,) + in_shape)
    if model_name == "bn-terminal":
        loss, labels = "sos", None
    else:
        loss, labels = "ce", Rng(seed ^ 0xFACE).integers(0, n_classes, (batch,))
    return model, x, loss, labels


def _cmd_verify(args) -> int:
    model, x, loss, labels = _verify_input(args.model, args.seed)
    one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
    if args.param:
        if args.param not in one_d:
            print(f"no 1-D parameter named {args.param!r} in {args.model}", file=sys.stderr)
            return 1
        one_d = [args.param]
    # terminal-BN blocks are exactly quadratic in gamma/beta, so a large FD
    # step is exact and beats roundoff; deep blocks use the default step
    h = 0.25 if args.model == "bn-terminal" else oracle.FD_STEP
    # one tape for every audited parameter: each vector has the bits of a
    # tape that retains its parameter alone
    extracted = oracle.tape_hdiag(model, x, tuple(one_d), loss, labels)
    reports = []
    passed = True
    for name in one_d:
        rep = oracle.diagonality_report(model, x, name, extracted[name], h, loss, labels)
        ok = rep.extracted_vs_rowsum_relerr <= ROWSUM_TOL
        entry = dataclasses.asdict(rep)
        entry["rowsum_ok"] = ok
        if args.model == "bn-terminal":
            bound = 1e-8 * (1.0 + rep.max_abs_diag)
            entry["diagonal_ok"] = rep.max_abs_offdiag <= bound
            ok = ok and entry["diagonal_ok"]
        passed = passed and ok
        reports.append(entry)
    doc = json.dumps({"model": args.model, "seed": args.seed,
                      "passed": passed, "reports": reports}, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(doc + "\n")
    else:
        print(doc)
    return 0 if passed else 1


def _cmd_compare(args) -> int:
    cfg_a = load_config(args.config, getattr(args, "set"))
    if args.config_b:
        cfg_b = load_config(args.config_b, getattr(args, "set"))
    else:
        flipped = "sgdm" if cfg_a.optimizer == "sgdph" else "sgdph"
        cfg_b = dataclasses.replace(cfg_a, optimizer=flipped)
    result = training.compare(cfg_a, cfg_b, args.out)
    print(f"wrote {result.csv_path}")
    print(f"final accuracies: a={result.rows[-1][1]:.4f} b={result.rows[-1][2]:.4f} "
          f"delta={result.delta:+.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    seeds = range(args.seeds)
    worst = oracle.gradcheck_layers(seeds)
    failed = {key for key, err in worst.items() if not err <= args.tol}  # NaN fails
    for key in sorted(worst):
        print(f"{key}: {worst[key]:.3e}{'  FAIL' if key in failed else ''}")
    print(f"max: {np.max(list(worst.values())):.3e} (tol {args.tol:.0e})")
    return 1 if failed else 0


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
    except (ConfigError, IdxFormatError, OSError,
            training.TrainAbortError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
