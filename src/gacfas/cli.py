"""Command-line interface.

Subcommands: train, loo, sweep, landscape, convergence, gradcheck.
Exit codes: 0 success, 1 validation error (bad usage, config, or
preconditions), 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .config import ConfigError, ConfigValueError

PAPER_GAMMA_GRID = "0.0,0.0001,0.0002,0.001,0.002"
PAPER_RHO_GRID = "0.005,0.05,0.1,0.2,0.4"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; route them through the
    validation-error path instead."""

    def error(self, message):
        raise ConfigValueError(message)


def _parse_grid(text: str, name: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigValueError(f"--{name}: expected comma-separated numbers, got {text!r}") from exc


def _cmd_train(args, cfg) -> int:
    record, paths = harness.train_and_write(cfg, args.seed)
    final = record.evals[-1]
    print(
        f"seed {args.seed} held_out {record.manifest['held_out']} step {final.step}: "
        f"hter={final.hter:.4f} auc={final.auc:.4f} tpr95={final.tpr95:.4f} "
        f"train_loss={final.train_loss:.4f} surrogate_gap={final.surrogate_gap:.6f}"
    )
    print(f"wrote {paths['metrics']}")
    return 0


def _cmd_loo(args, cfg) -> int:
    summary, _ = harness.run_leave_one_out(cfg)
    for row in summary:
        print(
            f"held_out {row['held_out']}: auc={row['auc_mean']:.4f}±{row['auc_std']:.4f} "
            f"hter={row['hter_mean']:.4f}±{row['hter_std']:.4f} "
            f"tpr95={row['tpr95_mean']:.4f}±{row['tpr95_std']:.4f} ({row['n_seeds']} seeds)"
        )
    print(f"wrote {os.path.join(cfg.output_dir, 'loo_summary.csv')}")
    return 0


def _cmd_sweep(args, cfg) -> int:
    cells = harness.run_sweep(cfg, _parse_grid(args.gammas, "gammas"), _parse_grid(args.rhos, "rhos"))
    for cell in cells:
        print(
            f"gamma={cell['gamma']} rho={cell['rho']}: auc={cell['auc_mean']:.4f}±{cell['auc_std']:.4f} "
            f"hter={cell['hter_mean']:.4f}±{cell['hter_std']:.4f}"
        )
    print(f"wrote {os.path.join(cfg.output_dir, 'sweep.csv')}")
    return 0


def _cmd_landscape(args, cfg) -> int:
    grid, path = harness.run_landscape(cfg, args.checkpoint, args.dims, args.radius, args.steps)
    print(f"center loss {grid.center_loss:.6f}; wrote {path}")
    return 0


def _cmd_convergence(args, cfg) -> int:
    record, trace = harness.run_convergence(cfg, window=args.window, trace_every=args.trace_every)
    print(
        f"windows={len(trace.t)} fitted_C={trace.fitted_C:.6f} "
        f"exceed_frac_grad={trace.exceed_frac_grad:.4f} exceed_frac_adv={trace.exceed_frac_adv:.4f}"
    )
    print(f"wrote {os.path.join(cfg.output_dir, 'convergence.csv')}")
    return 0


def _cmd_gradcheck(args, cfg) -> int:
    passed, worst, errors = harness.finite_difference_suite()
    for i, err in enumerate(errors):
        print(f"model {i}: max relative error {err:.3e}")
    print(f"worst {worst:.3e} ({'PASS' if passed else 'FAIL'} at 1e-5)")
    return 0 if passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="gacfas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    p = sub.add_parser("train", help="one training run", parents=[config])
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("loo", help="full leave-one-out rotation over domains and seeds", parents=[config])
    p.set_defaults(fn=_cmd_loo)

    p = sub.add_parser("sweep", help="gamma x rho sensitivity grid", parents=[config])
    p.add_argument("--gammas", default=PAPER_GAMMA_GRID)
    p.add_argument("--rhos", default=PAPER_RHO_GRID)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("landscape", help="loss slice around a saved checkpoint", parents=[config])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=51)
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("convergence", help="decay-schedule run with a fitted rate curve", parents=[config])
    p.add_argument("--window", type=int, default=40)
    p.add_argument("--trace-every", type=int, default=5)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check of the model")
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """A subcommand with --config loads it, runs harness.preflight, then one
    harness driver, and prints what it did."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = None
        if "config" in args:
            cfg = harness.load_config(args.config)
            harness.preflight(cfg, getattr(args, "seed", None))
        return args.fn(args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
