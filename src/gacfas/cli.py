"""Command-line interface.

Subcommands: train, loo, sweep, landscape, convergence, gradcheck.
Exit codes: 0 success, 1 validation error (bad usage, config, or
preconditions), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datagen, diagnostics, harness
from .config import ConfigError, ConfigValueError, _require_file, _require_index
from .numerics import Prng

PAPER_GAMMA_GRID = "0.0,0.0001,0.0002,0.001,0.002"
PAPER_RHO_GRID = "0.005,0.05,0.1,0.2,0.4"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; route them through the
    validation-error path instead."""

    def error(self, message):
        raise ConfigValueError(message)


def _parse_grid(text: str, name: str):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigValueError(f"--{name}: expected comma-separated numbers, got {text!r}") from exc
    return values


def _refuse_other_seed(output_dir: str, seed: int) -> None:
    """Refuse to train into a directory whose manifest records another seed:
    its files would be overwritten. The same seed overwrites them, as a
    rerun should."""
    path = os.path.join(output_dir, "manifest.json")
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigValueError(f"{path} is not a readable run manifest: {exc}") from exc
    recorded = manifest.get("seed") if isinstance(manifest, dict) else None
    if recorded != seed:
        raise ConfigValueError(
            f"{path} records seed {recorded!r}; train --seed {seed} would overwrite that run's files "
            f"(set a different output_dir for seed {seed})"
        )


def _cmd_train(args) -> int:
    cfg = harness.load_config(args.config)
    _require_index(cfg.held_out, "train")
    if args.seed < 0:
        raise ConfigValueError(f"--seed: expected a non-negative integer, got {args.seed}")
    _refuse_other_seed(cfg.output_dir, args.seed)
    record = harness.run_training(cfg, args.seed)
    paths = harness.write_outputs(record, cfg.output_dir)
    final = record.evals[-1]
    print(
        f"seed {args.seed} held_out {record.manifest['held_out']} step {final.step}: "
        f"hter={final.hter:.4f} auc={final.auc:.4f} tpr95={final.tpr95:.4f} "
        f"train_loss={final.train_loss:.4f} surrogate_gap={final.surrogate_gap:.6f}"
    )
    print(f"wrote {paths['metrics']}")
    return 0


def _cmd_loo(args) -> int:
    cfg = harness.load_config(args.config)
    summary, _ = harness.run_leave_one_out(cfg)
    for row in summary:
        print(
            f"held_out {row['held_out']}: auc={row['auc_mean']:.4f}±{row['auc_std']:.4f} "
            f"hter={row['hter_mean']:.4f}±{row['hter_std']:.4f} "
            f"tpr95={row['tpr95_mean']:.4f}±{row['tpr95_std']:.4f} ({row['n_seeds']} seeds)"
        )
    print(f"wrote {os.path.join(cfg.output_dir, 'loo_summary.csv')}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config)
    gammas = _parse_grid(args.gammas, "gammas")
    rhos = _parse_grid(args.rhos, "rhos")
    cells = harness.run_sweep(cfg, gammas, rhos)
    for cell in cells:
        print(
            f"gamma={cell['gamma']} rho={cell['rho']}: auc={cell['auc_mean']:.4f}±{cell['auc_std']:.4f} "
            f"hter={cell['hter_mean']:.4f}±{cell['hter_std']:.4f}"
        )
    print(f"wrote {os.path.join(cfg.output_dir, 'sweep.csv')}")
    return 0


def _cmd_landscape(args) -> int:
    cfg = harness.load_config(args.config)
    held = _require_index(cfg.held_out, "landscape")
    _require_file(args.checkpoint, "checkpoint")
    params = harness.read_params_bin(args.checkpoint, cfg.model)
    source, _ = datagen.leave_one_out(list(cfg.domains), held)
    batch = source.concatenated()
    grid = diagnostics.landscape_slice(
        cfg.model, params, batch, args.dims, args.radius, args.steps, Prng(cfg.seeds[0], 2)
    )
    out = os.path.join(cfg.output_dir, "landscape.csv")
    harness._atomic_write(out, harness.landscape_csv(grid))
    print(f"center loss {grid.center_loss:.6f}; wrote {out}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = harness.load_config(args.config)
    record, trace = harness.run_convergence(cfg, window=args.window, trace_every=args.trace_every)
    print(
        f"windows={len(trace.t)} fitted_C={trace.fitted_C:.6f} "
        f"exceed_frac_grad={trace.exceed_frac_grad:.4f} exceed_frac_adv={trace.exceed_frac_adv:.4f}"
    )
    print(f"wrote {os.path.join(cfg.output_dir, 'convergence.csv')}")
    return 0


def _cmd_gradcheck(args) -> int:
    passed, worst, errors = harness.finite_difference_suite()
    for i, err in enumerate(errors):
        print(f"model {i}: max relative error {err:.3e}")
    print(f"worst {worst:.3e} ({'PASS' if passed else 'FAIL'} at 1e-5)")
    return 0 if passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="gacfas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one training run", parents=[], add_help=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("loo", help="full leave-one-out rotation over domains and seeds")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_loo)

    p = sub.add_parser("sweep", help="gamma x rho sensitivity grid")
    p.add_argument("--config", required=True)
    p.add_argument("--gammas", default=PAPER_GAMMA_GRID)
    p.add_argument("--rhos", default=PAPER_RHO_GRID)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("landscape", help="loss slice around a saved checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=51)
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("convergence", help="decay-schedule run with a fitted rate curve")
    p.add_argument("--config", required=True)
    p.add_argument("--window", type=int, default=40)
    p.add_argument("--trace-every", type=int, default=5)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check of the model")
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
