"""The three benchmark workloads: the config each round hands to the CLI, the
CLI calls it makes, and the operations it counts.

Every input comes from the workload seed alone. The domain geometry is the
package's default four-domain task (two-moons at 0/20/40/60 degrees, noise
0.15, 2,000 rows each); the seed picks the domain realizations and the run
seeds, so two seeds are two different data sets with the same make-up.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

ROTATIONS_DEG = (0.0, 20.0, 40.0, 60.0)
NOISE_SIGMA = 0.15
DOMAIN_SAMPLES = 2000
LAYER_SIZES = [2, 16, 16, 2]
LOO_MODES = ("erm", "sam_whole", "sam_domain", "reg_domain_perturb")
CONVERGENCE_WINDOW = 40
CONVERGENCE_TRACE_EVERY = 5


def domains(seed: int) -> list[dict]:
    return [
        {
            "rotation": math.radians(deg),
            "translation": [0.0, 0.0],
            "noise_sigma": NOISE_SIGMA,
            "n_samples": DOMAIN_SAMPLES,
            "seed": 4 * seed + i,
        }
        for i, deg in enumerate(ROTATIONS_DEG)
    ]


def _config(seed: int, output_dir: str, **fields) -> dict:
    cfg = {
        "model": {"layer_sizes": LAYER_SIZES, "activation": "tanh"},
        "domains": domains(seed),
        "per_domain_batch": 32,
        "diagnostics_every": 10,
        "output_dir": output_dir,
    }
    cfg.update(fields)
    return cfg


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its config, its argv, and its operations, each
    an (output directory, held-out domain, run seed) cell."""

    config: dict
    argv: tuple[str, ...]
    cells: tuple[tuple[str, int, int], ...]

    @property
    def steps(self) -> int:
        return self.config["steps"] * len(self.cells)


def _train_gac_fas(seed: int, out: str) -> list[Call]:
    cfg = _config(
        seed, out, held_out=3, seeds=[seed], steps=3000, eval_every=1500, eval_window=1,
        optimizer={"mode": "gac_fas", "eta0": 0.1, "rho": 0.1, "gamma": 0.0002},
    )
    return [Call(cfg, ("train", "--seed", str(seed)), ((out, 3, seed),))]


def _convergence_fullset(seed: int, out: str) -> list[Call]:
    # C7's settings (theorem-1 schedules, eta0 0.3, window 40, trace_every 5)
    # over 1,000 steps instead of 20,000: five windows of 200 steps.
    cfg = _config(
        seed, out, held_out=3, seeds=[seed], steps=1000, eval_every=1000, eval_window=1,
        optimizer={"mode": "gac_fas", "eta0": 0.3, "rho": 0.1, "gamma": 0.0002},
    )
    argv = ("convergence", "--window", str(CONVERGENCE_WINDOW), "--trace-every", str(CONVERGENCE_TRACE_EVERY))
    return [Call(cfg, argv, ((os.path.join(out, "convergence_run"), 3, seed),))]


def _loo_baselines(seed: int, out: str) -> list[Call]:
    seeds = [2 * seed, 2 * seed + 1]
    calls = []
    for mode in LOO_MODES:
        mode_out = os.path.join(out, mode)
        cfg = _config(
            seed, mode_out, held_out="all", seeds=seeds, steps=100, eval_every=10, eval_window=5,
            optimizer={"mode": mode, "eta0": 0.1, "rho": 0.1, "gamma": 0.0002},
        )
        cells = tuple(
            (os.path.join(mode_out, f"held{h}_seed{s}"), h, s)
            for h in range(len(ROTATIONS_DEG))
            for s in seeds
        )
        calls.append(Call(cfg, ("loo",), cells))
    return calls


WORKLOADS = {
    "train_gac_fas": _train_gac_fas,
    "convergence_fullset": _convergence_fullset,
    "loo_baselines": _loo_baselines,
}


def calls_for(workload: str, seed: int, out: str) -> list[Call]:
    return WORKLOADS[workload](seed, out)


def write_config(call: Call, path: str) -> list[str]:
    """Write the call's config to path; return the full CLI argv."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(call.config, fh, indent=2)
    command, *rest = call.argv
    return [command, "--config", path, *rest]
