"""Output pins: sha256 of the files a run writes, for every step mode.

Speed work on the model, the optimizers, the metrics or the harness must
change how values are computed, never the values. These digests hold the
byte-exact metrics.csv and diagnostics.csv of a small run in each of the
five modes (plus a relu run), and the full-set stream of a short
convergence run, so any change to an output bit fails here.

The digests are those of one numpy build (see the determinism contract in
gacfas.numerics). A change that deliberately alters the floating-point
accumulation order may re-pin them, and must say so where it is recorded.
"""

import hashlib
from pathlib import Path

import pytest

from gacfas import diagnostics
from gacfas.datagen import DomainSpec
from gacfas.harness import (
    ExperimentConfig,
    diagnostics_csv,
    metrics_csv,
    run_convergence,
    run_training,
    write_outputs,
)
from gacfas.model import MlpSpec
from gacfas.optim import OptimizerConfig


def pin_config(mode: str, activation: str = "tanh", **overrides) -> ExperimentConfig:
    base = dict(
        model=MlpSpec((2, 6, 5, 2), activation),
        domains=tuple(
            DomainSpec(rotation=0.35 * i, noise_sigma=0.15, n_samples=60, seed=i) for i in range(4)
        ),
        held_out=3,
        optimizer=OptimizerConfig(mode=mode, eta0=0.2, rho=0.1, gamma=0.002),
        steps=40,
        per_domain_batch=12,
        seeds=(0,),
        output_dir="unused",
        eval_every=20,
        eval_window=2,
        diagnostics_every=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


RUN_PINS = {
    ("erm", "tanh"): (
        "3bbbf238acf4f2a592f62902f3a9cea51512503f6093e4aebe9008e5305a42bc",
        "ee72e3293e018366f24443d1a537405f4001566f5e9f0abc6045cbe7e1fb39b6",
    ),
    ("sam_whole", "tanh"): (
        "78ae616d54764d3c0bbf23969a01ee5e32f1dc268a34214d019b4f427da8b7ae",
        "7c4cfd1253b013ae5a394276240715f7ce2ce8c4c7015db71097a4982f804620",
    ),
    ("sam_domain", "tanh"): (
        "3953b8ec4db4099d3b040787d573303d1e7ebfe5a9f8fcb7f6fa4803eda25035",
        "a62b28de7516831c789e0674be37438eab75cd10f7fc543a2e6f87ad40f104aa",
    ),
    ("gac_fas", "tanh"): (
        "50fd4cc4eeb3af740f7bfe0269835c99aceaba645bcce092e080cb79ef3d5726",
        "36eea15c15a53a3218b4cd2bfa9cf9c2bf6da2e414aa879ed47a37b31939c700",
    ),
    ("reg_domain_perturb", "tanh"): (
        "aeb4d618198600667c281bde35304203efdadfe48fd4a41dc8d87ab5e472e685",
        "6a8278c016077cb4d18dfc2117540d9bb9b28a131087a05f2612977919679cff",
    ),
    ("gac_fas", "relu"): (
        "56da5b178ebbdda12d316b694dce0ff3eeff0b41a4c6edb89b61694dba56b7f7",
        "936d5f728c9b0501f27996f24b44237021c48a555f8e7b7ce4506734ab3fd226",
    ),
}

CONVERGENCE_PINS = (
    "f61ba4b823a41129f4d5e783eb374083a7d3dc961ab03ec1db0addae015c5d5b",
    "dc8294b39ef1906db4ba000183f8487a5f0cb24f820e67b1b334ef530b1a762c",
    "3eac06438e8b339adbf9572819073990d77ba8c7e3b91195013e58dc59110708",
)


@pytest.mark.parametrize("mode,activation", sorted(RUN_PINS))
def test_run_outputs_match_pinned_digests(tmp_path, mode, activation):
    record = run_training(pin_config(mode, activation), seed=3)
    paths = write_outputs(record, str(tmp_path))
    written = tuple(
        hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest() for name in ("metrics", "diagnostics")
    )
    assert written == RUN_PINS[(mode, activation)]


def test_convergence_stream_matches_pinned_digests():
    cfg = pin_config("gac_fas", steps=60, eval_every=30, eval_window=1)
    record, trace = run_convergence(cfg, window=3, trace_every=2, write=False)
    got = (
        _sha(metrics_csv(record)),
        _sha(diagnostics_csv(record)),
        _sha(diagnostics.convergence_csv(trace)),
    )
    assert got == CONVERGENCE_PINS
