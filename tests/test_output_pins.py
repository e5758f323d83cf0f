"""Output pins: sha256 of the files the harness and the CLI write.

Speed and design work on the model, the optimizers, the metrics or the
harness must change how values are computed, never the values or their
text. These digests hold the byte-exact:

- metrics.csv and diagnostics.csv of a small run in each of the five modes
  (plus a relu run), of the same runs with the surrogate gap untracked and
  of the same runs on a "step" schedule, and the manifest.json of the
  gac_fas run;
- metrics, diagnostics and convergence tables of a short convergence run,
  and the files a written convergence run leaves: convergence.csv and
  convergence_run/manifest.json, metrics.csv, diagnostics.csv, params.bin,
  with the gap tracked and untracked;
- loo_runs.csv, loo_summary.csv and loo_summary.json of a two-seed
  leave-one-out rotation;
- sweep.csv of a two-seed 2 x 2 gamma x rho sweep;
- landscape.csv of a 1-D and a 2-D `gacfas landscape` slice.

Manifests echo output_dir, so the runs that write under it do so from a
relative output_dir inside the test's own directory.

The digests are those of one numpy build (see the determinism contract in
gacfas.numerics). A change that deliberately alters the floating-point
accumulation order may re-pin them, and must say so where it is recorded.
"""

import hashlib
from pathlib import Path

import pytest

from gacfas import cli
from gacfas.datagen import DomainSpec
from gacfas.config import ExperimentConfig, config_to_json
from gacfas.harness import (
    convergence_csv,
    diagnostics_csv,
    metrics_csv,
    run_convergence,
    run_leave_one_out,
    run_sweep,
    run_training,
    write_outputs,
)
from gacfas.model import MlpSpec
from gacfas.optim import MODES, OptimizerConfig


def pin_config(mode: str, activation: str = "tanh", opt=None, **overrides) -> ExperimentConfig:
    """The pinned runs' config; opt holds extra OptimizerConfig fields."""
    base = dict(
        model=MlpSpec((2, 6, 5, 2), activation),
        domains=tuple(
            DomainSpec(rotation=0.35 * i, noise_sigma=0.15, n_samples=60, seed=i) for i in range(4)
        ),
        held_out=3,
        optimizer=OptimizerConfig(mode=mode, eta0=0.2, rho=0.1, gamma=0.002, **(opt or {})),
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


def _digests(root, names) -> dict:
    return {name: hashlib.sha256((Path(root) / name).read_bytes()).hexdigest() for name in names}


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


def _run_digests(cfg: ExperimentConfig, out_dir) -> tuple:
    paths = write_outputs(run_training(cfg, seed=3), str(out_dir))
    return tuple(hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest() for name in ("metrics", "diagnostics"))


@pytest.mark.parametrize("mode,activation", sorted(RUN_PINS))
def test_run_outputs_match_pinned_digests(tmp_path, mode, activation):
    assert _run_digests(pin_config(mode, activation), tmp_path) == RUN_PINS[(mode, activation)]


UNTRACKED_GAP_RUN_PINS = {
    "erm": (
        "995305a5aaa6b6925eafee3b86ae139cd9fc7237b3b014331b5e3fe1df807242",
        "7f26c0883e819ab3eb93d52d71f8649185fed04226045d28a95f38b0dfd032a9",
    ),
    "sam_whole": (
        "052f79f9d2087103b3cad72fb8e1406064df1feb3e2b5053094f19971203d526",
        "043dfd070e0a194641c9a0301a9f547116f8aaa4ebd56d43633f681cce203c8b",
    ),
    "sam_domain": (
        "6b1cfd46a1416df69ec9248b9b9b1de0b7cb17123890f514869511d0aa5d07e9",
        "e95d43a38fac94bebd808430b84d73ad8f0211f70c3619067d3ea05229cc3fcf",
    ),
    "gac_fas": (
        "ddc8f22af538e9604a37c0390b23af5d511fc6d675887f5958e836b4f154ce67",
        "3f01b227d8a2497b5bac60d63f1b79c4e451a95f1786dd2564958616476a2645",
    ),
    "reg_domain_perturb": (
        "e70d4bca7241ae244ae8a58b2da900024050ab39ef066d08cae3d795cda350b3",
        "45dfd1f6f6aa3f217942eefc3a0188e3f8cea96d66c91e9fa2e176fdbc133146",
    ),
}


@pytest.mark.parametrize("mode", MODES)
def test_untracked_gap_run_outputs_match_pinned_digests(tmp_path, mode):
    cfg = pin_config(mode, opt={"track_surrogate_gap": False})
    assert _run_digests(cfg, tmp_path) == UNTRACKED_GAP_RUN_PINS[mode]


STEP_SCHEDULE_RUN_PINS = {
    "erm": (
        "e155c3ce22f2ee26a9b50fa2d2197ddbc4c5cc37f65af880fbdcf8d8cb5a8e3e",
        "0256c12ea901c95f23740c5fd299b2bf4bb07fb786f8a48637b758bdc7dc1a3a",
    ),
    "sam_whole": (
        "7308563b9dfb88251b10348d236943e31d69e59b82caa7dbdf5edd222c6cb5dd",
        "f090d2d98eabbd6d63806168f968cc22a3a5644e63d80184ccdf8702da7bbc55",
    ),
    "sam_domain": (
        "3dfe206f99c373d70cd3191771e1d954579d91f00d8ea49476e1bca0d8c49af9",
        "f47f753053f56d6043d1d99327101098b060cddf21e85eddadb959c947863ea9",
    ),
    "gac_fas": (
        "4fdc650e472f3bae93688933ca6838b1bc520846d62c69e3cee84951c379eb77",
        "a5fca61301ba4eeead25523ce37af09ce438447bbbdd848baa70c6fdbdf4e626",
    ),
    "reg_domain_perturb": (
        "d3088e29c4ba2e606064cb671ab6db1df3a9ae2800c1901e41a315bfbc873107",
        "7b9d9e3e5ba38d43a59d8e5f34c37fa2542c36b775db7e9989820cbc3a1af3c6",
    ),
}


@pytest.mark.parametrize("mode", MODES)
def test_step_schedule_run_outputs_match_pinned_digests(tmp_path, mode):
    # 5 steps per epoch: eta, rho and gamma halve every 10 of the 40 steps.
    cfg = pin_config(mode, opt={"schedule": "step", "step_period_epochs": 2, "step_factor": 0.5})
    assert _run_digests(cfg, tmp_path) == STEP_SCHEDULE_RUN_PINS[mode]


def test_convergence_stream_matches_pinned_digests(tmp_path):
    cfg = pin_config("gac_fas", steps=60, eval_every=30, eval_window=1, output_dir=str(tmp_path))
    record, trace = run_convergence(cfg, window=3, trace_every=2)
    got = (
        _sha(metrics_csv(record)),
        _sha(diagnostics_csv(record)),
        _sha(convergence_csv(trace)),
    )
    assert got == CONVERGENCE_PINS


TRAIN_MANIFEST_PIN = "c979d459daa5fb79068bbc8cc737f2ee75679b3641794e62f2bbfad0bf956893"


def test_train_manifest_matches_pinned_digest(tmp_path):
    paths = write_outputs(run_training(pin_config("gac_fas"), seed=3), str(tmp_path))
    assert _digests(tmp_path, ["manifest.json"]) == {"manifest.json": TRAIN_MANIFEST_PIN}
    assert Path(paths["manifest"]) == tmp_path / "manifest.json"


CONVERGENCE_FILE_PINS = {
    "convergence.csv": "3eac06438e8b339adbf9572819073990d77ba8c7e3b91195013e58dc59110708",
    "convergence_run/manifest.json": "6b3048ebf03bd007fac3d61ecaaac455e8023febce3ce82e5e47b5329a9c8f5a",
    "convergence_run/metrics.csv": "f61ba4b823a41129f4d5e783eb374083a7d3dc961ab03ec1db0addae015c5d5b",
    "convergence_run/diagnostics.csv": "dc8294b39ef1906db4ba000183f8487a5f0cb24f820e67b1b334ef530b1a762c",
    "convergence_run/params.bin": "e33b9f95a6b3184a2f0594fd8d4991917db1082424043dc6f006b4c490388717",
}


def test_written_convergence_run_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = pin_config("gac_fas", steps=60, eval_every=30, eval_window=1, output_dir="conv")
    run_convergence(cfg, window=3, trace_every=2)
    assert _digests("conv", CONVERGENCE_FILE_PINS) == CONVERGENCE_FILE_PINS


# The metrics' gap column reads nan and the manifest echoes the flag; the
# full-set diagnostics still carry the tracked gap, so diagnostics.csv,
# convergence.csv and params.bin keep the tracked run's digests.
UNTRACKED_GAP_CONVERGENCE_FILE_PINS = {
    **CONVERGENCE_FILE_PINS,
    "convergence_run/manifest.json": "d73c111947355ccaac4d0abc44de69e836d948cd1479cfd46d91e90fe83da450",
    "convergence_run/metrics.csv": "d96f7287d89e375b8f3a3942e6f6838a8687f8295a4a33df5a2ffbe2bb552237",
}


def test_written_convergence_run_with_the_gap_untracked_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = pin_config(
        "gac_fas", opt={"track_surrogate_gap": False}, steps=60, eval_every=30, eval_window=1, output_dir="conv"
    )
    run_convergence(cfg, window=3, trace_every=2)
    assert _digests("conv", UNTRACKED_GAP_CONVERGENCE_FILE_PINS) == UNTRACKED_GAP_CONVERGENCE_FILE_PINS


LOO_PINS = {
    "loo_runs.csv": "aac3ff1232d4c9f5abf15ed26cc8c3fdaec144d52a0fe637b59fd5d08f466ea5",
    "loo_summary.csv": "aa57352643a9350a1e0e7dfcb68f8a1ab3a012761fef890a6cf3f10dee88cdfa",
    "loo_summary.json": "0a0a0aca9a0d204d549b9553bb608fd11f940ebdf66b3fe59f9bcbfee7b80608",
}


def test_leave_one_out_tables_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_leave_one_out(pin_config("gac_fas", held_out="all", seeds=(0, 1), output_dir="loo"))
    assert _digests("loo", LOO_PINS) == LOO_PINS


SWEEP_PIN = "02c51568ed4dd81f6ca6a36c7837e379ce1bd13ae4c06a1c2eb04ac5e48b0792"


def test_sweep_table_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_sweep(pin_config("gac_fas", seeds=(0, 1), output_dir="sweep"), [0.0, 0.002], [0.05, 0.1])
    assert _digests("sweep", ["sweep.csv"]) == {"sweep.csv": SWEEP_PIN}


LANDSCAPE_PINS = {
    1: "2952027a4cde11237669ec441766e2660265e8216f2dbdc4713350d0cc30d94b",
    2: "8d11ae311ca3380a47c6bd9e6d581c28229f1cad11ddeb700d2f0b442d0c4de2",
}


def test_landscape_tables_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = pin_config("gac_fas", output_dir="land")
    Path("cfg.json").write_text(config_to_json(cfg), encoding="utf-8")
    write_outputs(run_training(cfg, seed=0), "ckpt")
    got = {}
    for dims in (1, 2):
        argv = ["landscape", "--config", "cfg.json", "--checkpoint", "ckpt/params.bin", "--dims", str(dims), "--steps", "5"]
        assert cli.main(argv) == 0
        got[dims] = _digests("land", ["landscape.csv"])["landscape.csv"]
    assert got == LANDSCAPE_PINS
