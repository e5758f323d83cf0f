"""Experiment harness: strict config parsing, deterministic training runs,
output files, leave-one-out and sweep drivers, and the CLI."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gacfas import cli, harness
from gacfas.datagen import DomainSpec, leave_one_out
from gacfas.harness import (
    ConfigKeyError,
    ConfigNotFoundError,
    ConfigParseError,
    ConfigValueError,
    EvalReport,
    ExperimentConfig,
    RunRecord,
    config_digest,
    config_to_json,
    default_domains,
    default_experiment,
    diagnostics_csv,
    finite_difference_suite,
    fullset_step_diagnostics,
    load_config,
    metrics_csv,
    parse_config,
    params_bin,
    read_params_bin,
    run_convergence,
    run_leave_one_out,
    run_sweep,
    run_training,
    steps_per_epoch,
    window_means,
    write_outputs,
)
from gacfas.model import MlpSpec, ParamVector, init_params, layout_for
from gacfas.numerics import Prng
from gacfas.optim import OptimizerConfig, Schedule


def tiny_config(output_dir: str = "out", **overrides) -> ExperimentConfig:
    base = dict(
        model=MlpSpec((2, 4, 2), "tanh"),
        domains=tuple(
            DomainSpec(rotation=0.3 * i, noise_sigma=0.1, n_samples=24, seed=i) for i in range(3)
        ),
        held_out=2,
        optimizer=OptimizerConfig(mode="gac_fas", eta0=0.1),
        steps=10,
        per_domain_batch=8,
        seeds=(0,),
        output_dir=output_dir,
        eval_every=5,
        eval_window=2,
        diagnostics_every=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_config_json(output_dir: str, **tweaks) -> str:
    raw = {
        "model": {"layer_sizes": [2, 4, 2], "activation": "tanh"},
        "domains": [
            {"rotation": 0.3 * i, "noise_sigma": 0.1, "n_samples": 24, "seed": i} for i in range(3)
        ],
        "held_out": 2,
        "optimizer": {"mode": "gac_fas", "eta0": 0.1},
        "steps": 10,
        "per_domain_batch": 8,
        "eval_every": 5,
        "eval_window": 2,
        "diagnostics_every": 2,
        "seeds": [0],
        "output_dir": output_dir,
    }
    raw.update(tweaks)
    return json.dumps(raw)


# ----------------------------------------------------------- config layer ----


def test_parse_round_trips_canonical_json():
    cfg = tiny_config()
    again = parse_config(config_to_json(cfg))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_parse_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigKeyError, match="learning_rate"):
        parse_config(tiny_config_json("out", learning_rate=0.1))
    with pytest.raises(ConfigKeyError, match="momentum"):
        parse_config(tiny_config_json("out", optimizer={"mode": "erm", "momentum": 0.9}))


def test_parse_reports_json_error_position():
    with pytest.raises(ConfigParseError, match=r"cfg\.json:2:3"):
        parse_config('{\n  bad json\n}', origin="cfg.json")


def _cli_train_exit(tmp_path, text: str) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return cli.main(["train", "--config", str(path), "--seed", "0"])


@pytest.mark.parametrize(
    "key,old,new",
    [
        ("optimizer.eta0", '"eta0": 0.1', '"eta0": NaN'),
        ("domains[0].noise_sigma", '"noise_sigma": 0.1', '"noise_sigma": NaN'),
        ("optimizer.rho", '"rho": 0.1', '"rho": Infinity'),
        ("domains[0].translation", '"noise_sigma"', '"translation": [-Infinity, 0.0], "noise_sigma"'),
    ],
)
def test_parse_rejects_non_finite_json_literals_by_key(tmp_path, capsys, key, old, new):
    text = tiny_config_json(str(tmp_path / "out"), optimizer={"mode": "gac_fas", "eta0": 0.1, "rho": 0.1})
    text = text.replace(old, new, 1)
    with pytest.raises(ConfigValueError, match=re.escape(key) + ": expected a finite number"):
        parse_config(text)
    assert _cli_train_exit(tmp_path, text) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400])
def test_parse_rejects_overflowing_numbers_by_key(tmp_path, capsys, literal):
    text = tiny_config_json(str(tmp_path / "out")).replace('"eta0": 0.1', f'"eta0": {literal}')
    with pytest.raises(ConfigValueError, match=r"optimizer\.eta0: expected a finite number"):
        parse_config(text)
    assert _cli_train_exit(tmp_path, text) == 1
    assert "optimizer.eta0" in capsys.readouterr().err


def test_parse_rejects_duplicate_seeds(tmp_path, capsys):
    text = tiny_config_json(str(tmp_path / "out"), seeds=[3, 1, 3])
    with pytest.raises(ConfigValueError, match=r"seeds must be distinct.*repeated: \[3\]"):
        parse_config(text)
    assert _cli_train_exit(tmp_path, text) == 1
    assert "seeds" in capsys.readouterr().err


def test_parse_type_strictness():
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", steps="many"))
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", steps=True))  # bools are not step counts
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", held_out=1.5))
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", seeds=[]))
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", optimizer={"mode": "sgd"}))
    with pytest.raises(ConfigValueError):
        parse_config(tiny_config_json("out", optimizer={"schedule": "linear"}))


def test_config_invariants():
    with pytest.raises(ConfigValueError):
        tiny_config(domains=(DomainSpec(n_samples=24),))  # fewer than 2 domains
    with pytest.raises(ConfigValueError):
        tiny_config(held_out=7)
    with pytest.raises(ConfigValueError):
        tiny_config(held_out="some")
    with pytest.raises(ConfigValueError):
        tiny_config(model=MlpSpec((3, 4, 2), "tanh"))  # needs 2 input features
    with pytest.raises(ConfigValueError):
        tiny_config(steps=7)  # not a multiple of eval_every
    with pytest.raises(ConfigValueError):
        tiny_config(eval_window=3)  # only 2 evaluations exist
    with pytest.raises(ConfigValueError):
        tiny_config(per_domain_batch=25)  # exceeds domain size
    with pytest.raises(ConfigValueError):
        tiny_config(seeds=())
    assert tiny_config(held_out="all").held_out == "all"


def test_load_config_missing_file():
    with pytest.raises(ConfigNotFoundError):
        load_config("/nonexistent/config.json")


def test_steps_per_epoch_uses_smallest_train_domain():
    cfg = tiny_config()
    assert steps_per_epoch(cfg, [0, 1]) == 3  # 24 // 8
    cfg2 = tiny_config(per_domain_batch=24)
    assert steps_per_epoch(cfg2, [0, 1]) == 1


# ---------------------------------------------------------- training runs ----


def test_run_training_structure_and_determinism():
    cfg = tiny_config()
    rec1 = run_training(cfg, seed=0)
    rec2 = run_training(cfg, seed=0)
    assert len(rec1.evals) == 2  # steps / eval_every
    assert len(rec1.diagnostics) == 5  # steps // diagnostics_every
    assert rec1.evals[-1].step == 10
    assert np.array_equal(rec1.final_params.theta, rec2.final_params.theta)
    assert metrics_csv(rec1) == metrics_csv(rec2)
    assert diagnostics_csv(rec1) == diagnostics_csv(rec2)

    rec3 = run_training(cfg, seed=1)
    assert not np.array_equal(rec1.final_params.theta, rec3.final_params.theta)


def test_run_training_held_out_override_and_all_rejected():
    cfg = tiny_config()
    rec = run_training(cfg, seed=0, held_out=1)
    assert rec.manifest["held_out"] == 1
    assert rec.manifest["train_domains"] == [0, 2]
    with pytest.raises(ConfigValueError):
        run_training(tiny_config(held_out="all"), seed=0)


def test_run_training_diverged_scores_fail_with_step():
    # At eta0=1e200 the step loss of this config first turns NaN at step 3,
    # before the first evaluation (step 5).
    cfg = tiny_config(optimizer=OptimizerConfig(mode="gac_fas", eta0=1e200))
    expected = "optimizer step 3 failed: the step loss is nan"
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=expected):
        run_training(cfg, seed=0)


@pytest.mark.parametrize("command", ["train", "convergence"])
def test_diverged_run_stops_at_the_first_non_finite_step_loss(monkeypatch, command):
    # Evaluating only after the last step, a diverged run used to compute
    # every step before it failed.
    cfg = tiny_config(optimizer=OptimizerConfig(mode="gac_fas", eta0=1e200), eval_every=10, eval_window=1)
    steps = []
    real = harness.take_step

    def counted(*args, **kwargs):
        steps.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "take_step", counted)
    run = {
        "train": lambda: run_training(cfg, seed=0),
        "convergence": lambda: run_convergence(cfg, window=1, trace_every=5, write=False),
    }[command]
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="optimizer step 3 failed: the step loss is nan"):
        run()
    assert steps == [1, 2, 3]


def test_run_convergence_names_the_failing_step(monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(harness, "take_step", failing)
    with pytest.raises(RuntimeError, match="optimizer step 1 failed: boom"):
        run_convergence(tiny_config(eval_window=1), window=1, write=False)


def test_cli_exits_2_on_a_diverged_run(tmp_path, capsys):
    text = tiny_config_json(str(tmp_path / "out"), optimizer={"mode": "gac_fas", "eta0": 1e200})
    with np.errstate(all="ignore"):
        assert _cli_train_exit(tmp_path, text) == 2
    assert "optimizer step 3 failed" in capsys.readouterr().err


def test_evaluate_refuses_nan_parameters_with_the_step():
    cfg = tiny_config()
    source, test = leave_one_out(list(cfg.domains), 2)
    params = init_params(cfg.model, Prng(0, 0))
    nan_params = params.with_theta(np.full_like(params.theta, math.nan))
    with pytest.raises(RuntimeError, match="evaluation at step 7 failed: scores must be finite"):
        harness._evaluate(cfg, cfg.model, nan_params, test, source.concatenated(), 7)


def test_run_training_manifest_contents():
    cfg = tiny_config()
    rec = run_training(cfg, seed=3)
    m = rec.manifest
    assert m["seed"] == 3
    assert m["mode"] == "gac_fas"
    assert m["config_sha256"] == config_digest(cfg)
    assert m["steps_per_epoch"] == 3
    assert m["start_step"] == 1 and m["end_step"] == 10
    names = [b["name"] for b in m["param_layout"]]
    assert names == ["w0", "b0", "w1", "b1"]


def test_run_training_step_schedule_resolves_period():
    sched = Schedule(kind="step", period_epochs=1, factor=0.5)
    cfg = tiny_config(optimizer=OptimizerConfig(mode="erm", eta0=0.1, schedule=sched))
    rec = run_training(cfg, seed=0)  # would raise if the period stayed unresolved
    assert rec.manifest["steps_per_epoch"] == 3


def test_eval_reports_are_plausible():
    cfg = tiny_config(steps=20, eval_every=10)
    rec = run_training(cfg, seed=0)
    for ev in rec.evals:
        assert 0.0 <= ev.hter <= 1.0
        assert 0.0 <= ev.auc <= 1.0
        assert 0.0 <= ev.tpr95 <= 1.0
        assert ev.train_loss > 0.0
        assert math.isfinite(ev.surrogate_gap)


def test_window_means_and_validation():
    evals = tuple(EvalReport(s, 0.1 * s, 0.2 * s, 0.3 * s, 1.0, 0.5) for s in (1, 2, 3, 4))
    rec = RunRecord({}, evals, (), ParamVector.from_flat(np.zeros(1)))
    wm = window_means(rec, 2)
    assert wm["hter"] == pytest.approx(0.35)
    assert wm["auc"] == pytest.approx(0.7)
    assert wm["train_loss"] == 1.0
    with pytest.raises(ValueError):
        window_means(rec, 5)
    with pytest.raises(ValueError):
        window_means(rec, 0)


# -------------------------------------------------------------- file layer ----


def test_metrics_csv_exact_format():
    evals = (EvalReport(5, 0.125, 0.875, 1.0, 0.6931471805599453, 0.105),)
    rec = RunRecord({"train_domains": [0, 1]}, evals, (), ParamVector.from_flat(np.zeros(1)))
    text = metrics_csv(rec)
    assert text == (
        "step,hter,auc,tpr95,train_loss,surrogate_gap\n"
        "5,0.125,0.875,1.0,0.6931471805599453,0.105\n"
    )


def test_diagnostics_csv_header_tracks_domain_count():
    cfg = tiny_config()
    rec = run_training(cfg, seed=0)
    lines = diagnostics_csv(rec).strip().split("\n")
    assert lines[0] == "t,loss_erm,grad_norm,surrogate_gap,align_cos_0,align_cos_1,adv_grad_sq_mean"
    assert len(lines) == 1 + len(rec.diagnostics)
    first = lines[1].split(",")
    assert int(first[0]) == rec.diagnostics[0].step_index


def test_params_bin_round_trip(tmp_path):
    spec = MlpSpec((2, 4, 2), "tanh")
    theta = np.random.default_rng(0).normal(size=spec.param_count())
    params = ParamVector(theta, layout_for(spec))
    path = tmp_path / "params.bin"
    path.write_bytes(params_bin(params))
    back = read_params_bin(str(path), spec)
    assert np.array_equal(back.theta, theta)


def test_read_params_bin_rejects_mismatch(tmp_path):
    spec = MlpSpec((2, 4, 2), "tanh")
    path = tmp_path / "params.bin"
    path.write_bytes(params_bin(ParamVector.from_flat(np.zeros(3))))
    with pytest.raises(ValueError):
        read_params_bin(str(path), spec)
    path.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError):
        read_params_bin(str(path), spec)
    theta = np.zeros(spec.param_count())
    theta[7] = math.inf
    path.write_bytes(params_bin(ParamVector(theta, layout_for(spec))))
    with pytest.raises(ValueError, match="parameter 7 is inf"):
        read_params_bin(str(path), spec)


def test_write_outputs_creates_all_files(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "run"))
    rec = run_training(cfg, seed=0)
    paths = write_outputs(rec, cfg.output_dir)
    for path in paths.values():
        assert os.path.exists(path)
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["config_sha256"] == config_digest(cfg)
    back = read_params_bin(paths["params"], cfg.model)
    assert np.array_equal(back.theta, rec.final_params.theta)


# ------------------------------------------------------------ experiments ----


def test_run_leave_one_out_covers_all_rotations(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path), seeds=(0, 1))
    summary, rows = run_leave_one_out(cfg)
    assert [s["held_out"] for s in summary] == [0, 1, 2]
    assert len(rows) == 6  # 3 rotations x 2 seeds
    assert all(s["n_seeds"] == 2 for s in summary)
    for name in ("loo_runs.csv", "loo_summary.csv", "loo_summary.json"):
        assert os.path.exists(tmp_path / name)
    for held in range(3):
        for seed in (0, 1):
            assert os.path.exists(tmp_path / f"held{held}_seed{seed}" / "metrics.csv")
    payload = json.loads((tmp_path / "loo_summary.json").read_text())
    assert len(payload["runs"]) == 6


def test_run_leave_one_out_realizes_each_split_once(monkeypatch):
    from gacfas import datagen

    held_calls = []
    real = datagen.leave_one_out

    def counting(specs, held):
        held_calls.append(held)
        return real(specs, held)

    monkeypatch.setattr(datagen, "leave_one_out", counting)
    cfg = tiny_config(seeds=(0, 1))
    _, rows = run_leave_one_out(cfg, write=False)
    assert held_calls == [0, 1, 2]
    monkeypatch.setattr(datagen, "leave_one_out", real)
    for row in rows:
        alone = window_means(run_training(cfg, row["seed"], held_out=row["held_out"]), cfg.eval_window)
        assert {key: row[key] for key in alone} == alone


def test_eval_train_loss_is_the_batch_loss_with_and_without_gap_tracking():
    from gacfas import datagen
    from gacfas.optim import batch_loss

    for track in (True, False):
        cfg = tiny_config(optimizer=OptimizerConfig(mode="gac_fas", eta0=0.1, track_surrogate_gap=track))
        record = run_training(cfg, seed=0)
        source, _ = datagen.leave_one_out(list(cfg.domains), cfg.held_out)
        final = record.evals[-1]
        assert final.train_loss == batch_loss(cfg.model, record.final_params.theta, source.concatenated())
        assert math.isnan(final.surrogate_gap) != track


def test_run_sweep_grid(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path))
    cells = run_sweep(cfg, gammas=[0.0, 0.01], rhos=[0.1])
    assert len(cells) == 2
    assert {c["gamma"] for c in cells} == {0.0, 0.01}
    assert os.path.exists(tmp_path / "sweep.csv")
    with pytest.raises(ConfigValueError):
        run_sweep(cfg, gammas=[], rhos=[0.1])
    with pytest.raises(ConfigValueError):
        run_sweep(tiny_config(held_out="all"), gammas=[0.0], rhos=[0.1])


def test_fullset_diagnostics_rho_gamma_zero_matches_plain_gradient():
    from gacfas import datagen

    cfg = tiny_config(optimizer=OptimizerConfig(mode="gac_fas", eta0=0.1, rho=0.0, gamma=0.0))
    source, _ = datagen.leave_one_out(list(cfg.domains), 2)
    from gacfas.model import init_params
    from gacfas.numerics import Prng

    params = init_params(cfg.model, Prng(0, 0))
    diag = fullset_step_diagnostics(cfg.model, params, source, cfg.optimizer, t=1)
    assert diag.adv_grad_norms == (diag.grad_norm, diag.grad_norm)
    assert diag.alignment_cos == (1.0, 1.0)
    assert diag.surrogate_gap == 0.0


def test_fullset_diagnostics_report_nan_alignment_for_nan_gradients():
    from gacfas import datagen
    from gacfas.model import init_params
    from gacfas.numerics import Prng

    cfg = tiny_config()
    source, _ = datagen.leave_one_out(list(cfg.domains), 2)
    params = init_params(cfg.model, Prng(0, 0))
    theta = params.theta.copy()
    theta[0] = math.nan
    diag = fullset_step_diagnostics(cfg.model, ParamVector(theta, params.layout), source, cfg.optimizer, t=1)
    assert all(math.isnan(c) for c in diag.alignment_cos)


def test_run_convergence_forces_theorem1_and_writes_outputs(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path), steps=60, eval_every=30, eval_window=1)
    record, trace = run_convergence(cfg, window=4, trace_every=5)
    assert record.manifest["config"]["optimizer"]["schedule"] == "theorem1"
    assert record.manifest["diagnostics_scope"] == "full-training-set"
    assert len(record.diagnostics) == 12  # steps / trace_every
    assert len(trace.t) == 3  # 12 records / window 4
    assert trace.t[-1] == 60
    assert os.path.exists(tmp_path / "convergence.csv")
    assert os.path.exists(tmp_path / "convergence_run" / "metrics.csv")
    with pytest.raises(ConfigValueError):
        run_convergence(cfg, trace_every=0)


# --------------------------------------------------------------- defaults ----


def test_default_domains_match_documented_task():
    domains = default_domains()
    assert len(domains) == 4
    assert [d.rotation for d in domains] == [math.radians(r) for r in (0.0, 20.0, 40.0, 60.0)]
    assert all(d.noise_sigma == 0.15 for d in domains)
    assert all(d.n_samples == 2000 for d in domains)
    assert [d.seed for d in domains] == [0, 1, 2, 3]


def test_default_experiment_overrides():
    cfg = default_experiment("erm", steps=200, eval_every=100, eval_window=2, optimizer={"eta0": 0.3})
    assert cfg.optimizer.mode == "erm"
    assert cfg.optimizer.eta0 == 0.3
    assert cfg.optimizer.rho == 0.1 and cfg.optimizer.gamma == 0.0002  # defaults kept
    assert cfg.steps == 200
    assert cfg.held_out == "all"
    assert cfg.model.layer_sizes == (2, 16, 16, 2)


def test_finite_difference_suite_smoke():
    passed, worst, errors = finite_difference_suite(n_models=2)
    assert passed and worst <= 1e-5 and len(errors) == 2


# -------------------------------------------------------------------- CLI ----


def test_cli_train_writes_outputs_and_prints(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(out_dir)))
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert "auc=" in captured.out
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "params.bin").exists()


def test_cli_train_error_paths(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "missing.json"), "--seed", "0"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["train", "--config", str(bad), "--seed", "0"]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(tiny_config_json("out", bogus_key=1))
    assert cli.main(["train", "--config", str(unknown), "--seed", "0"]) == 1
    all_held = tmp_path / "all.json"
    all_held.write_text(tiny_config_json("out", held_out="all"))
    assert cli.main(["train", "--config", str(all_held), "--seed", "0"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train"]) == 1  # missing required arguments
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_loo_and_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "loo"), seeds=[0]))
    assert cli.main(["loo", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "loo" / "loo_summary.csv").exists()

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(tiny_config_json(str(tmp_path / "sweep")))
    assert cli.main(["sweep", "--config", str(sweep_cfg), "--gammas", "0.0,0.01", "--rhos", "0.1"]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert cli.main(["sweep", "--config", str(sweep_cfg), "--gammas", "abc", "--rhos", "0.1"]) == 1
    capsys.readouterr()


def test_cli_landscape_from_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(out_dir)))
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    ckpt = out_dir / "params.bin"
    assert cli.main([
        "landscape", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--steps", "5",
    ]) == 0
    text = (out_dir / "landscape.csv").read_text()
    assert text.startswith("s,loss\n")
    assert len(text.strip().split("\n")) == 6
    assert cli.main(["landscape", "--config", str(cfg_path), "--checkpoint", "/missing.bin"]) == 1
    capsys.readouterr()


def _landscape_setup(tmp_path, nan_from=None):
    """A config and a checkpoint of the config's model, with every
    parameter from index nan_from on set to NaN if given."""
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    text = tiny_config_json(str(out_dir))
    cfg_path.write_text(text)
    params = init_params(parse_config(text).model, Prng(0, 0))
    theta = params.theta.copy()
    if nan_from is not None:
        theta[nan_from:] = math.nan
    ckpt = tmp_path / "params.bin"
    ckpt.write_bytes(params_bin(params.with_theta(theta)))
    return cfg_path, ckpt, out_dir


def test_cli_landscape_refuses_a_non_finite_checkpoint(tmp_path, capsys):
    cfg_path, ckpt, out_dir = _landscape_setup(tmp_path, nan_from=5)
    assert cli.main(["landscape", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--steps", "5"]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "parameter 5 is nan" in err
    assert not (out_dir / "landscape.csv").exists()


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
def test_cli_landscape_refuses_a_non_finite_radius(tmp_path, capsys, radius):
    cfg_path, ckpt, out_dir = _landscape_setup(tmp_path)
    argv = ["landscape", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--steps", "5", f"--radius={radius}"]
    assert cli.main(argv) == 1
    assert f"radius must be finite and > 0, got {radius}" in capsys.readouterr().err
    assert not (out_dir / "landscape.csv").exists()


def test_cli_convergence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "conv"), steps=60, eval_every=30, eval_window=1))
    assert cli.main(["convergence", "--config", str(cfg_path), "--window", "4", "--trace-every", "5"]) == 0
    assert (tmp_path / "conv" / "convergence.csv").exists()
    out = capsys.readouterr().out
    assert "fitted_C=" in out


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
