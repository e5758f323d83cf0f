"""Experiment harness: strict config parsing, deterministic training runs,
output files, leave-one-out and sweep drivers, and the CLI."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gacfas import cli, diagnostics, harness, optim
from gacfas.datagen import DomainSpec, build_source_set, leave_one_out, sample_minibatch
from gacfas.config import (
    ConfigKeyError,
    ConfigNotFoundError,
    ConfigParseError,
    ConfigValueError,
    ExperimentConfig,
    config_digest,
    config_to_dict,
    config_to_json,
    default_domains,
    default_experiment,
    load_config,
    parse_config,
)
from gacfas.harness import (
    EvalReport,
    RunRecord,
    diagnostics_csv,
    finite_difference_suite,
    fullset_step_diagnostics,
    metrics_csv,
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
from gacfas.optim import MODES, OptimizerConfig, StepDiagnostics, take_step


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
    # An int given in code for a float field is held as a float, so the echo
    # reads back to the same digest.
    for cfg in (tiny_config(), default_experiment(optimizer={"eta0": 1})):
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


def test_cli_refuses_a_config_file_that_is_not_utf8_by_its_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    message = f"{path}: not UTF-8 text: invalid start byte at byte 0"
    with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
        load_config(str(path))
    assert cli.main(["train", "--config", str(path), "--seed", "0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_readme_config_parses_and_round_trips():
    """The JSON block under README's CLI section is the format's one example."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```json$(.*?)^```$", readme, re.S | re.M).group(1)
    cfg = parse_config(block, "README.md")
    again = parse_config(config_to_json(cfg))
    assert again == cfg and config_digest(again) == config_digest(cfg)


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


def _set_key(raw: dict, path: str, value) -> dict:
    """raw with the key at path ("optimizer.eta0", "domains[0].seed") set to value."""
    *parents, last = path.replace("[", ".[").split(".")
    node = raw
    for part in parents:
        node = node.setdefault(part, {}) if not part.startswith("[") else node[int(part[1:-1])]
    node[last] = value
    return raw


# Every JSON key of the config, with a value of the wrong type for it.
WRONG_TYPED = [
    ("model", "x"),
    ("model.layer_sizes", "x"),
    ("model.activation", 5),
    ("domains", "x"),
    ("domains[0].rotation", "x"),
    ("domains[0].translation", "x"),
    ("domains[0].noise_sigma", "x"),
    ("domains[0].n_samples", 24.0),
    ("domains[0].seed", "x"),
    ("held_out", 1.5),
    ("optimizer", []),
    ("optimizer.mode", 5),
    ("optimizer.eta0", "x"),
    ("optimizer.rho", "x"),
    ("optimizer.gamma", True),
    ("optimizer.weight_decay", "x"),
    ("optimizer.schedule", 5),
    ("optimizer.step_period_epochs", 40.0),
    ("optimizer.step_factor", "x"),
    ("optimizer.zero_grad_eps", "x"),
    ("optimizer.track_surrogate_gap", 1),
    ("steps", "x"),
    ("per_domain_batch", 8.0),
    ("eval_every", "x"),
    ("eval_window", "x"),
    ("diagnostics_every", "x"),
    ("seeds", "x"),
    ("output_dir", 5),
]


def test_wrong_typed_cases_cover_every_config_key():
    def paths(node, prefix=""):
        if isinstance(node, dict):
            for key, value in node.items():
                path = f"{prefix}.{key}" if prefix else key
                yield path
                yield from paths(value, path)
        elif isinstance(node, list) and node and isinstance(node[0], dict):
            yield from paths(node[0], f"{prefix}[0]")

    assert sorted(paths(config_to_dict(tiny_config()))) == sorted(path for path, _ in WRONG_TYPED)


@pytest.mark.parametrize("path,value", WRONG_TYPED, ids=[path for path, _ in WRONG_TYPED])
def test_parse_names_the_path_of_a_wrong_typed_value(path, value):
    raw = _set_key(json.loads(tiny_config_json("out")), path, value)
    # Top-level keys are named config.<key>, except the model and optimizer
    # objects, which name themselves as their keys do.
    named = path if "." in path or "[" in path or path in ("model", "optimizer") else f"config.{path}"
    with pytest.raises(ConfigValueError) as info:
        parse_config(json.dumps(raw))
    assert str(info.value).startswith(f"{named}: ")


_SECTIONS = {"": ExperimentConfig, "model": MlpSpec, "domains[0]": DomainSpec, "optimizer": OptimizerConfig}


def test_each_section_s_json_keys_are_its_dataclass_s_fields_but_period_steps():
    """The unknown-key message's allowed list and the config echo both give a
    section's keys: its dataclass's fields, but period_steps, which a run
    derives from step_period_epochs, and which every section refuses."""
    echo = config_to_dict(tiny_config())
    echoed = {"": echo, "model": echo["model"], "domains[0]": echo["domains"][0], "optimizer": echo["optimizer"]}
    for section, cls in _SECTIONS.items():
        fields = sorted(f.name for f in dataclasses.fields(cls) if (cls, f.name) != (OptimizerConfig, "period_steps"))
        assert sorted(echoed[section]) == fields
        path = f"{section}.period_steps" if section else "period_steps"
        with pytest.raises(ConfigKeyError) as info:
            parse_config(json.dumps(_set_key(json.loads(tiny_config_json("out")), path, 5)))
        assert str(info.value) == f"{section or 'config'}: unknown key 'period_steps' (allowed: {fields})"


@pytest.mark.parametrize(
    "named,tweak,missing",
    [
        ("optimizer.eta0: expected", {"optimizer": {"eta0": "fast"}}, ["seeds"]),
        ("model.layer_sizes: expected", {"model": {"layer_sizes": [2, 0, 2]}}, ["held_out"]),
        ("config: missing required key 'held_out'", {}, ["held_out", "seeds"]),
    ],
)
def test_a_config_with_two_faults_names_the_nested_section_s_first(named, tweak, missing):
    """The nested sections are read before the other keys, and the other
    keys in their field order."""
    raw = json.loads(tiny_config_json("out", **tweak))
    with pytest.raises(ConfigValueError) as info:
        parse_config(json.dumps({k: v for k, v in raw.items() if k not in missing}))
    assert str(info.value).startswith(named)


@pytest.mark.parametrize(
    "old,new,key",
    [
        ('"steps": 10', '"steps": 20, "steps": 10', "steps"),
        ('"activation": "tanh"', '"activation": "relu", "activation": "tanh"', "activation"),
    ],
)
def test_a_config_that_repeats_a_key_is_refused_by_its_path_and_key(tmp_path, capsys, old, new, key):
    """json.loads would keep the last value and train on it."""
    text = tiny_config_json(str(tmp_path / "out")).replace(old, new, 1)
    assert _cli_train_exit(tmp_path, text) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'cfg.json'}: key {key!r} is repeated in one object\n"
    assert not (tmp_path / "out").exists()


def _field_of(path: str):
    """The dataclass and field that the JSON key at path sets."""
    section, _, key = path.rpartition(".")
    return _SECTIONS[section], key


# Every field of the four config dataclasses, built in code with a value
# that is not of its type: each WRONG_TYPED value, then the values that were
# once accepted or failed far from their field.
IN_CODE = [(*_field_of(path), value) for path, value in WRONG_TYPED] + [
    (ExperimentConfig, "eval_window", True),
    (ExperimentConfig, "eval_window", 2.0),
    (ExperimentConfig, "diagnostics_every", 2.5),
    (ExperimentConfig, "seeds", (0.5,)),
    (ExperimentConfig, "steps", 20.0),
    (DomainSpec, "seed", 1.5),
    (DomainSpec, "seed", True),
    (DomainSpec, "n_samples", 100.5),
    (DomainSpec, "noise_sigma", True),
    (MlpSpec, "layer_sizes", (2, 16.7, 2)),
    (MlpSpec, "layer_sizes", (2, True, 2)),
    (MlpSpec, "layer_sizes", "22"),
    (OptimizerConfig, "eta0", True),
    (OptimizerConfig, "eta0", 10**400),
    (OptimizerConfig, "track_surrogate_gap", 1),
    (OptimizerConfig, "step_period_epochs", 2.5),
    (OptimizerConfig, "step_factor", True),
    (OptimizerConfig, "period_steps", 2.5),
]


def test_in_code_cases_cover_every_config_field():
    classes = (ExperimentConfig, MlpSpec, DomainSpec, OptimizerConfig)
    every = {(cls, f.name) for cls in classes for f in dataclasses.fields(cls)}
    assert {(cls, name) for cls, name, _ in IN_CODE} == every


@pytest.mark.parametrize(
    "cls,name,value", IN_CODE, ids=[f"{cls.__name__}.{name}={value!r:.20}" for cls, name, value in IN_CODE]
)
def test_a_config_built_in_code_refuses_a_wrong_typed_field_by_name(cls, name, value):
    base = {MlpSpec: {"layer_sizes": (2, 4, 2)}}.get(cls, {})
    with pytest.raises((ValueError, ConfigValueError)) as info:
        if cls is ExperimentConfig:
            dataclasses.replace(tiny_config(), **{name: value})
        else:
            cls(**{**base, name: value})
    assert str(info.value).startswith(f"{name} must be ")


def test_sequence_fields_built_as_lists_are_held_as_tuples():
    cfg = tiny_config()
    as_lists = dataclasses.replace(cfg, model=MlpSpec([2, 4, 2], "tanh"), domains=list(cfg.domains), seeds=[0])
    assert as_lists == cfg and config_digest(as_lists) == config_digest(cfg)
    assert DomainSpec(translation=[1, 2]).translation == (1.0, 2.0)


def test_parse_leaves_every_optional_key_to_its_dataclass_default():
    raw = {
        "model": {"layer_sizes": [2, 4, 2]},
        "domains": [{}, {}],
        "held_out": 0,
        "steps": 1000,
        "per_domain_batch": 8,
        "seeds": [0],
        "output_dir": "out",
    }
    expected = ExperimentConfig(
        model=MlpSpec((2, 4, 2)),
        domains=(DomainSpec(), DomainSpec()),
        held_out=0,
        optimizer=OptimizerConfig(),
        steps=1000,
        per_domain_batch=8,
        seeds=(0,),
        output_dir="out",
    )
    assert parse_config(json.dumps(raw)) == expected
    for key in ("model", "domains", "held_out", "steps", "per_domain_batch", "seeds", "output_dir"):
        short = {k: v for k, v in raw.items() if k != key}
        with pytest.raises(ConfigValueError, match=f"config: missing required key '{key}'"):
            parse_config(json.dumps(short))
    with pytest.raises(ConfigValueError, match="model: missing required key 'layer_sizes'"):
        parse_config(json.dumps({**raw, "model": {"activation": "tanh"}}))


@pytest.mark.parametrize(
    "named,tweak",
    [
        ("config.seeds", {"seeds": [-3]}),
        ("domains[1].seed", {"domains": [{"n_samples": 24, "seed": 0}, {"n_samples": 24, "seed": -5}]}),
    ],
)
def test_negative_seeds_are_refused_by_key_before_any_domain_is_realized(tmp_path, monkeypatch, capsys, named, tweak):
    text = tiny_config_json(str(tmp_path / "out"), **tweak)
    with pytest.raises(ConfigValueError, match=re.escape(named) + ": expected a non-negative integer"):
        parse_config(text)
    realized = []
    monkeypatch.setattr(harness.datagen, "leave_one_out", lambda *args: realized.append(args))
    assert _cli_train_exit(tmp_path, text) == 1
    assert named in capsys.readouterr().err
    assert realized == [] and not (tmp_path / "out").exists()


def test_parse_refuses_a_schedule_field_that_is_not_a_json_key():
    text = tiny_config_json("out", optimizer={"mode": "erm", "schedule": "step", "period_steps": 3})
    with pytest.raises(ConfigKeyError, match="optimizer: unknown key 'period_steps'"):
        parse_config(text)


@pytest.mark.parametrize("kind", ["step", "constant"])
def test_a_config_refuses_a_step_period_the_run_would_derive(kind):
    """A run sets period_steps from step_period_epochs, and the config echo
    does not hold it, so a config that sets it would train on a period its
    manifest does not record."""
    optimizer = {"eta0": 0.1, "schedule": kind, "step_period_epochs": 40, "period_steps": 5}
    with pytest.raises(ConfigValueError, match=r"optimizer\.period_steps must be 0 .*got 5"):
        default_experiment(held_out=3, steps=40, eval_every=20, eval_window=1, optimizer=optimizer)


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
    assert tiny_config(diagnostics_every=10).diagnostics_every == 10  # one record, at the last step


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


def _same_record(a: StepDiagnostics, b: StepDiagnostics) -> bool:
    """Field by field; floats by their bits, NaN compared as NaN."""
    def same(u, v):
        if isinstance(u, float) and isinstance(v, float):
            return (math.isnan(u) and math.isnan(v)) or struct.pack("<d", u) == struct.pack("<d", v)
        return type(u) is type(v) and u == v

    for name in StepDiagnostics.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        xs, ys = (x, y) if isinstance(x, tuple) else ((x,), (y,))
        if len(xs) != len(ys) or not all(same(u, v) for u, v in zip(xs, ys)):
            return False
    return True


@pytest.mark.parametrize("track_gap", [True, False])
@pytest.mark.parametrize("mode", MODES)
def test_kept_records_equal_eager_records_and_hold_no_arrays(mode, track_gap):
    """run_training builds a record only on the steps it keeps. Replaying
    the run with a record built on every step gives the same parameters and,
    on the kept steps, the same records (surrogate_gap is NaN without gap
    tracking)."""
    opt = OptimizerConfig(mode=mode, eta0=0.1, track_surrogate_gap=track_gap)
    cfg = tiny_config("unused", optimizer=opt, diagnostics_every=3)
    record = run_training(cfg, seed=4)
    source, _ = leave_one_out(list(cfg.domains), cfg.held_out)
    params = init_params(cfg.model, Prng(4, 0))
    prng = Prng(4, 1)
    eager = []
    for t in range(1, cfg.steps + 1):
        params, diag = take_step(cfg.model, params, sample_minibatch(source, cfg.per_domain_batch, prng), opt, t)
        if t % cfg.diagnostics_every == 0:
            eager.append(diag)
    assert record.final_params.theta.tobytes() == params.theta.tobytes()
    assert [d.step_index for d in record.diagnostics] == [3, 6, 9]
    assert all(_same_record(kept, built) for kept, built in zip(record.diagnostics, eager))
    assert math.isnan(record.diagnostics[0].surrogate_gap) != track_gap
    for diag in record.diagnostics:
        for name in StepDiagnostics.__dataclass_fields__:
            value = getattr(diag, name)
            assert not any(isinstance(v, np.ndarray) for v in (value if isinstance(value, tuple) else (value,)))


def test_run_training_held_out_override_and_all_rejected():
    cfg = tiny_config()
    rec = run_training(cfg, seed=0, held_out=1)
    assert rec.manifest["held_out"] == 1
    assert rec.manifest["train_domains"] == [0, 2]
    with pytest.raises(ConfigValueError):
        run_training(tiny_config(held_out="all"), seed=0)


@pytest.mark.parametrize("command", ["train", "convergence"])
def test_diverged_run_stops_at_the_first_non_finite_step_loss(tmp_path, monkeypatch, command):
    # Evaluating only after the last step, a diverged run used to compute
    # every step before it failed.
    cfg = tiny_config(str(tmp_path / "out"), optimizer=OptimizerConfig(mode="gac_fas", eta0=1e200), eval_every=10, eval_window=1)
    steps = _spy(monkeypatch, harness, "take_step")
    run = {
        "train": lambda: run_training(cfg, seed=0),
        "convergence": lambda: run_convergence(cfg, window=1, trace_every=5),
    }[command]
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="optimizer step 3 failed: the step loss is nan"):
        run()
    assert [args[4] for args in steps] == [1, 2, 3]


def test_run_convergence_names_the_failing_step(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(harness, "take_step", failing)
    with pytest.raises(RuntimeError, match="optimizer step 1 failed: boom"):
        run_convergence(tiny_config(str(tmp_path / "out"), eval_window=1), window=1)


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
        harness._evaluate(cfg, cfg.model, nan_params, test, source, 7)


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("held", [0, 2])
def test_evaluate_takes_the_loss_and_gap_of_the_concatenated_source_set(track, held):
    """_evaluate reads the source set's domain views; its training loss and
    gap are bit for bit those of the concatenated batch."""
    opt = OptimizerConfig(mode="gac_fas", eta0=0.1, rho=0.3, track_surrogate_gap=track)
    cfg = tiny_config(optimizer=opt)
    source, test = leave_one_out(list(cfg.domains), held)
    rng = np.random.default_rng(held)
    for seed in range(4):
        params = init_params(cfg.model, Prng(seed, 0))
        params = params.with_theta(params.theta + rng.standard_normal(params.theta.shape))
        report = harness._evaluate(cfg, cfg.model, params, test, source, 5)
        gap, loss = diagnostics.surrogate_gap(cfg.model, params, source.concatenated(), opt)
        assert report.train_loss == loss
        if track:
            assert report.surrogate_gap == gap
        else:
            assert math.isnan(report.surrogate_gap)


def test_the_evaluation_gap_and_the_step_gap_read_the_config_dead_zone():
    """metrics.csv's surrogate_gap is the sam_whole gap under the run's own
    OptimizerConfig: with a dead zone above every gradient norm, no step and
    no evaluation moves theta to an ascending point, so every gap is 0."""
    gaps = {}
    for eps in (1e6, 1e-12):
        cfg = default_experiment(
            "sam_whole", optimizer={"rho": 0.1, "zero_grad_eps": eps},
            held_out=3, steps=20, eval_every=10, eval_window=1, diagnostics_every=1,
        )
        record = run_training(cfg, 0)
        rows = metrics_csv(record).splitlines()
        column = rows[0].split(",").index("surrogate_gap")
        gaps[eps] = ([d.surrogate_gap for d in record.diagnostics], [float(r.split(",")[column]) for r in rows[1:]])
    assert gaps[1e6] == ([0.0] * 20, [0.0, 0.0])
    steps, evals = gaps[1e-12]  # the default dead zone: the same run has a gap
    assert len(evals) == 2 and all(gap > 0.0 for gap in steps + evals)


def test_surrogate_gap_of_a_source_set_takes_its_domains_in_ascending_id_order():
    specs = [DomainSpec(rotation=0.4 * i, noise_sigma=0.1, n_samples=30 + 7 * i, seed=i) for i in range(3)]
    source = build_source_set(specs, indices=(5, 1, 3))
    spec = MlpSpec((2, 6, 2), "tanh")
    params = init_params(spec, Prng(4, 0))
    opt = OptimizerConfig(rho=0.2)
    assert diagnostics.surrogate_gap(spec, params, source, opt) == diagnostics.surrogate_gap(
        spec, params, source.concatenated(), opt
    )


def test_run_training_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="Prng seed must be a non-negative integer, got -1"):
        run_training(tiny_config(), -1)


_NO_MASKED_ARRAYS = """
import sys
from gacfas import cli
config = sys.argv[1]
assert cli.main(["train", "--config", config, "--seed", "0"]) == 0
assert cli.main(["loo", "--config", config]) == 0
assert cli.main(["convergence", "--config", config, "--window", "1", "--trace-every", "5"]) == 0
print("numpy.ma" in sys.modules, "decimal" in sys.modules)
"""


def test_train_loo_and_convergence_never_import_numpy_ma(tmp_path):
    """numpy.ma costs 15-20 ms to import, and np.unique imports it; no run
    command needs either. Nor does a valid config need decimal (0.44 MiB of
    RSS), which the config reader loads only for a non-finite literal."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "out")))
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


_THREADS_AT_FORK = """
import json
import os
import sys
from gacfas import cli

def threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

seen = {}
real_fork = os.fork

def fork():
    seen[command].append(threads())
    return real_fork()

os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
config = sys.argv[1]
for command, args in (("loo", []), ("convergence", ["--window", "4", "--trace-every", "5"])):
    seen[command] = []
    assert cli.main([command, "--config", config, *args]) == 0
print(json.dumps(seen))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status to count threads")
def test_loo_and_convergence_fork_from_a_single_threaded_process_under_the_blas_pin(tmp_path):
    """With BLAS pinned to one thread, as the benchmark runs it, the process
    that forks the loo and convergence workers holds one OS thread: the
    package itself starts none. Python 3.12 and later warn on a fork from a
    process with more."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "out"), steps=60, eval_every=30, eval_window=1))
    src = str(Path(harness.__file__).parents[1])
    pins = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **pins, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AT_FORK, str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert sorted(seen) == ["convergence", "loo"]
    for command, counts in seen.items():
        assert counts and counts == [1] * len(counts), (command, counts)


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
    opt = OptimizerConfig(mode="erm", eta0=0.1, schedule="step", step_period_epochs=1, step_factor=0.5)
    cfg = tiny_config(optimizer=opt)
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


@pytest.mark.parametrize("raised", [KeyboardInterrupt("stopped"), OSError("disk full")])
def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch, raised):
    def failing_replace(src, dst):
        raise raised

    monkeypatch.setattr(os, "replace", failing_replace)
    target = tmp_path / "x.csv"
    with pytest.raises((KeyboardInterrupt, RuntimeError)) as info:
        harness._atomic_write(str(target), "a,b\n")
    assert list(tmp_path.iterdir()) == []
    if isinstance(raised, KeyboardInterrupt):
        assert info.value is raised
    else:
        assert (type(info.value), str(info.value)) == (RuntimeError, f"failed writing {target}: disk full")
        assert info.value.__cause__ is raised


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


def _set_cpus(monkeypatch, n: int) -> None:
    """Make the affinity mask that the drivers read hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_run_leave_one_out_realizes_each_split_once(monkeypatch, tmp_path):
    # The runs are trained in up to `cpus` processes, so the spy appends to a
    # file, which every forked process shares, not to a list in this one.
    from gacfas import datagen

    real = datagen.leave_one_out
    cfg = tiny_config(str(tmp_path / "out"), seeds=(0, 1))
    for cpus in (1, 2, 3):
        log = tmp_path / f"realized{cpus}.txt"

        def counting(specs, held):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {held}\n")
            return real(specs, held)

        monkeypatch.setattr(datagen, "leave_one_out", counting)
        _set_cpus(monkeypatch, cpus)
        _, rows = run_leave_one_out(cfg)
        calls = [tuple(int(v) for v in line.split()) for line in log.read_text().splitlines()]
        assert len(calls) == len(set(calls))  # no process realizes a split twice
        assert {held for _, held in calls} == {0, 1, 2}
        assert len({pid for pid, _ in calls}) == cpus
    monkeypatch.setattr(datagen, "leave_one_out", real)
    for row in rows:
        alone = window_means(run_training(cfg, row["seed"], held_out=row["held_out"]), cfg.eval_window)
        assert {key: row[key] for key in alone} == alone


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cpus", [None, 3])  # None: the real affinity mask
def test_cli_loo_and_sweep_write_the_same_files_on_one_cpu_and_on_several(tmp_path, monkeypatch, capsys, cpus):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(out), seeds=[0, 1]))
    real = os.sched_getaffinity(0)
    outputs = []
    for mask in ({0}, real if cpus is None else set(range(cpus))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
        assert cli.main(["loo", "--config", str(cfg_path)]) == 0
        assert cli.main(["sweep", "--config", str(cfg_path), "--gammas", "0.0,0.01", "--rhos", "0.1,0.2"]) == 0
        outputs.append((_tree(out), capsys.readouterr()))
        out.rename(tmp_path / f"cpus{len(mask)}_{len(outputs)}")
    (serial, serial_io), (parallel, parallel_io) = outputs
    assert len(serial) == (6 + 8) * 4 + 3 + 1  # 6 loo and 8 sweep runs of 4 files, the loo tables, sweep.csv
    assert sorted(parallel) == sorted(serial)
    assert [name for name in serial if parallel[name] != serial[name]] == []
    assert parallel_io == serial_io


def test_process_count_is_the_affinity_mask_capped_at_the_run_count(monkeypatch):
    def no_fork():
        raise AssertionError("counting processes must start none")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = tiny_config(seeds=(0, 1))
    n_runs = len(cfg.domains) * len(cfg.seeds)
    _set_cpus(monkeypatch, 64)
    assert (n_runs, harness._process_count(n_runs)) == (6, 6)
    _set_cpus(monkeypatch, 4)
    assert harness._process_count(n_runs) == 4
    _set_cpus(monkeypatch, 1)
    assert harness._process_count(n_runs) == 1
    _set_cpus(monkeypatch, 64)
    monkeypatch.delattr(os, "fork")  # a platform without fork trains in the calling process
    assert harness._process_count(n_runs) == 1


def test_a_diverging_loo_fails_alike_on_one_cpu_and_on_two(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "loo"), seeds=[0, 1], optimizer={"mode": "gac_fas", "eta0": 1e200}))
    cfg = load_config(str(cfg_path))
    outcomes = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        with pytest.raises(Exception) as info:
            run_leave_one_out(cfg)
        code = cli.main(["loo", "--config", str(cfg_path)])
        outcomes.append((type(info.value), str(info.value), code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    kind, message, code, err = outcomes[0]
    assert (kind, code) == (RuntimeError, 2) and message.startswith("optimizer step ")
    assert err == f"runtime error: {message}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind,code", [(RuntimeError, 2), (ConfigValueError, 1)])
def test_the_failing_run_with_the_lowest_index_is_raised_from_any_process(tmp_path, monkeypatch, capsys, kind, code):
    real = harness._train_on_split

    def failing(cfg, seed, held, split, *args):
        if held >= 1:  # with 3 processes, the second and third blocks fail
            raise kind(f"run held {held} seed {seed} failed")
        return real(cfg, seed, held, split, *args)

    monkeypatch.setattr(harness, "_train_on_split", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "loo"), seeds=[0, 1]))
    errors = []
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        with pytest.raises(kind, match=r"^run held 1 seed 0 failed$"):
            run_leave_one_out(load_config(str(cfg_path)))
        assert cli.main(["loo", "--config", str(cfg_path)]) == code
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].endswith("run held 1 seed 0 failed\n")


@pytest.mark.parametrize("how", ["signal", "unpicklable"])
def test_a_process_that_exits_without_a_result_names_its_first_run(tmp_path, monkeypatch, how):
    parent = os.getpid()
    real = harness._train_on_split

    class Unpicklable(Exception):  # a local class: pickle cannot name it
        pass

    def dying(cfg, seed, held, split, *args):
        if held == 2 and os.getpid() != parent:
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise Unpicklable("cannot be sent back")
        return real(cfg, seed, held, split, *args)

    monkeypatch.setattr(harness, "_train_on_split", dying)
    _set_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="^the process training the runs from held_out 2 seed 0 exited without a result$"):
        run_leave_one_out(tiny_config(str(tmp_path / "out"), seeds=(0, 1)))


@pytest.mark.parametrize("kind", [RuntimeError, KeyboardInterrupt])
def test_a_failure_in_the_calling_process_kills_and_reaps_every_other_process(tmp_path, monkeypatch, kind):
    parent = os.getpid()
    real = harness._train_on_split

    def failing_here(cfg, seed, held, split, *args):
        if os.getpid() == parent:
            raise kind("stopped")
        return real(cfg, seed, held, split, *args)

    monkeypatch.setattr(harness, "_train_on_split", failing_here)
    _set_cpus(monkeypatch, 3)
    with pytest.raises(kind, match="stopped"):
        run_leave_one_out(tiny_config(str(tmp_path / "out"), seeds=(0, 1)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spy(mp, owner, name) -> list:
    """A list that gets the positional arguments of each call of owner.name,
    which still runs."""
    calls = []
    real = getattr(owner, name)
    mp.setattr(owner, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def _refuse_forks(monkeypatch) -> None:
    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)


# 60 steps traced every 5 give 12 full-set records: on up to 7 CPUs every
# process computes some.
_CONVERGENCE = {"steps": 60, "eval_every": 30, "eval_window": 1}


def _convergence_config(**overrides) -> ExperimentConfig:
    return tiny_config(**{**_CONVERGENCE, **overrides})


@pytest.mark.parametrize("cpus", [None, 3])  # None: the real affinity mask
def test_cli_convergence_writes_the_same_files_on_one_cpu_and_on_several(tmp_path, monkeypatch, capsys, cpus):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(out), steps=60, eval_every=30, eval_window=1))
    masks = [{0}, os.sched_getaffinity(0) if cpus is None else set(range(cpus))]
    forks = _spy(monkeypatch, os, "fork")
    outputs = []
    for mask in masks:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
        forks.clear()
        assert cli.main(["convergence", "--config", str(cfg_path), "--window", "4", "--trace-every", "5"]) == 0
        outputs.append((_tree(out), capsys.readouterr(), len(forks)))
        out.rename(tmp_path / f"cpus{len(mask)}_{len(outputs)}")
    (serial, serial_io, serial_forks), (parallel, parallel_io, parallel_forks) = outputs
    run_files = ["diagnostics.csv", "manifest.json", "metrics.csv", "params.bin"]
    assert sorted(serial) == ["convergence.csv", *(f"convergence_run/{name}" for name in run_files)]
    assert (serial_forks, parallel_forks) == (0, min(len(masks[1]), 7) - 1)  # 12 records keep at most 7 processes busy
    assert sorted(parallel) == sorted(serial)
    assert [name for name in serial if parallel[name] != serial[name]] == []
    assert parallel_io == serial_io


def test_a_diverging_convergence_run_fails_alike_on_one_cpu_and_on_two(tmp_path, monkeypatch, capsys):
    # Traced every step, the record of step 2 is NaN before step 3's loss
    # is; on 2 CPUs that record is the worker's.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "conv"), optimizer={"mode": "gac_fas", "eta0": 1e200}))
    argv = ["convergence", "--config", str(cfg_path), "--window", "1", "--trace-every", "1"]
    forks = _spy(monkeypatch, os, "fork")
    outcomes = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        with np.errstate(all="ignore"):
            with pytest.raises(Exception) as info:
                run_convergence(load_config(str(cfg_path)), window=1, trace_every=1)
            code = cli.main(argv)
        outcomes.append((type(info.value), str(info.value), code, capsys.readouterr().err))
    assert len(forks) == 2  # a worker for each of the two runs on 2 CPUs
    message = (
        "full-set record at step 2 failed: not finite: loss_erm nan, grad_norm nan, surrogate_gap nan, "
        "alignment_cos (nan, nan), adv_grad_norms (nan, nan)"
    )
    assert outcomes == [(RuntimeError, message, 2, f"runtime error: {message}\n")] * 2
    assert not (tmp_path / "conv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_overflowing_run_traced_every_step_fails_where_training_does(tmp_path, monkeypatch, capsys):
    # No np.errstate: under the suite's warning filter an overflow raises
    # RuntimeWarning. The step-1 record holds finite values; it computes no
    # update of theta, so the run fails in the update of step 2, as train does.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "conv"), optimizer={"mode": "gac_fas", "eta0": 1e200}))
    forks = _spy(monkeypatch, os, "fork")
    outcomes = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        code = cli.main(["convergence", "--config", str(cfg_path), "--window", "1", "--trace-every", "1"])
        outcomes.append((code, capsys.readouterr().err))
    assert len(forks) == 1
    message = "optimizer step 2 failed: overflow encountered in multiply"
    assert outcomes == [(2, f"runtime error: {message}\n")] * 2
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert not (tmp_path / "conv").exists()


def test_a_full_set_record_that_is_not_finite_fails_on_one_cpu_and_on_two(tmp_path, monkeypatch, capsys):
    # Step 10's record is the worker's on 2 CPUs.
    real = harness.fullset_step_diagnostics

    def nan_at_10(spec, params, source, opt, t):
        diag = real(spec, params, source, opt, t)
        return dataclasses.replace(diag, grad_norm=math.nan) if t == 10 else diag

    monkeypatch.setattr(harness, "fullset_step_diagnostics", nan_at_10)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "conv"), steps=60, eval_every=30, eval_window=1))
    outcomes = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        code = cli.main(["convergence", "--config", str(cfg_path), "--window", "4", "--trace-every", "5"])
        outcomes.append((code, capsys.readouterr()))
    for code, io in outcomes:
        assert code == 2 and io.out == ""
        assert io.err == "runtime error: full-set record at step 10 failed: not finite: grad_norm nan\n"
    assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_earliest_failing_full_set_record_is_raised_from_any_process(tmp_path, monkeypatch, cpus):
    # Step 15's record is a worker's on 2 and 3 CPUs; the caller's own
    # record of step 20 or 30 fails after it.
    real = harness.fullset_step_diagnostics

    def failing(spec, params, source, opt, t):
        if t >= 15:
            raise ValueError(f"the record of step {t} failed")
        return real(spec, params, source, opt, t)

    monkeypatch.setattr(harness, "fullset_step_diagnostics", failing)
    _set_cpus(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match=r"^full-set record at step 15 failed: the record of step 15 failed$") as info:
        run_convergence(_convergence_config(output_dir=str(tmp_path / "out")), window=4, trace_every=5)
    cause = info.value.__cause__
    assert (type(cause), str(cause)) == (ValueError, "the record of step 15 failed")


def test_a_full_set_worker_killed_by_a_signal_is_named(tmp_path, monkeypatch):
    parent = os.getpid()
    real = harness.fullset_step_diagnostics

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(harness, "fullset_step_diagnostics", dying)
    _set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^the process computing the full-set records from step 10 exited without a result$"):
        run_convergence(_convergence_config(output_dir=str(tmp_path / "out")), window=4, trace_every=5)


def test_an_interrupt_in_the_caller_kills_and_reaps_the_full_set_worker(tmp_path, monkeypatch):
    parent = os.getpid()
    real = harness.fullset_step_diagnostics

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt("stopped")
        return real(*args)

    monkeypatch.setattr(harness, "fullset_step_diagnostics", interrupted)
    forks = _spy(monkeypatch, os, "fork")
    _set_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt, match="stopped"):
        run_convergence(_convergence_config(output_dir=str(tmp_path / "out")), window=4, trace_every=5)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_convergence_on_one_cpu_and_training_on_any_fork_nothing(tmp_path, monkeypatch):
    _refuse_forks(monkeypatch)
    cfg = _convergence_config(output_dir=str(tmp_path / "out"))
    _set_cpus(monkeypatch, 1)
    record, _ = run_convergence(cfg, window=4, trace_every=5)
    assert len(record.diagnostics) == 12
    _set_cpus(monkeypatch, 3)
    run_training(cfg, seed=0)


def test_loo_summary_json_is_strict_json_when_the_gap_is_not_tracked(tmp_path):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    opt = OptimizerConfig(mode="gac_fas", eta0=0.1, track_surrogate_gap=False)
    run_leave_one_out(tiny_config(output_dir=str(tmp_path), optimizer=opt))
    payload = json.loads((tmp_path / "loo_summary.json").read_text(), parse_constant=refuse)
    assert [run["surrogate_gap"] for run in payload["runs"]] == [None, None, None]
    assert all(math.isfinite(run["train_loss"]) for run in payload["runs"])
    runs_csv = (tmp_path / "loo_runs.csv").read_text().splitlines()
    assert runs_csv[0].endswith(",surrogate_gap") and all(line.endswith(",nan") for line in runs_csv[1:])


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


def test_sweep_cell_directories_match_the_csv_rows(tmp_path):
    # A numpy gamma grid and an int rho name their cell by the same float
    # the CSV row shows.
    cells = run_sweep(tiny_config(output_dir=str(tmp_path)), np.array([0.0]), [1])
    assert [(type(c["gamma"]), c["gamma"], type(c["rho"]), c["rho"]) for c in cells] == [(float, 0.0, float, 1.0)]
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["sweep_g0.0_r1.0"]
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1].startswith("0.0,1.0,1,")


def test_csv_writer_prints_ints_as_digits_and_floats_as_repr():
    row = [3, np.int64(4), 0.1, np.float64(1 / 3), math.nan, np.float32(0.5)]
    assert harness._csv(["a", "b", "c", "d", "e", "f"], [row]) == "a,b,c,d,e,f\n3,4,0.1,0.3333333333333333,nan,0.5\n"
    assert harness._csv(["a"], []) == "a\n"


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


def _fullset_case(seed: int):
    from gacfas import datagen

    cfg = tiny_config(optimizer=OptimizerConfig(mode="gac_fas", eta0=0.1, rho=0.2, gamma=0.01))
    source, _ = datagen.leave_one_out(list(cfg.domains), 2)
    return cfg, source, init_params(cfg.model, Prng(seed, 0))


def test_gac_fas_step_on_a_source_set_is_the_fullset_record():
    """fullset_step_diagnostics is the record of a gac_fas step on the whole
    source set, record for record along a run's iterates."""
    cfg, source, params = _fullset_case(0)
    opt = dataclasses.replace(cfg.optimizer, schedule="theorem1")
    assert optim._domain_parts(cfg.model, source).ids == (0, 1)  # the records' domain order
    for t in range(1, 6):
        params, _ = take_step(cfg.model, params, source, opt, t)
        full = fullset_step_diagnostics(cfg.model, params, source, opt, t + 1)
        assert repr(take_step(cfg.model, params, source, opt, t + 1)[1]) == repr(full)


@pytest.mark.parametrize("mode", MODES)
def test_fullset_diagnostics_carry_the_tracked_gap_whether_or_not_the_run_tracks_it(mode):
    cfg, source, params = _fullset_case(1)
    opt = OptimizerConfig(mode=mode, eta0=0.1, rho=0.2, gamma=0.01)
    tracked = fullset_step_diagnostics(cfg.model, params, source, opt, t=3)
    untracked = fullset_step_diagnostics(
        cfg.model, params, source, dataclasses.replace(opt, track_surrogate_gap=False), t=3
    )
    assert repr(untracked) == repr(tracked)
    assert math.isfinite(tracked.surrogate_gap) and tracked.surrogate_gap != 0.0


def test_harness_imports_no_private_name_from_optim():
    """The harness reaches the optimizer through take_step and
    gac_fas_record only, so the step body has one home."""
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "optim" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_process_model_has_one_home():
    """Every fork, pipe, kill and exit of a process, and every import of
    pickle and signal, is in _procs; the harness reaches it through _spread
    and _process_count only."""
    calls = {"fork", "pipe", "kill", "_exit"}
    homes = set()
    for path in Path(harness.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = node.value.id == "os" and node.attr in calls
            elif isinstance(node, ast.Import):
                used = any(alias.name in ("pickle", "signal") for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used = node.module in ("pickle", "signal") or (node.module == "os" and calls & {a.name for a in node.names})
            else:
                used = False
            if used:
                homes.add(path.name)
    assert homes == {"_procs.py"}
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "_procs" and node.level == 1
        for alias in node.names
    ]
    assert sorted(imported) == ["_process_count", "_spread"]


def test_the_cli_reaches_the_package_through_config_and_harness_only():
    """cli parses, loads, runs harness.preflight and one harness driver, and
    prints: it imports only config and harness from the package and names no
    private harness attribute, and only harness names the run manifest."""
    package = Path(harness.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gacfas":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.split(".")[0] == "gacfas"}
    assert imported == {"config", "harness"}
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "harness"
        if node.attr.startswith("_")
    ]
    assert private == []
    homes = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "manifest.json"
    }
    assert homes == {"harness.py"}


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


# ---------------------------------------------------- benchmark hooks ----

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_function_the_benchmark_traces_still_resolves():
    """perfbench/tracer.py wraps each (module, function) in its TRACED list
    wherever a gacfas module binds it; a renamed or removed one would drop
    that layer from the traced run without an error."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, function, _ in traced:
        assert callable(getattr(importlib.import_module(f"gacfas.{module}"), function)), (module, function)


def test_a_traced_in_process_run_reaches_every_traced_layer(tmp_path, monkeypatch):
    """perfbench/tracer.py, as it is, around tiny train, loo and convergence
    calls through cli.main on one CPU: every TRACED category records a call,
    every step goes through the traced take_step, and the harness computes
    each full-set record through the traced fullset_step_diagnostics, which
    is optim.gac_fas_record under the harness's name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    assert harness.fullset_step_diagnostics is optim.gac_fas_record
    # Tracer.install rebinds every traced function in every gacfas module;
    # setting each binding to itself through monkeypatch undoes that afterwards.
    modules = [m for name, m in sys.modules.items() if name == "gacfas" or name.startswith("gacfas.")]
    for module_name, attr, _ in tracer_mod.TRACED:
        original = getattr(sys.modules["gacfas." + module_name], attr)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracer = tracer_mod.Tracer()
    tracer.install()
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(out)))
    config = ["--config", str(cfg_path)]
    assert cli.main(["train", *config, "--seed", "0"]) == 0
    assert cli.main(["loo", *config]) == 0
    assert cli.main(["convergence", *config, "--window", "1", "--trace-every", "5"]) == 0
    categories = {category for _, _, category in tracer_mod.TRACED}
    assert sorted(c for c in categories if not tracer.calls[c]) == []
    metrics = tracer.metrics()
    assert metrics["optim.steps"] == 10 + 3 * 10 + 10  # train, loo over 3 held-out domains, convergence
    records = (out / "convergence_run" / "diagnostics.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert metrics["harness.fullset_diag_calls"] == len(records) == 2


@pytest.mark.parametrize("run", ["training", "convergence"])
def test_a_take_step_bound_into_harness_runs_every_step(tmp_path, monkeypatch, run):
    """perfbench/child.py times set-up by assigning its own function to
    harness.take_step, so both loops must call the step through that name."""
    assert "harness.take_step = " in (PERFBENCH / "child.py").read_text(encoding="utf-8")
    steps = _spy(monkeypatch, harness, "take_step")
    cfg = tiny_config(str(tmp_path / "out"), steps=20, eval_every=10)
    if run == "training":
        run_training(cfg, seed=0)
    else:
        run_convergence(cfg, window=2, trace_every=5)
    assert [args[4] for args in steps] == list(range(1, cfg.steps + 1))


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
    assert default_experiment("erm", optimizer={"mode": "sam_whole"}).optimizer.mode == "sam_whole"
    with pytest.raises(TypeError):  # a dict, not an OptimizerConfig, which would bring a mode of its own
        default_experiment("erm", optimizer=OptimizerConfig())


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


def test_cli_loo_and_sweep(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(tmp_path / "loo"), seeds=[0]))
    assert cli.main(["loo", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "loo" / "loo_summary.csv").exists()

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(tiny_config_json(str(tmp_path / "sweep")))
    assert cli.main(["sweep", "--config", str(sweep_cfg), "--gammas", "0.0,0.01", "--rhos", "0.1"]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").exists()


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


def _bytes_and_listings(root) -> dict:
    """Every file's bytes and every directory's listing under root."""
    return {
        path: path.read_bytes() if path.is_file() else sorted(p.name for p in path.iterdir())
        for path in [Path(root), *Path(root).rglob("*")]
    }


_PREFLIGHT_ARGS = {
    "train": ["--seed", "0"],
    "loo": [],
    "sweep": ["--gammas", "0.0", "--rhos", "0.1"],
    "landscape": ["--steps", "3"],
    "convergence": ["--window", "1", "--trace-every", "5"],
}
# A manifest's bytes, and what train --seed 0 says after the manifest's path
# when it refuses it.
_MANIFESTS = {
    "same seed": (b'{"seed": 0}', None),
    "other seed": (
        b'{"seed": 1}',
        " records seed 1; train --seed 0 would overwrite that run's files (set a different output_dir for seed 0)",
    ),
    "bad JSON": (
        b"{truncated",
        " is not a readable run manifest: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "not UTF-8": (
        b"\xff\xfe{}",
        " is not a readable run manifest: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
}


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(_PREFLIGHT_ARGS)),
    out=st.sampled_from(["absent", "a directory", "a file", "under a file"]),
    run_files=st.tuples(*[st.sampled_from(["absent", "a file", "a directory"])] * 4),
    manifest=st.sampled_from(sorted(_MANIFESTS)),
)
@example(command="train", out="a directory", run_files=("a file", "a directory", "absent", "absent"), manifest="same seed")
@example(command="train", out="a directory", run_files=("a file", "a file", "a file", "a file"), manifest="same seed")
@example(command="train", out="a directory", run_files=("a file", "absent", "absent", "absent"), manifest="other seed")
@example(command="train", out="a directory", run_files=("a file", "absent", "absent", "absent"), manifest="bad JSON")
@example(command="train", out="a directory", run_files=("a file", "absent", "absent", "absent"), manifest="not UTF-8")
@example(command="loo", out="a directory", run_files=("a directory",) * 4, manifest="same seed")
@example(command="train", out="a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="train", out="under a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="loo", out="a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="loo", out="under a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="sweep", out="a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="sweep", out="under a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="landscape", out="a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="landscape", out="under a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="convergence", out="a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="convergence", out="under a file", run_files=("absent",) * 4, manifest="same seed")
@example(command="train", out="a directory", run_files=("a directory", "absent", "absent", "absent"), manifest="same seed")
@example(command="train", out="a directory", run_files=("absent", "a directory", "absent", "absent"), manifest="same seed")
@example(command="train", out="a directory", run_files=("absent", "absent", "a directory", "absent"), manifest="same seed")
@example(command="train", out="a directory", run_files=("absent", "absent", "absent", "a directory"), manifest="same seed")
def test_the_preflight_refuses_exactly_what_its_rule_names(tmp_path, capsys, command, out, run_files, manifest):
    """Every subcommand refuses an output_dir that is, or lies under, a file;
    train also refuses a run file that is a directory (the first in RUN_FILES
    order) and a manifest that is unreadable or records another seed. A
    refusal exits 1 with the error line the rule gives, and on the real
    affinity mask trains no step, realizes no domain, forks no process and
    changes no byte or listing; anything else exits 0."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    out_dir = blocker = root / "out"
    if out == "a directory":
        out_dir.mkdir()
        for name, kind in zip(harness.RUN_FILES.values(), run_files):
            if kind == "a directory":
                (out_dir / name).mkdir()
            elif kind == "a file":
                (out_dir / name).write_bytes(_MANIFESTS[manifest][0] if name == "manifest.json" else b"old\n")
    elif out == "a file":
        out_dir.write_bytes(b"not a directory\n")
    elif out == "under a file":
        blocker = root / "afile"
        blocker.write_bytes(b"not a directory\n")
        out_dir = blocker / "out"
    text = tiny_config_json(str(out_dir))
    (root / "cfg.json").write_text(text)
    (root / "params.bin").write_bytes(params_bin(init_params(parse_config(text).model, Prng(0, 0))))
    extra = ["--checkpoint", str(root / "params.bin")] if command == "landscape" else []
    before = _bytes_and_listings(root)

    train_in_a_directory = command == "train" and out == "a directory"
    if out in ("a file", "under a file"):
        refusal = f"output_dir {out_dir}: {blocker} is not a directory"
    elif train_in_a_directory and "a directory" in run_files:
        key, name = list(harness.RUN_FILES.items())[run_files.index("a directory")]
        refusal = f"run {key} is not a regular file: {out_dir / name}"
    elif train_in_a_directory and run_files[0] == "a file" and _MANIFESTS[manifest][1]:
        refusal = f"{out_dir / 'manifest.json'}{_MANIFESTS[manifest][1]}"
    else:
        refusal = None

    with pytest.MonkeyPatch.context() as mp:
        steps = _spy(mp, harness, "take_step")
        realized = _spy(mp, harness.datagen, "leave_one_out")
        if refusal:
            _refuse_forks(mp)
        else:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        code = cli.main([command, "--config", str(root / "cfg.json"), *_PREFLIGHT_ARGS[command], *extra])
    err = capsys.readouterr().err

    if refusal:
        assert (code, err) == (1, f"error: {refusal}\n")
        assert steps == [] and realized == [] and _bytes_and_listings(root) == before
    else:
        assert code == 0, err


_CONFIG = ["--config", "{cfg}"]
_RECORDS = " (the number of full-set records, steps // trace_every)"


def _sweep_rows(flag: str, grid: str, message: str) -> list:
    """Rows for a bad grid, which the sweep command and run_sweep refuse alike."""
    grids = {"gammas": [0.0], "rhos": [0.1], flag[2:]: [float(v) for v in grid.split(",")]}
    return [(["sweep", *_CONFIG, flag, grid], {}, f"{flag}: {message}"), (partial(run_sweep, **grids), {}, f"{flag}: {message}")]


# Calls refused before anything happens: (argv, or a driver call on the
# config; config tweaks, or the config file's whole text; the error line).
# {tmp} is the test's directory and {cfg} the config file in it.
REFUSALS = [
    (["train", "--config", "{tmp}/missing.json", "--seed", "0"], {}, "config file not found: {tmp}/missing.json"),
    (["train", "--config", "{tmp}", "--seed", "0"], {}, "config file is not a regular file: {tmp}"),
    (["train", *_CONFIG, "--seed", "0"], "{not json", "{cfg}:1:2: Expecting property name enclosed in double quotes"),
    (
        ["train", *_CONFIG, "--seed", "0"],
        {"bogus_key": 1},
        "config: unknown key 'bogus_key' (allowed: ['diagnostics_every', 'domains', 'eval_every', 'eval_window', "
        "'held_out', 'model', 'optimizer', 'output_dir', 'per_domain_batch', 'seeds', 'steps'])",
    ),
    (["train", *_CONFIG, "--seed", "0"], {"held_out": "all"}, "train requires an integer held_out domain, got 'all'"),
    (["train", *_CONFIG, "--seed", "-1"], {}, "--seed: expected a non-negative integer, got -1"),
    (["train", *_CONFIG, "--seed", "0"], {"diagnostics_every": 20}, "diagnostics_every=20 must be in [1, steps=10]"),
    (["train"], {}, "the following arguments are required: --config, --seed"),
    # argparse's list of choices is worded differently across Python versions.
    (["no-such-command"], {}, re.compile(r"argument command: invalid choice: 'no-such-command' \(choose from .*\)")),
    (["landscape", *_CONFIG, "--checkpoint", "{tmp}"], {}, "checkpoint is not a regular file: {tmp}"),
    (["convergence", *_CONFIG, "--window", "100"], {"steps": 40}, f"window=100 must be in [1, 8]{_RECORDS}"),
    (["sweep", *_CONFIG, "--gammas", "abc", "--rhos", "0.1"], {}, "--gammas: expected comma-separated numbers, got 'abc'"),
    *[
        (["sweep", *_CONFIG, "--gammas", grid], {}, f"--gammas: expected comma-separated numbers, got {grid!r}")
        for grid in ("0.1,,0.2", "0.1,", ",0.1")
    ],
    *_sweep_rows("--gammas", "nan", "gamma must be finite and >= 0, got nan"),
    *_sweep_rows("--rhos", "inf", "rho must be finite and >= 0, got inf"),
    *_sweep_rows("--gammas", "0.0,-1", "gamma must be finite and >= 0, got -1.0"),
    *_sweep_rows("--gammas", "0.0,0,0.0", "values must be distinct, got [0.0, 0.0, 0.0] (repeated: [0.0])"),
    *_sweep_rows("--rhos", "0.1,0.2,0.1,0.2", "values must be distinct, got [0.1, 0.2, 0.1, 0.2] (repeated: [0.1, 0.2])"),
    *_sweep_rows("--gammas", "0.0,-0.0", "values must be distinct, got [0.0, -0.0] (repeated: [0.0])"),
    (partial(run_sweep, gammas=[True], rhos=[0.1]), {}, "--gammas: gamma must be a finite number, got True"),
    (partial(run_sweep, gammas=[0.0], rhos=["0.1"]), {}, "--rhos: rho must be a finite number, got '0.1'"),
    (partial(run_sweep, gammas=[], rhos=[0.1]), {}, "--gammas: grid is empty"),
    (partial(run_sweep, gammas=[0.0], rhos=[0.1]), {"held_out": "all"}, "sweep requires an integer held_out domain, got 'all'"),
    (partial(run_convergence, window=0, trace_every=5), {}, f"window=0 must be in [1, 2]{_RECORDS}"),
    (partial(run_convergence, window=3, trace_every=5), {}, f"window=3 must be in [1, 2]{_RECORDS}"),
    (partial(run_convergence, window=4, trace_every=True), _CONVERGENCE, "trace_every must be an int, got True"),
    (partial(run_convergence, window=4, trace_every=5.5), _CONVERGENCE, "trace_every must be an int, got 5.5"),
    (partial(run_convergence, window=2.0, trace_every=5), _CONVERGENCE, "window must be an int, got 2.0"),
    (partial(run_convergence, window=True, trace_every=5), _CONVERGENCE, "window must be an int, got True"),
    (partial(run_convergence, window=4, trace_every=0), _CONVERGENCE, "trace_every must be >= 1, got 0"),
    (partial(run_convergence, window=13, trace_every=5), _CONVERGENCE, f"window=13 must be in [1, 12]{_RECORDS}"),
]


def _refusal_id(call, tweaks, stderr) -> str:
    if isinstance(call, partial):
        name = f"{call.func.__name__}({', '.join(f'{k}={v!r}' for k, v in call.keywords.items())})"
    else:
        name = " ".join(arg for arg in call if arg not in _CONFIG)
    return f"{name} {tweaks}" if tweaks else name


@pytest.mark.parametrize("call,tweaks,stderr", REFUSALS, ids=[_refusal_id(*row) for row in REFUSALS])
def test_a_refused_call_exits_1_by_name_and_touches_nothing(tmp_path, monkeypatch, capsys, call, tweaks, stderr):
    """A CLI call exits 1, and a driver call raises ConfigValueError, with
    the whole error line; on the real affinity mask it trains no step,
    realizes no domain, forks no process and changes nothing under the
    test's directory, where output_dir would be."""
    names = {"tmp": tmp_path, "cfg": tmp_path / "cfg.json"}
    out_dir = str(tmp_path / "out")
    names["cfg"].write_text(tweaks if isinstance(tweaks, str) else tiny_config_json(out_dir, **tweaks))
    steps = _spy(monkeypatch, harness, "take_step")
    realized = _spy(monkeypatch, harness.datagen, "leave_one_out")
    _refuse_forks(monkeypatch)
    before = _bytes_and_listings(tmp_path)

    if isinstance(call, partial):
        with pytest.raises(ConfigValueError) as info:
            call(tiny_config(out_dir, **tweaks))
        err = f"error: {info.value}\n"
    else:
        assert cli.main([arg.format(**names) for arg in call]) == 1
        err = capsys.readouterr().err

    if isinstance(stderr, str):
        assert err == f"error: {stderr.format(**names)}\n"
    else:
        assert re.fullmatch(f"error: {stderr.pattern}\n", err), err
    assert steps == [] and realized == [] and _bytes_and_listings(tmp_path) == before


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


def test_cli_landscape_refuses_a_checkpoint_of_another_model_domains_or_held_out(tmp_path, capsys):
    """The manifest beside a checkpoint names the run that wrote it: a slice
    under a config of another model, other domains or another held_out is
    refused by both paths and the first key that differs, and writes nothing."""
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config_json(str(run_dir)))
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    capsys.readouterr()
    ckpt, manifest = run_dir / "params.bin", run_dir / "manifest.json"
    domains = json.loads(tiny_config_json("out"))["domains"]
    domains[0]["noise_sigma"] = 0.2
    for key, tweaks in (
        ("model", {"model": {"layer_sizes": [2, 4, 2], "activation": "relu"}}),  # the same parameter count
        ("domains", {"domains": domains}),
        ("held_out", {"held_out": 1}),
        ("model", {"model": {"layer_sizes": [2, 4, 2], "activation": "relu"}, "held_out": 1}),
    ):
        other = tmp_path / "other.json"
        other.write_text(tiny_config_json(str(tmp_path / "other"), **tweaks))
        assert cli.main(["landscape", "--config", str(other), "--checkpoint", str(ckpt), "--steps", "5"]) == 1
        message = f"error: checkpoint {ckpt} is not a run of this config: {manifest} records another {key}\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "other").exists()
    manifest.write_text("[]")  # JSON, but no run's manifest
    assert cli.main(["landscape", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--steps", "5"]) == 1
    assert capsys.readouterr().err.endswith(f"{manifest} records another model\n")
    assert not (run_dir / "landscape.csv").exists()


def test_cli_landscape_matches_a_rotation_run_by_the_run_s_own_held_out(tmp_path, capsys):
    """A leave-one-out run's manifest echoes held_out "all" in its config;
    the slice must match the held_out the run records for itself. A
    checkpoint with no manifest beside it is read as the config's model."""
    loo_cfg = tmp_path / "loo.json"
    loo_cfg.write_text(tiny_config_json(str(tmp_path / "loo"), held_out="all"))
    assert cli.main(["loo", "--config", str(loo_cfg)]) == 0
    ckpt = tmp_path / "loo" / "held1_seed0" / "params.bin"
    for held, code in ((1, 0), (2, 1)):
        land = tmp_path / f"land{held}.json"
        land.write_text(tiny_config_json(str(tmp_path / f"land{held}"), held_out=held))
        assert cli.main(["landscape", "--config", str(land), "--checkpoint", str(ckpt), "--steps", "5"]) == code
    assert capsys.readouterr().err.endswith("records another held_out\n")
    assert (tmp_path / "land1" / "landscape.csv").exists() and not (tmp_path / "land2").exists()
    (tmp_path / "bare").mkdir()
    cfg_path, bare, out_dir = _landscape_setup(tmp_path / "bare")
    assert cli.main(["landscape", "--config", str(cfg_path), "--checkpoint", str(bare), "--steps", "5"]) == 0
    assert (out_dir / "landscape.csv").exists()


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


def test_convergence_csv_and_the_run_diagnostics_share_adv_grad_sq_mean(tmp_path):
    """With one record per window, convergence.csv's adv_grad_sq_mean is the
    run's diagnostics.csv column, text for text: one definition serves both."""
    cfg = tiny_config(str(tmp_path), steps=60, eval_every=30, eval_window=1)
    record, _ = run_convergence(cfg, window=1, trace_every=5)
    assert len(record.manifest["train_domains"]) >= 2

    def column(path):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        return [row[header.index("adv_grad_sq_mean")] for row in rows]

    ours = column(tmp_path / "convergence.csv")
    assert len(ours) == 12 and len(set(ours)) > 1
    assert ours == column(tmp_path / "convergence_run" / "diagnostics.csv")


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
