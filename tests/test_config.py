"""The config contract, drawn: a valid config with every key of config._keys
at the edges of its range, and every case of seven kinds of single fault in
it, each checked through the reader, the dataclasses built in code and the CLI."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import decimal
import functools
import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gacfas import cli, harness
from gacfas.config import ConfigKeyError, ConfigParseError, ConfigValueError, ExperimentConfig, _keys, config_digest
from gacfas.config import config_to_dict, config_to_json, load_config, parse_config
from gacfas.datagen import DomainSpec
from gacfas.model import ACTIVATIONS, MlpSpec, init_params
from gacfas.numerics import Prng
from gacfas.optim import MODES, SCHEDULE_KINDS, OptimizerConfig

from helpers import TINY_CONFIG, bytes_and_listings, refuse_forks, spy

_CLASSES = {cls.__name__: cls for cls in (ExperimentConfig, MlpSpec, DomainSpec, OptimizerConfig)}
_NAMES = {f.name for cls in _CLASSES.values() for f in dataclasses.fields(cls)}


def _json_keys(cls) -> list:
    """A section's JSON keys, apart from config._keys: its fields but period_steps, which a run derives."""
    return sorted(f.name for f in dataclasses.fields(cls) if (cls, f.name) != (OptimizerConfig, "period_steps"))


def _class_of(section: tuple):
    return {(): ExperimentConfig, ("model",): MlpSpec, ("optimizer",): OptimizerConfig}.get(section, DomainSpec)


def _sections(raw: dict) -> list:
    """The key path of each JSON object: (), ("model",), ("optimizer",), ("domains", 0), ..."""
    return [(), ("model",), ("optimizer",), *[("domains", i) for i in range(len(raw["domains"]))]]


def _named(path: tuple) -> str:
    """How a message names the object or key at path: config, config.steps,
    config.domains, model, model.activation, domains[1], domains[1].seed."""
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    nested = path[:1] in (("model",), ("optimizer",)) or path[:1] == ("domains",) and len(path) > 1
    return text[1:] if nested else "config" + text


def _get(raw: dict, path: tuple):
    for part in path:
        raw = raw[part] if isinstance(part, int) else raw.get(part, {})
    return raw


def _at(raw: dict, path: tuple, value) -> dict:
    """A copy of raw with the object or value at path set to value."""
    if not path:
        return value
    top = node = copy.deepcopy(raw)
    for part in path[:-1]:
        node = node[part] if isinstance(part, int) else node.setdefault(part, {})
    node[path[-1]] = value
    return top


def _text(raw: dict, indent) -> str:
    """raw as JSON text. A string "@@<text>@@", key or value, and a Decimal
    are written as the JSON text they hold: bad, "steps", NaN, 1E+999."""
    marked = json.dumps(raw, indent=indent, default=lambda value: f"@@{value}@@")
    return re.sub(r'"@@(.*?)@@"', lambda m: json.loads(f'"{m.group(1)}"'), marked)


def _in_code(raw: dict) -> ExperimentConfig:
    """raw built in code: each JSON object as its dataclass, without the reader."""
    section = lambda cls, value: cls(**value) if isinstance(value, dict) else value
    values = {**raw, "model": section(MlpSpec, raw["model"])}
    if "optimizer" in raw:
        values["optimizer"] = section(OptimizerConfig, raw["optimizer"])
    if isinstance(raw["domains"], list):
        values["domains"] = [section(DomainSpec, d) for d in raw["domains"]]
    return ExperimentConfig(**values)


def _holds(value, annotation: str) -> bool:
    """value is of its annotation's type: a tuple for a sequence, a float for a float."""
    if annotation.startswith("tuple["):
        return type(value) is tuple and all(_holds(v, annotation[6:].split(",")[0].rstrip("]")) for v in value)
    if annotation in _CLASSES:
        fields = dataclasses.fields(_CLASSES[annotation])
        return type(value) is _CLASSES[annotation] and all(_holds(getattr(value, f.name), f.type) for f in fields)
    return type(value).__name__ in annotation.split(" | ")


class Case(NamedTuple):
    """A config file with one fault; what reading it and building raw in code raise, as (class, message)."""
    text: str | bytes
    error: tuple
    in_code: tuple | None = None
    raw: dict | None = None


def _unknown(section: tuple, key: str) -> tuple:
    return ConfigKeyError, f"{_named(section)}: unknown key {key!r} (allowed: {_json_keys(_class_of(section))})"


def _value_case(raw: dict, path: tuple, value, in_code: tuple, indent) -> Case:
    """raw with the object or value at path set to value. The reader raises a ConfigValueError of building
    it as is; a ValueError "<key> must be X, got V" as "<key path>: expected X, got V", any other after
    its section's path. The JSON key period_steps is unknown."""
    section, raw = path if path in _sections(raw) else path[:-1], _at(raw, path, value)
    field, must, rest = in_code[1].partition(" must be ")
    if path[-1] == "period_steps":
        error = _unknown(section, "period_steps")
    elif in_code[0] is ConfigValueError:
        error = in_code
    elif must and field in _json_keys(_class_of(section)):
        error = ConfigValueError, f"{_named((*section, field))}: expected {rest}"
    else:
        error = ConfigValueError, f"{_named(section)}: {in_code[1]}"
    return Case(_text(raw, indent), error, in_code, raw)


# What a type check says a value must be, "<field> must be <this>, got <value>", by type, then by field.
_MUST_BE = {
    "float": "a finite number", "int": "an integer", "bool": "true/false", "int | str": 'an index or "all"',
    "MlpSpec": "an MlpSpec", "OptimizerConfig": "an OptimizerConfig", "DomainSpec": "a DomainSpec",
    "n_samples": "an integer >= 2", "seed": "a non-negative integer", "seeds": "a non-negative integer",
    "layer_sizes": "a positive integer", "activation": f"one of {ACTIVATIONS}", "mode": f"one of {MODES}",
    "schedule": f"one of {SCHEDULE_KINDS}", "output_dir": "a string without NUL bytes",
}
# Values of another JSON type than a type's; "list" is a sequence's, "object" a section's.
_WRONG = {
    "float": ["x", True, None, [1.0]], "int": [2.5, 2.0, "2", True, None], "bool": [1, "true", None],
    "str": [5, None, ["tanh"]], "int | str": [1.5, True, None, [0]], "list": ["x", 5, {"a": 1}, None],
    "object": ["x", 5, [], None],
}
_NOT_FINITE = [decimal.Decimal(text) for text in ("NaN", "Infinity", "-Infinity", "1e999", "-1e400")]


def _typed_cases(raw: dict, kind: str, indent) -> list:
    """A case for each field of each section, period_steps included, and each value of its list: the
    field, or any one item of a sequence, of another type ("wrong type"); or a number set to a literal
    that is not a finite float, which the reader holds as a Decimal or an int ("non-finite literal")."""
    cases = []
    for section in _sections(raw):
        for f in dataclasses.fields(_class_of(section)):
            path, sequence = (*section, f.name), f.type.startswith("tuple[")
            items = list(_get(raw, path) or []) if sequence else []
            item = f.type[6:].split(",")[0].rstrip("]")
            for at, typed in [(None, "list" if sequence else f.type)] + [(i, item) for i in range(len(items) or sequence)]:
                if kind == "wrong type":
                    values = _WRONG["object" if typed in _CLASSES else typed]
                elif typed in ("float", "int", "int | str"):
                    values = _NOT_FINITE + [10**400] * (typed == "float")
                else:
                    continue
                must = "a list" if typed == "list" else _MUST_BE.get(f.name) or _MUST_BE[typed]
                for shown in values:
                    value = shown if at is None else [*items[:at], shown, *items[at + 1:]]
                    case = _value_case(raw, path, value, (ValueError, f"{f.name} must be {must}, got {shown!r}"), indent)
                    if typed in _CLASSES:  # a section, or a domain: the reader wants an object
                        named = _named(path if at is None else (*path, at))
                        case = case._replace(error=(ConfigValueError, f"{named}: expected an object, got {shown!r}"))
                    cases.append(case)
    return cases


def _refused_values(raw: dict, turn: int) -> list:
    """(path, value, in-code error): a value of the right type that a check
    refuses, for every check; the step checks also set schedule "step"."""
    n, steps, evals, seeds = len(raw["domains"]), raw["steps"], raw["steps"] // raw.get("eval_every", 100), raw["seeds"]
    sizes, layers = [d.get("n_samples", 2000) for d in raw["domains"]], raw["model"]["layer_sizes"]
    dom, opt, step = ("domains", turn % n), ("optimizer",), {**raw.get("optimizer", {}), "schedule": "step"}
    bad, field = (lambda message: (ConfigValueError, message)), (lambda message: (ValueError, message))
    io = "model must map 2 input features to 2 classes for the synthetic task, got"
    small, least = sizes.index(min(sizes)), min(sizes)
    nonnegative = ("eta0", "rho", "gamma", "weight_decay", "zero_grad_eps")
    return [
        (("domains",), raw["domains"][:1], bad("at least 2 domains are required (one may be held out)")),
        *[(("held_out",), held, bad(f"held_out index {held} out of range for {n} domains")) for held in (n, -1)],
        (("held_out",), "some", bad("held_out must be a domain index or \"all\", got 'some'")),
        (("model", "layer_sizes"), [3, *layers[1:]], bad(f"{io} {(3, *layers[1:])}")),
        (("model", "layer_sizes"), [*layers[:-1], 3], bad(f"{io} {(*layers[:-1], 3)}")),
        (("model", "layer_sizes"), [*layers[:-1], 0], field("layer_sizes must be a positive integer, got 0")),
        (("model", "layer_sizes"), [2], field("layer_sizes needs at least input and output layers")),
        (("model", "layer_sizes"), [2, 1], field("output dim must be >= 2 classes, got 1")),
        *[(path, "sgd", field(f"{path[-1]} must be {_MUST_BE[path[-1]]}, got 'sgd'")) for path in (
            ("model", "activation"), (*opt, "mode"), (*opt, "schedule"))],
        *[((*opt, key), -1e-9, field(f"{key} must be finite and >= 0, got -1e-09")) for key in nonnegative],
        (opt, {**step, "step_period_epochs": 0}, field("step period must be >= 1 epoch, got 0")),
        *[(opt, {**step, "step_factor": f}, field(f"step factor must be in (0, 1], got {float(f)}")) for f in (0, 1.5)],
        ((*opt, "period_steps"), 5, bad("optimizer.period_steps must be 0 (a run derives it from step_period_epochs), got 5")),
        ((*dom, "n_samples"), 1, field("n_samples must be an integer >= 2, got 1")),
        ((*dom, "seed"), -5, field("seed must be a non-negative integer, got -5")),
        ((*dom, "noise_sigma"), -0.1, field("noise_sigma must be finite and >= 0, got -0.1")),
        ((*dom, "translation"), [1, 2, 3], field("translation must be a 2-vector, got (1.0, 2.0, 3.0)")),
        *[((key,), 0, bad(f"{key} must be >= 1, got 0")) for key in ("steps", "per_domain_batch", "eval_every")],
        (("per_domain_batch",), least + 1, bad(f"domain {small} has {least} samples, fewer than per_domain_batch={least + 1}")),
        (("eval_every",), steps + 1, bad(f"steps={steps} must be a multiple of eval_every={steps + 1}")),
        *[(("eval_window",), w, bad(f"eval_window={w} must be in [1, {evals}] (the number of evaluations)"))
          for w in (0, evals + 1)],
        *[(("diagnostics_every",), d, bad(f"diagnostics_every={d} must be in [1, steps={steps}]")) for d in (0, 2 * steps)],
        (("seeds",), [], bad("seeds must be nonempty")),
        (("seeds",), [-3], field("seeds must be a non-negative integer, got -3")),
        (("seeds",), [*seeds, seeds[0]], bad(f"seeds must be distinct, got {[*seeds, seeds[0]]} (repeated: {[seeds[0]]})")),
        (("output_dir",), "out\0", field("output_dir must be a string without NUL bytes, got 'out\\x00'")),
    ]


def _faults(raw: dict, kind: str, turn: int, indent) -> list:
    """Every case of one kind of fault in raw; turn rotates the values and keys they take."""
    if kind in ("wrong type", "non-finite literal"):
        return _typed_cases(raw, kind, indent)
    if kind == "out of range":
        return [_value_case(raw, *fault, indent) for fault in _refused_values(raw, turn)]
    cases = []
    for s, section in enumerate(_sections(raw)):
        obj, name, keys = _get(raw, section), _named(section), _json_keys(_class_of(section))
        key = list(obj)[(turn + s) % len(obj)] if obj else None
        if kind == "unknown key":  # period_steps, and a key of another section or of none
            others = sorted(_NAMES - {*keys, "period_steps"} | {"learning_rate", ""})
            for unknown in ("period_steps", others[(turn + s) % len(others)]):
                cases.append(Case(_text(_at(raw, section, {**obj, unknown: 0.1}), indent), _unknown(section, unknown)))
        elif kind == "repeated key" and obj:  # json.loads would keep the last value
            repeated = _at(raw, section, {f"@@{json.dumps(key)}@@": obj[key], **obj})
            cases.append(Case(_text(repeated, indent), (ConfigKeyError, f"cfg.json: key {key!r} is repeated in one object")))
        elif kind == "missing key":
            for f in dataclasses.fields(_class_of(section)):
                if f.default is f.default_factory is dataclasses.MISSING:
                    short = _at(raw, section, {k: v for k, v in obj.items() if k != f.name})
                    cases.append(Case(_text(short, indent), (ConfigValueError, f"{name}: missing required key {f.name!r}")))
        elif kind == "not JSON" and obj:  # a bare word in place of the first key, and of a value
            renamed = {"@@bad@@" if k == list(obj)[0] else k: v for k, v in obj.items()}
            for bare, message in (
                (_at(raw, section, renamed), "Expecting property name enclosed in double quotes"),
                (_at(raw, (*section, key), "@@bad@@"), "Expecting value"),
            ):
                text = _text(bare, indent)
                pos = text.index("bad")
                line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
                cases.append(Case(text, (ConfigParseError, f"cfg.json:{line}:{column}: {message}")))
    if kind == "not JSON":
        text = _text(raw, indent).encode("utf-8")
        for pos in (0, turn * 7919 % len(text)):
            error = (ConfigParseError, f"cfg.json: not UTF-8 text: invalid start byte at byte {pos}")
            cases.append(Case(text[:pos] + b"\xff" + text[pos:], error))
    return cases


# Valid values of the sections' keys at the edges of their ranges; a float at times an int.
_EDGES = {
    "activation": ACTIVATIONS, "mode": MODES, "schedule": SCHEDULE_KINDS, "track_surrogate_gap": (True, False),
    "rotation": (0.0, 1, -2.5), "translation": ([0.0, 0.0], [1, -0.5]), "noise_sigma": (0.0, 0.15, 1),
    "n_samples": (2, 3, 2000), "seed": (0, 3), "eta0": (0.1, 0.0, 1, 1e300), "rho": (0.1, 0.0, 2),
    "gamma": (0.0002, 0.0, 1), "weight_decay": (0.0001, 0, 0.5), "step_period_epochs": (1, 40),
    "step_factor": (0.1, 1), "zero_grad_eps": (1e-12, 0.0, 1e6),
}


@st.composite
def _valid_configs(draw) -> dict:
    """A valid config as JSON data, from config._keys: each key at the edges of its range, and each
    optional key at times left out (eval_window and diagnostics_every when they are their default, 10)."""
    pick = lambda *values: draw(st.sampled_from(values))
    some = lambda cls: {key: pick(*_EDGES[key]) for key in _keys(cls) if key != "layer_sizes" and draw(st.booleans())}
    domains = [some(DomainSpec) for _ in range(pick(2, 3))]
    every, evals = pick(1, 2), pick(1, 2, 10)
    steps, smallest = every * evals, min(d.get("n_samples", 2000) for d in domains)
    raw = {
        "model": {"layer_sizes": pick([2, 2], [2, 1, 2], [2, 3, 2], [2, 2, 1, 2]), **some(MlpSpec)},
        "domains": domains,
        "optimizer": some(OptimizerConfig),
        "held_out": pick("all", *range(len(domains))),
        "steps": steps,
        "per_domain_batch": pick(1, min(smallest, 8)),
        "seeds": draw(st.lists(st.sampled_from([0, 1, 7]), min_size=1, max_size=2, unique=True)),
        "output_dir": pick("out", "out/run"),
        "eval_every": every,
        "eval_window": pick(1, evals),
        "diagnostics_every": pick(1, steps, min(steps, 10)),
    }
    assert sorted(raw) == sorted(_keys(ExperimentConfig))
    for key in ("optimizer", "eval_window", "diagnostics_every"):  # left out, each takes its default
        if (key == "optimizer" or raw[key] == 10) and draw(st.booleans()):
            del raw[key]
    return raw


# Every edge one run can take at once, eval_every left to its default (100); eta0 1e300 may overflow.
_EDGE = {key: value for key, value in TINY_CONFIG.items() if key != "eval_every"} | {
    "model": {"layer_sizes": [2, 1, 2], "activation": "relu"}, "held_out": "all",
    "domains": [{"n_samples": 2}, {"n_samples": 2, "seed": 1}], "optimizer": {"eta0": 1e300},
    "steps": 100, "per_domain_batch": 1, "eval_window": 1, "diagnostics_every": 100,
}
_COMMANDS = {  # each subcommand's arguments but --config
    "train": ["--seed", "0"], "loo": [], "sweep": ["--gammas", "0.0", "--rhos", "0.1"],
    "convergence": ["--window", "1", "--trace-every", "1"], "landscape": ["--checkpoint", "params.bin", "--steps", "3"],
}
_KINDS = ["wrong type", "out of range", "non-finite literal", "unknown key", "repeated key", "missing key", "not JSON"]
_FAILED_AT_A_STEP = re.compile(r"runtime error: (optimizer|evaluation at|full-set record at) step \d+ failed: .+\n")


def _check_refused(case: Case, command: str, capsys, steps: list, realized: list) -> None:
    Path("cfg.json").write_bytes(case.text if isinstance(case.text, bytes) else case.text.encode("utf-8"))
    before = bytes_and_listings(".")
    with pytest.raises(Exception) as info:
        parse_config(case.text, "cfg.json") if isinstance(case.text, str) else load_config("cfg.json")
    assert (type(info.value), str(info.value)) == case.error
    if case.in_code:
        with pytest.raises(Exception) as info:
            _in_code(case.raw)
        assert (type(info.value), str(info.value)) == case.in_code
    assert cli.main([command, "--config", "cfg.json", *_COMMANDS[command]]) == 1
    assert tuple(capsys.readouterr()) == ("", f"error: {case.error[1]}\n")
    assert steps == [] and realized == [] and bytes_and_listings(".") == before


def _check_valid(raw: dict, indent, capsys, steps: list, realized: list) -> None:
    text = _text(raw, indent)
    Path("cfg.json").write_text(text)
    cfg, built = parse_config(text, "cfg.json"), _in_code(raw)
    assert cfg == built and config_digest(cfg) == config_digest(built) and _holds(cfg, "ExperimentConfig")
    echo = config_to_dict(cfg)
    assert [sorted(_get(echo, s)) for s in _sections(raw)] == [_json_keys(_class_of(s)) for s in _sections(raw)]
    again = parse_config(config_to_json(cfg))
    assert again == cfg and config_digest(again) == config_digest(cfg)
    Path("params.bin").write_bytes(harness.params_bin(init_params(cfg.model, Prng(0, 0))))

    def run_all():
        outcomes = []
        for command, args in _COMMANDS.items():
            before, done = bytes_and_listings("."), (len(steps), len(realized))
            code = cli.main([command, "--config", "cfg.json", *args])
            outcomes.append((code, *capsys.readouterr()))
            if cfg.held_out == "all" and command in ("train", "sweep", "landscape"):
                assert outcomes[-1] == (1, "", f"error: {command} requires an integer held_out domain, got 'all'\n")
                assert (len(steps), len(realized)) == done and bytes_and_listings(".") == before
            elif cfg.optimizer.eta0 > 1:  # a step may overflow; the run then names it
                assert code == 0 or code == 2 and _FAILED_AT_A_STEP.fullmatch(outcomes[-1][2]), outcomes[-1]
            else:
                assert code == 0, outcomes[-1]
            assert code or Path(outcomes[-1][1].rsplit("wrote ", 1)[1].strip()).is_file()  # the file it names
        return outcomes, bytes_and_listings(".")

    first = run_all()
    for path, data in first[1].items():
        header, *rows = [line.split(",") for line in data.decode().splitlines()] if path.suffix == ".csv" else [[]]
        for column, value in ((column, value) for row in rows for column, value in zip(header, row)):
            untracked = column == "surrogate_gap" and not cfg.optimizer.track_surrogate_gap
            assert math.isfinite(float(value)) or untracked and value == "nan", (path, column, value)
    assert run_all() == first


@contextlib.contextmanager
def _sandbox(tmp_path):
    """A new directory, one mocked CPU, os.fork refused and the CLI's parser built once (building it is
    most of a refusal's time); yields the take_step and leave_one_out spies."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tempfile.mkdtemp(dir=tmp_path))
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        mp.setattr(cli, "build_parser", functools.cache(cli.build_parser))
        refuse_forks(mp)
        yield spy(mp, harness, "take_step"), spy(mp, harness.datagen, "leave_one_out")


# Every faulty case of the seed config at turn 2, one item each, so that each (field, value) pair of
# _WRONG and _NOT_FINITE stands apart from the draw; train gets diagnostics_every 20 with steps 10.
@pytest.mark.parametrize(("i", "case"), [pytest.param(i, case, id=f"{kind}-{i}".replace(" ", "-"))
                                         for kind in _KINDS for i, case in enumerate(_faults(TINY_CONFIG, kind, 2, None))])
def test_each_fault_of_the_seed_config_is_refused(tmp_path, capsys, i, case):
    """As in the draw below: the class and message of its fault, and exit 1 with nothing done."""
    with _sandbox(tmp_path) as spies:
        _check_refused(case, list(_COMMANDS)[(2 + i) % len(_COMMANDS)], capsys, *spies)


@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_valid_configs(), turn=st.integers(0, 63), indent=st.sampled_from([None, 2]))
@example(raw=TINY_CONFIG, turn=0, indent=2)  # train: cfg.json:2:3: Expecting property name enclosed in double quotes
@example(raw=_EDGE, turn=5, indent=None)  # train: cfg.json:1:2: Expecting property name enclosed in double quotes
def test_a_config_is_refused_by_its_fault_or_runs_everywhere(tmp_path, capsys, raw, turn, indent):
    """Each faulty case raises, from the reader and built in code, the class and message its fault
    gives, and through a subcommand exits 1 with that error line, training no step, realizing no
    domain, forking and changing nothing. The valid config reads as it builds in code, each field of
    its annotated type, and reads back from its echo with the same digest. Each subcommand, on one
    mocked CPU, exits 0 (1 if it needs an index and held_out is "all"; 2 at a step it names if
    eta0 > 1), writing only finite CSV values but an untracked surrogate_gap's NaN; a rerun gives the
    same outcomes and bytes."""
    with _sandbox(tmp_path) as spies:
        for kind in _KINDS:
            for i, case in enumerate(_faults(raw, kind, turn, indent)):
                _check_refused(case, list(_COMMANDS)[(turn + i) % len(_COMMANDS)], capsys, *spies)
        _check_valid(raw, indent, capsys, *spies)
