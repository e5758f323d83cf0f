"""The experiment config: its dataclass, the strict JSON reader, and the
canonical echo that a run's manifest and digest hold.

Config format is a single flat JSON document with strict unknown-key
rejection. Every JSON key is the name of the dataclass field it sets, and
every default and every check of a value lives in that dataclass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .datagen import DomainSpec
from .model import MlpSpec
from .numerics import _as_tuple, _expect, _is_int
from .optim import OptimizerConfig


class ConfigError(Exception):
    """Base class for configuration failures (CLI exit code 1)."""


class ConfigNotFoundError(ConfigError):
    pass


class ConfigParseError(ConfigError):
    """Malformed JSON; message carries file, line and column."""


class ConfigKeyError(ConfigError):
    """Unknown or repeated key (strict mode names the offending key)."""


class ConfigValueError(ConfigError):
    """Type error or invariant violation in a config value."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: MlpSpec
    domains: tuple[DomainSpec, ...]
    held_out: int | str
    steps: int
    per_domain_batch: int
    seeds: tuple[int, ...]
    output_dir: str
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    eval_every: int = 100
    eval_window: int = 10
    diagnostics_every: int = 10

    def __post_init__(self):
        # A wrong type is a ValueError naming the field; a broken invariant, a ConfigValueError.
        _expect(isinstance(self.model, MlpSpec), "model", "an MlpSpec", self.model)
        object.__setattr__(self, "domains", _as_tuple(self.domains, "domains"))
        for dom in self.domains:
            _expect(isinstance(dom, DomainSpec), "domains", "a DomainSpec", dom)
        _expect(isinstance(self.held_out, str) or _is_int(self.held_out), "held_out", 'an index or "all"', self.held_out)
        _expect(isinstance(self.optimizer, OptimizerConfig), "optimizer", "an OptimizerConfig", self.optimizer)
        for name in ("steps", "per_domain_batch", "eval_every", "eval_window", "diagnostics_every"):
            _expect(_is_int(getattr(self, name)), name, "an integer", getattr(self, name))
        object.__setattr__(self, "seeds", _as_tuple(self.seeds, "seeds"))
        for seed in self.seeds:
            _expect(_is_int(seed) and seed >= 0, "seeds", "a non-negative integer", seed)
        _expect(isinstance(self.output_dir, str), "output_dir", "a string", self.output_dir)
        if len(self.domains) < 2:
            raise ConfigValueError("at least 2 domains are required (one may be held out)")
        if isinstance(self.held_out, str):
            if self.held_out != "all":
                raise ConfigValueError(f"held_out must be a domain index or \"all\", got {self.held_out!r}")
        elif not 0 <= self.held_out < len(self.domains):
            raise ConfigValueError(f"held_out index {self.held_out} out of range for {len(self.domains)} domains")
        if self.optimizer.period_steps != 0:
            raise ConfigValueError(
                f"optimizer.period_steps must be 0 (a run derives it from step_period_epochs), "
                f"got {self.optimizer.period_steps}"
            )
        if self.model.input_dim != 2 or self.model.n_classes != 2:
            raise ConfigValueError(
                f"model must map 2 input features to 2 classes for the synthetic task, "
                f"got {self.model.layer_sizes}"
            )
        if self.steps < 1:
            raise ConfigValueError(f"steps must be >= 1, got {self.steps}")
        if self.per_domain_batch < 1:
            raise ConfigValueError(f"per_domain_batch must be >= 1, got {self.per_domain_batch}")
        for i, dom in enumerate(self.domains):
            if dom.n_samples < self.per_domain_batch:
                raise ConfigValueError(
                    f"domain {i} has {dom.n_samples} samples, fewer than per_domain_batch={self.per_domain_batch}"
                )
        if self.eval_every < 1:
            raise ConfigValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.steps % self.eval_every != 0:
            raise ConfigValueError(f"steps={self.steps} must be a multiple of eval_every={self.eval_every}")
        n_evals = self.steps // self.eval_every
        if self.eval_window < 1 or self.eval_window > n_evals:
            raise ConfigValueError(
                f"eval_window={self.eval_window} must be in [1, {n_evals}] (the number of evaluations)"
            )
        if not 1 <= self.diagnostics_every <= self.steps:
            raise ConfigValueError(f"diagnostics_every={self.diagnostics_every} must be in [1, steps={self.steps}]")
        if not self.seeds:
            raise ConfigValueError("seeds must be nonempty")
        repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
        if repeated:
            raise ConfigValueError(f"seeds must be distinct, got {list(self.seeds)} (repeated: {repeated})")


def _require_index(held, command: str) -> int:
    if not _is_int(held):
        raise ConfigValueError(f"{command} requires an integer held_out domain, got {held!r}")
    return held


def _require_file(path: str, what: str) -> None:
    """Refuse a path that names no regular file, such as a directory, before it is read."""
    if not os.path.exists(path):
        raise ConfigNotFoundError(f"{what} not found: {path}")
    if not os.path.isfile(path):
        raise ConfigNotFoundError(f"{what} is not a regular file: {path}")


def _keys(cls) -> list[str]:
    """The JSON keys of cls's section: its fields, but period_steps, which a
    run derives from step_period_epochs. The nested sections are read first:
    of a bad section and a missing top-level key, the section is named."""
    names = [f.name for f in dataclasses.fields(cls) if (cls, f.name) != (OptimizerConfig, "period_steps")]
    return sorted(names, key=lambda name: name not in _NESTED)


def _section(cls):
    """The reader of a JSON object into cls, by _keys(cls). A key left out
    takes the dataclass default; a field without one is required. A
    dataclass's "<field> must be X, got V" is raised as "<key path>: expected X, got V"."""

    def read(obj, context: str):
        ctx = context.removeprefix("config.")  # sections name their keys from themselves: model.activation
        if not isinstance(obj, dict):
            raise ConfigValueError(f"{ctx}: expected an object, got {obj!r}")
        keys = _keys(cls)
        unknown = [k for k in obj if k not in keys]
        if unknown:
            raise ConfigKeyError(f"{ctx}: unknown key {unknown[0]!r} (allowed: {sorted(keys)})")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for key in keys:
            if key in obj:
                values[key] = _NESTED[key](obj[key], f"{ctx}.{key}") if key in _NESTED else obj[key]
            elif fields[key].default is fields[key].default_factory is dataclasses.MISSING:
                raise ConfigValueError(f"{ctx}: missing required key {key!r}")
        try:
            return cls(**values)
        except ValueError as exc:
            field, named, expected = str(exc).partition(" must be ")
            if named and field in keys:
                raise ConfigValueError(f"{ctx}.{field}: expected {expected}") from exc
            raise ConfigValueError(f"{ctx}: {exc}") from exc

    return read


def _as_domains(value, path: str):
    """A list's items read as DomainSpecs; any other value is left for ExperimentConfig to refuse."""
    return [_section(DomainSpec)(d, f"{path}[{i}]") for i, d in enumerate(value)] if isinstance(value, list) else value


# The readers of the nested sections' values; any other value goes to its dataclass as it is.
_NESTED = {"model": _section(MlpSpec), "domains": _as_domains, "optimizer": _section(OptimizerConfig)}


def _json_number(text: str):
    """A JSON number as a float when it is finite; NaN, Infinity and 1e999 as
    a Decimal, which every config field refuses as not a finite number."""
    value = float(text)
    if math.isfinite(value):
        return value
    import decimal  # here, so that a valid config does not load it
    return decimal.Decimal(text)


def parse_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:  # json.loads would keep the last value
                raise ConfigKeyError(f"{origin}: key {key!r} is repeated in one object")
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, parse_float=_json_number, parse_constant=_json_number, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{origin}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return _section(ExperimentConfig)(raw, "config")


def load_config(path: str) -> ExperimentConfig:
    _require_file(path, "config file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read(), origin=path)
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def config_to_dict(value) -> dict:
    """The config as plain JSON data, by the sections' keys: a section is a
    dict of its keys, and a tuple is a list."""
    if dataclasses.is_dataclass(value):
        return {key: config_to_dict(getattr(value, key)) for key in _keys(type(value))}
    if isinstance(value, tuple):
        return [config_to_dict(v) for v in value]
    return value


def config_to_json(cfg: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, fixed separators. Parsing it
    back yields an equal config; its sha256 is the manifest digest."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_json(cfg).encode("utf-8")).hexdigest()


def default_domains() -> tuple[DomainSpec, ...]:
    """The default synthetic task's domains: four two-moons copies at
    rotations 0/20/40/60 degrees, noise 0.15, DomainSpec's default 2000
    samples each, one seed per domain."""
    return tuple(
        DomainSpec(rotation=math.radians(deg), noise_sigma=0.15, seed=i)
        for i, deg in enumerate((0.0, 20.0, 40.0, 60.0))
    )


def default_experiment(mode: str = "gac_fas", **overrides) -> ExperimentConfig:
    """The default experiment: the default four-domain task, a small tanh
    MLP, and paper-transferable optimizer defaults, leave-one-out over all
    four domains. Holding one domain out leaves three training sources.
    Keyword overrides replace top-level ExperimentConfig fields; optimizer
    overrides are a dict of OptimizerConfig fields under "optimizer", whose
    mode is mode unless the dict sets one. Every other value is the
    dataclass default."""
    base = dict(
        model=MlpSpec((2, 16, 16, 2), "tanh"),
        domains=default_domains(),
        held_out="all",
        optimizer=OptimizerConfig(**{"mode": mode, **overrides.pop("optimizer", {})}),
        steps=1000,
        per_domain_batch=32,
        seeds=(0,),
        output_dir="runs",
    )
    return ExperimentConfig(**{**base, **overrides})
