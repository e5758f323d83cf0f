"""Config-driven experiment orchestration: training runs, the leave-one-out
rotation, gamma x rho sweeps, convergence runs, and deterministic outputs.

Config format is a single flat JSON document with strict unknown-key
rejection. Every run is fully determined by (config, seed): data realization
comes from the domain seeds, parameter init from stream 0 of the run seed,
minibatch sampling from stream 1, and landscape directions from stream 2.

Per-run files: manifest.json (canonical config echo + sha256 digest),
metrics.csv, diagnostics.csv, params.bin (uint64-le length prefix, then
float64-le parameter values in the layout documented in the manifest). All
writes are atomic (temp file + rename).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import signal
import struct
import sys
import tempfile
from dataclasses import dataclass
from typing import BinaryIO, Callable, NamedTuple

import numpy as np

from . import datagen, diagnostics, evalmetrics, model as model_mod
from .datagen import DomainSpec
from .model import Batch, MlpSpec, ParamVector, layout_for
from .numerics import Prng, _as_tuple, _expect, _is_int
from .optim import OptimizerConfig, StepDiagnostics, batch_loss, gac_fas_record, take_step

class ConfigError(Exception):
    """Base class for configuration failures (CLI exit code 1)."""


class ConfigNotFoundError(ConfigError):
    pass


class ConfigParseError(ConfigError):
    """Malformed JSON; message carries file, line and column."""


class ConfigKeyError(ConfigError):
    """Unknown key (strict mode names the offending key)."""


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


@dataclass(frozen=True)
class EvalReport:
    step: int
    hter: float
    auc: float
    tpr95: float
    train_loss: float
    surrogate_gap: float


METRICS_HEADER = ",".join(f.name for f in dataclasses.fields(EvalReport))
_WINDOW_KEYS = METRICS_HEADER.split(",")[1:]  # window_means' keys, in this order


@dataclass(frozen=True)
class RunRecord:
    manifest: dict
    evals: tuple[EvalReport, ...]
    diagnostics: tuple[StepDiagnostics, ...]
    final_params: ParamVector


def _require_index(held, command: str) -> int:
    if not _is_int(held):
        raise ConfigValueError(f"{command} requires an integer held_out domain, got {held!r}")
    return held


class _Key(NamedTuple):
    """One row of a section table: a JSON key, which is the name of the
    dataclass field it sets, and the reader of a nested section's value; any
    other value goes to the dataclass as it is."""

    name: str
    read: Callable | None = None


def _section(cls):
    """The reader of a JSON object into cls, by cls's table in _TABLES. A key
    left out takes the dataclass default; a field without one is required.
    A dataclass's "<field> must be X, got V" is raised as "<key path>: expected X, got V"."""

    def read(obj, context: str):
        ctx = context.removeprefix("config.")  # sections name their keys from themselves: model.activation
        if not isinstance(obj, dict):
            raise ConfigValueError(f"{ctx}: expected an object, got {obj!r}")
        keys = _TABLES[cls]
        allowed = [key.name for key in keys]
        unknown = [k for k in obj if k not in allowed]
        if unknown:
            raise ConfigKeyError(f"{ctx}: unknown key {unknown[0]!r} (allowed: {sorted(allowed)})")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for key in keys:
            if key.name in obj:
                values[key.name] = key.read(obj[key.name], f"{ctx}.{key.name}") if key.read else obj[key.name]
            elif fields[key.name].default is fields[key.name].default_factory is dataclasses.MISSING:
                raise ConfigValueError(f"{ctx}: missing required key {key.name!r}")
        try:
            return cls(**values)
        except ValueError as exc:
            field, named, expected = str(exc).partition(" must be ")
            if named and field in allowed:
                raise ConfigValueError(f"{ctx}.{field}: expected {expected}") from exc
            raise ConfigValueError(f"{ctx}: {exc}") from exc

    return read


def _as_domains(value, path: str):
    """A list's items read as DomainSpecs; any other value is left for ExperimentConfig to refuse."""
    return [_section(DomainSpec)(d, f"{path}[{i}]") for i, d in enumerate(value)] if isinstance(value, list) else value


# One table per config section: every JSON key of the format, once. Parsing,
# the unknown- and missing-key checks and config_to_dict all follow them, and
# every default and every check of a value lives in its dataclass.
_TABLES = {
    ExperimentConfig: (
        _Key("model", read=_section(MlpSpec)),
        _Key("domains", read=_as_domains),
        _Key("optimizer", read=_section(OptimizerConfig)),
        *map(_Key, ("held_out", "steps", "per_domain_batch", "eval_every", "eval_window", "diagnostics_every")),
        *map(_Key, ("seeds", "output_dir")),
    ),
    MlpSpec: tuple(map(_Key, ("layer_sizes", "activation"))),
    DomainSpec: tuple(map(_Key, ("rotation", "translation", "noise_sigma", "n_samples", "seed"))),
    # Every OptimizerConfig field but period_steps, which a run derives.
    OptimizerConfig: tuple(map(_Key, (
        "mode", "eta0", "rho", "gamma", "weight_decay", "zero_grad_eps", "track_surrogate_gap",
        "schedule", "step_period_epochs", "step_factor",
    ))),
}


def _json_number(text: str):
    """A JSON number as a float when it is finite; NaN, Infinity and 1e999 as
    a Decimal, which every config field refuses as not a finite number."""
    value = float(text)
    if math.isfinite(value):
        return value
    import decimal  # here, so that a valid config does not load it
    return decimal.Decimal(text)


def parse_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    try:
        raw = json.loads(text, parse_float=_json_number, parse_constant=_json_number)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{origin}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return _section(ExperimentConfig)(raw, "config")


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read(), origin=path)
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def config_to_dict(value) -> dict:
    """The config as plain JSON data, by the section tables: a section is a
    dict of its keys, and a tuple is a list."""
    if type(value) in _TABLES:
        return {key.name: config_to_dict(getattr(value, key.name)) for key in _TABLES[type(value)]}
    if isinstance(value, tuple):
        return [config_to_dict(v) for v in value]
    return value


def config_to_json(cfg: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, fixed separators. Parsing it
    back yields an equal config; its sha256 is the manifest digest."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_json(cfg).encode("utf-8")).hexdigest()


def steps_per_epoch(cfg: ExperimentConfig, train_indices) -> int:
    smallest = min(cfg.domains[i].n_samples for i in train_indices)
    return max(1, smallest // cfg.per_domain_batch)


def _resolved_optimizer(cfg: ExperimentConfig, speh: int) -> OptimizerConfig:
    opt = cfg.optimizer
    return dataclasses.replace(opt, period_steps=opt.step_period_epochs * speh) if opt.schedule == "step" else opt


def _score(spec: MlpSpec, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    logits = model_mod.forward(spec, params, inputs)
    return logits[:, 1] - logits[:, 0]


def _evaluate(cfg: ExperimentConfig, spec, params, test: Batch, source, step: int) -> EvalReport:
    """Metrics on the held-out test batch; training loss and gap on the source set's domains."""
    try:
        scored = evalmetrics.ScoredSet(_score(spec, params, test.inputs), test.labels)
    except ValueError as exc:  # non-finite scores: the parameters diverged
        raise RuntimeError(f"evaluation at step {step} failed: {exc}") from exc
    hter, _ = evalmetrics.hter_at_eer(scored)
    auc = evalmetrics.roc_auc(scored)
    tpr95 = evalmetrics.tpr_at_fpr(scored, 0.05)
    if cfg.optimizer.track_surrogate_gap:
        # The gap is measured from the training loss at theta; reuse it.
        gap, train_loss = diagnostics.surrogate_gap(spec, params, source, cfg.optimizer)
    else:
        gap, train_loss = math.nan, batch_loss(spec, params.theta, source)
    return EvalReport(step, float(hter), float(auc), float(tpr95), float(train_loss), float(gap))


def _checked_step(spec, params: ParamVector, minibatch: Batch, opt: OptimizerConfig, t: int, record: bool):
    """take_step, with its failures and a non-finite step loss raised as a
    RuntimeError that names step t, so a diverged run stops at once.

    Returns (params, the step's StepDiagnostics), or with record=False
    (params, None): the step then skips building its record."""
    try:
        params, out = take_step(spec, params, minibatch, opt, t, record=record)
    except Exception as exc:
        raise RuntimeError(f"optimizer step {t} failed: {exc}") from exc
    loss = out.loss_erm if record else out
    if not math.isfinite(loss):
        raise RuntimeError(f"optimizer step {t} failed: the step loss is {loss!r}")
    return params, (out if record else None)


def run_training(cfg: ExperimentConfig, seed: int, held_out=None) -> RunRecord:
    """One training run, deterministic given (cfg, seed, held_out).

    held_out overrides cfg.held_out; the effective value must be a single
    domain index."""
    held = _require_index(cfg.held_out if held_out is None else held_out, "run_training")
    return _train_on_split(cfg, seed, held, datagen.leave_one_out(list(cfg.domains), held))


def _train_on_split(cfg: ExperimentConfig, seed: int, held: int, split, fullset_every: int = 0) -> RunRecord:
    """run_training on an already realized (source, test) split of held.

    The realization depends only on the domain specs and held, so every
    seed of a rotation can share one. The run keeps a record every
    diagnostics_every steps: the step's own, or with fullset_every > 0 one
    from fullset_step_diagnostics every fullset_every steps, computed as
    _fullset_records says."""
    source, test = split
    train_indices = [i for i in range(len(cfg.domains)) if i != held]
    speh = steps_per_epoch(cfg, train_indices)
    opt = _resolved_optimizer(cfg, speh)
    spec = cfg.model

    params = model_mod.init_params(spec, Prng(seed, 0))
    batch_prng = Prng(seed, 1)

    every = fullset_every or cfg.diagnostics_every
    evals = []
    diags = []
    fullset_steps = range(every, cfg.steps + 1, every) if fullset_every else range(0)
    with _fullset_records(spec, source, opt, fullset_steps, diags) as fullset:
        for t in range(1, cfg.steps + 1):
            minibatch = datagen.sample_minibatch(source, cfg.per_domain_batch, batch_prng)
            keep = t % every == 0
            params, diag = _checked_step(spec, params, minibatch, opt, t, keep and not fullset_every)
            if keep:
                diags.append(fullset(t, params) if fullset_every else diag)
            if t % cfg.eval_every == 0:
                evals.append(_evaluate(cfg, spec, params, test, source, t))

    manifest = {
        "config": config_to_dict(cfg),
        "config_sha256": config_digest(cfg),
        "seed": seed,
        "held_out": held,
        "train_domains": train_indices,
        "mode": cfg.optimizer.mode,
        "start_step": 1,
        "end_step": cfg.steps,
        "steps_per_epoch": speh,
        "diagnostics_every": every,
        "param_layout": [
            {"name": b.name, "offset": b.offset, "shape": list(b.shape)} for b in layout_for(spec)
        ],
        "params_bin_format": "uint64 little-endian count, then count float64 little-endian values",
    }
    if fullset_every:
        manifest["diagnostics_scope"] = "full-training-set"
    return RunRecord(manifest, tuple(evals), tuple(diags), params)


@contextlib.contextmanager
def _fullset_records(spec, source, opt: OptimizerConfig, steps, diags: list):
    """Yield fullset(t, params), called once for each step t of steps, in
    order, after that step. On the way out, diags holds the full-set records
    of those steps (fullset_step_diagnostics) in step order, as one serial
    loop gives them. A failing record, or one with a value that is not finite,
    is raised as a RuntimeError naming its step.

    On n processes (_process_count, capped so that each has a record), record
    i belongs to share i % (2n - 1) (_spread): the caller, which also trains,
    computes share 0 between its steps, and worker w shares 2w + 1 and 2w + 2."""
    layout = layout_for(spec)

    def record(item):
        t, theta = item
        try:
            diag = fullset_step_diagnostics(spec, ParamVector(theta, layout), source, opt, t)
            # The values that diagnostics.csv and the convergence fit read.
            names = ("loss_erm", "grad_norm", "surrogate_gap", "alignment_cos", "adv_grad_norms")
            bad = [f"{name} {getattr(diag, name)}" for name in names if not np.isfinite(getattr(diag, name)).all()]
            if bad:
                raise ValueError("not finite: " + ", ".join(bad))
            return diag
        except Exception as exc:
            raise RuntimeError(f"full-set record at step {t} failed: {exc}") from exc

    n = _process_count((len(steps) + 2) // 2)
    owners = [(i % (2 * n - 1) - 1) // 2 for i in range(len(steps))]
    with _spread(record, owners, lambda i: f"computing the full-set records from step {steps[i]}") as (submit, records):
        yield lambda t, params: submit(steps.index(t), (t, params.theta))
    diags[: len(steps)] = records  # with no step, diags keeps the steps' own records


def _csv(header, rows) -> str:
    """CSV text: the header, then one line per row. Ints print as digits;
    floats, numpy scalars included, as repr(float(v)), the shortest text
    that reads back to the same float."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _dict_csv(columns, rows) -> str:
    return _csv(columns, ([row[c] for c in columns] for row in rows))


def metrics_csv(record: RunRecord) -> str:
    return _csv(METRICS_HEADER.split(","), (dataclasses.astuple(ev) for ev in record.evals))


def diagnostics_csv(record: RunRecord) -> str:
    cos_cols = [f"align_cos_{i}" for i in range(len(record.manifest["train_domains"]))]
    return _csv(
        ["t", "loss_erm", "grad_norm", "surrogate_gap", *cos_cols, "adv_grad_sq_mean"],
        (
            [d.step_index, d.loss_erm, d.grad_norm, d.surrogate_gap, *d.alignment_cos, d.adv_grad_sq_mean]
            for d in record.diagnostics
        ),
    )


def landscape_csv(grid: diagnostics.LandscapeGrid) -> str:
    """CSV text with columns s[,u],loss."""
    if grid.offsets.ndim == 1:
        return _csv(["s", "loss"], zip(grid.offsets, grid.losses))
    return _csv(["s", "u", "loss"], ((s, u, loss) for (s, u), loss in zip(grid.offsets, grid.losses)))


def convergence_csv(trace: diagnostics.ConvergenceTrace) -> str:
    """CSV text with columns t,grad_sq_mean,adv_grad_sq_mean,bound."""
    rows = ((t, g, a, trace.bound(t)) for t, g, a in zip(trace.t, trace.grad_sq, trace.adv_grad_sq))
    return _csv(["t", "grad_sq_mean", "adv_grad_sq_mean", "bound"], rows)


def params_bin(params: ParamVector) -> bytes:
    theta = np.ascontiguousarray(params.theta, dtype="<f8")
    return struct.pack("<Q", theta.shape[0]) + theta.tobytes()


def read_params_bin(path: str, spec: MlpSpec) -> ParamVector:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated params file")
    (count,) = struct.unpack_from("<Q", raw, 0)
    expected = 8 + 8 * count
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {count} values, got {len(raw)}")
    theta = np.frombuffer(raw, dtype="<f8", offset=8).astype(np.float64)
    if count != spec.param_count():
        raise ValueError(f"{path}: {count} values do not match model with {spec.param_count()} parameters")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"{path}: parameter {bad[0]} is {theta[bad[0]]}, expected a finite value")
    return ParamVector(theta, layout_for(spec))


def _atomic_write(path: str, data) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:  # an interrupt too: no temp file is left beside the target
        if os.path.exists(tmp):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        raise RuntimeError(f"failed writing {path}: {exc}") from exc


def write_outputs(record: RunRecord, output_dir: str) -> dict:
    """Write manifest.json, metrics.csv, diagnostics.csv, params.bin into
    output_dir atomically; returns the path map."""
    paths = {
        "manifest": os.path.join(output_dir, "manifest.json"),
        "metrics": os.path.join(output_dir, "metrics.csv"),
        "diagnostics": os.path.join(output_dir, "diagnostics.csv"),
        "params": os.path.join(output_dir, "params.bin"),
    }
    _atomic_write(paths["manifest"], json.dumps(record.manifest, sort_keys=True, indent=2) + "\n")
    _atomic_write(paths["metrics"], metrics_csv(record))
    _atomic_write(paths["diagnostics"], diagnostics_csv(record))
    _atomic_write(paths["params"], params_bin(record.final_params))
    return paths


def window_means(record: RunRecord, eval_window: int) -> dict:
    """Mean metrics over the last eval_window evaluation reports."""
    if eval_window < 1 or eval_window > len(record.evals):
        raise ValueError(f"eval_window={eval_window} out of range for {len(record.evals)} evaluations")
    tail = record.evals[len(record.evals) - eval_window :]
    return {key: sum(getattr(e, key) for e in tail) / float(eval_window) for key in _WINDOW_KEYS}


SEED_STATS_COLUMNS = ["n_seeds", "hter_mean", "hter_std", "auc_mean", "auc_std", "tpr95_mean", "tpr95_std"]


def _seed_stats(windows) -> dict:
    """n_seeds, and the mean and sample std (0.0 for one seed) of hter, auc
    and tpr95 over the seeds' window_means."""
    n = len(windows)
    stats = {"n_seeds": n}
    for key in ("hter", "auc", "tpr95"):
        values = [w[key] for w in windows]
        mean = sum(values) / n
        stats[f"{key}_mean"] = mean
        stats[f"{key}_std"] = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    return stats


class _Run(NamedTuple):
    """One training run of a leave-one-out rotation or a sweep: its config,
    seed and held-out index, and the directory its files go to."""

    cfg: ExperimentConfig
    seed: int
    held: int
    output_dir: str


def _process_count(n_items: int) -> int:
    """How many processes share n_items runs or records: one per CPU the
    calling process may run on, at most one per item, and 1 where the
    platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _train_runs(runs) -> list[dict]:
    """The window means of runs, in order, as one serial loop over them gives.

    The list is cut into contiguous blocks of near-equal size, one per
    process (_process_count). The calling process trains the first block and
    one forked worker (_spread) trains each other one, writing its runs'
    files. Workers are sent their runs' indices, all before the caller starts
    its block. A split is realized once per held-out index in each process."""
    n = _process_count(len(runs))
    owners = [b - 1 for b in range(n) for _ in range(b * len(runs) // n, (b + 1) * len(runs) // n)]
    realize = functools.lru_cache(maxsize=1)(lambda domains, held: datagen.leave_one_out(list(domains), held))

    def train(i):
        run = runs[i]
        record = _train_on_split(run.cfg, run.seed, run.held, realize(run.cfg.domains, run.held))
        write_outputs(record, run.output_dir)
        return window_means(record, run.cfg.eval_window)

    doing = lambda i: f"training the runs from held_out {runs[i].held} seed {runs[i].seed}"
    with _spread(train, owners, doing) as (submit, windows):
        for i in sorted(range(len(runs)), key=lambda i: owners[i] < 0):  # the workers' runs first
            submit(i, i)
    return windows


@contextlib.contextmanager
def _spread(fn, owners, doing):
    """Yield (submit, results) to compute fn over the items 0 .. len(owners) - 1
    on the processes owners names, as one serial loop over the items gives.
    submit(i, arg) runs fn(arg) here and returns its value when owners[i] < 0;
    otherwise it sends (i, arg) to forked worker owners[i] and returns None.
    The caller submits each item once, its own in index order. On the way
    out, results[i] holds every item's value.

    A worker computes its items in the order sent and stops at its first
    failure; one that exits without a result fails at its first item i as
    "the process {doing(i)} exited without a result". The failure with the
    lowest index is raised, ahead of a failure of the block's own, such as a
    training step's. A failing item of the caller's is raised at once, and
    the workers killed, when no lower index is a worker's. With no worker,
    nothing is forked: that is the serial loop."""
    results = [None] * len(owners)
    failures = {}  # index: exception; the block's own failure takes len(owners), after every item
    firsts = [owners.index(w) for w in range(max(owners, default=-1) + 1)]
    unsent = [owners.count(w) for w in range(len(firsts))]

    def submit(i, arg):
        w = owners[i]
        if w >= 0:
            view = memoryview(pickle.dumps((i, arg)))
            with contextlib.suppress(BrokenPipeError):  # a worker that has gone is found to have no result
                while view:
                    view = view[children[w].inbox.write(view) :]
            unsent[w] -= 1
            if not unsent[w]:  # its last item: the worker can finish and exit while the caller works on
                children[w].inbox.close()
            return None
        try:
            results[i] = fn(arg)
        except Exception as exc:
            failures[i] = exc
            raise
        return results[i]

    def work(inbox):
        done, failure = {}, None
        while True:
            try:
                i, arg = pickle.load(inbox)
            except EOFError:  # the caller has sent every item
                return done, failure
            if failure is None:  # after a failure, read on: the caller must never wait on a full pipe
                try:
                    done[i] = fn(arg)
                except Exception as exc:
                    failure = (i, exc, exc.__cause__)  # pickle drops the cause

    with _forked(work, len(firsts)) as children:
        try:
            yield submit, results
        except Exception as exc:
            if not failures:
                failures[len(owners)] = exc
            elif max(owners[: min(failures)], default=-1) < 0:
                raise  # no lower index is a worker's
        for child in children:
            child.inbox.close()
        for first, child in zip(firsts, children):
            if min(failures, default=first) < first:
                continue  # every item of this worker comes after a failure
            try:
                done, failure = pickle.load(child.results)
            except Exception:  # no result: killed by a signal, or a failure that did not pickle
                done, failure = {}, (first, RuntimeError(f"the process {doing(first)} exited without a result"), None)
            for i, value in done.items():
                results[i] = value
            if failure is not None:
                i, exc, exc.__cause__ = failure
                failures[i] = exc
        if failures:
            raise failures[min(failures)]


class _Child(NamedTuple):
    """A process that _forked started: its pid, the write end of the pipe it
    reads and the read end of the pipe its result comes back on."""

    pid: int
    inbox: BinaryIO
    results: BinaryIO


@contextlib.contextmanager
def _forked(work, n: int):
    """Fork n processes and yield their _Child handles, in order. Each runs
    work(inbox), inbox being a binary file of what the caller sends it, sends
    back its pickled return value, and exits: it never returns into the
    caller's stack. Every child is killed and reaped before the block is
    left, by a return, a failure or KeyboardInterrupt."""
    children = []
    try:
        for _ in range(n):
            sys.stdout.flush()  # a child must not write out what the caller has buffered
            sys.stderr.flush()
            fds = os.pipe() + os.pipe()  # the child's inbox (read, write), then its results (read, write)
            try:
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                raise
            if pid == 0:
                for child in children:  # an earlier child sees the end of its inbox only when no process holds it open
                    child.inbox.close()
                    child.results.close()
                os.close(fds[1])
                os.close(fds[2])
                _child_main(work, fds[0], fds[3])
            os.close(fds[0])
            os.close(fds[3])
            children.append(_Child(pid, open(fds[1], "wb", buffering=0), open(fds[2], "rb")))
        yield children
    finally:
        for child in children:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
            child.inbox.close()
            child.results.close()


def _child_main(work, inbox_fd: int, results_fd: int) -> None:
    """The body of a forked process: run work on its inbox, send its pickled
    return value through results_fd, and exit. A failure sends nothing."""
    code = 1
    try:
        with open(inbox_fd, "rb") as inbox:
            payload = pickle.dumps(work(inbox))  # before the first byte is sent: a failure to pickle sends none
        with open(results_fd, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_leave_one_out(cfg: ExperimentConfig):
    """Rotate the held-out domain over every domain, train every seed, and
    aggregate last-window metrics per rotation. Returns (summary, run_rows)."""
    runs = [
        _Run(cfg, seed, held, os.path.join(cfg.output_dir, f"held{held}_seed{seed}"))
        for held in range(len(cfg.domains))
        for seed in cfg.seeds
    ]
    windows = _train_runs(runs)
    run_rows = [{"held_out": run.held, "seed": run.seed, **w} for run, w in zip(runs, windows)]
    n = len(cfg.seeds)
    summary = [{"held_out": held, **_seed_stats(windows[held * n : (held + 1) * n])} for held in range(len(cfg.domains))]
    run_cols = ["held_out", "seed", *_WINDOW_KEYS]
    _atomic_write(os.path.join(cfg.output_dir, "loo_runs.csv"), _dict_csv(run_cols, run_rows))
    _atomic_write(os.path.join(cfg.output_dir, "loo_summary.csv"), _dict_csv(["held_out", *SEED_STATS_COLUMNS], summary))
    # JSON has no NaN: a value that is not finite, such as surrogate_gap
    # when it is not tracked, is written as null.
    payload = {
        name: [{key: value if math.isfinite(value) else None for key, value in row.items()} for row in rows]
        for name, rows in (("summary", summary), ("runs", run_rows))
    }
    _atomic_write(
        os.path.join(cfg.output_dir, "loo_summary.json"),
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
    )
    return summary, run_rows


def run_sweep(cfg: ExperimentConfig, gammas, rhos):
    """gamma x rho sensitivity grid on the configured held-out split; each
    cell aggregates last-window metrics over cfg.seeds."""
    held = _require_index(cfg.held_out, "sweep")
    grids = {"gamma": list(gammas), "rho": list(rhos)}
    # OptimizerConfig checks every value, and holds it as a float, before the
    # first step; the grids are named as the sweep command's flags.
    for name, grid in grids.items():
        if not grid:
            raise ConfigValueError(f"--{name}s: grid is empty")
        for i, value in enumerate(grid):
            try:
                grid[i] = getattr(dataclasses.replace(cfg.optimizer, **{name: value}), name)
            except ValueError as exc:
                raise ConfigValueError(f"--{name}s: {exc}") from exc
        repeated = sorted({value for value in grid if grid.count(value) > 1})
        if repeated:
            raise ConfigValueError(f"--{name}s: values must be distinct, got {grid} (repeated: {repeated})")
    cells = [(gamma, rho) for gamma in grids["gamma"] for rho in grids["rho"]]
    runs = []
    for gamma, rho in cells:
        sub = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, gamma=gamma, rho=rho))
        cell_dir = os.path.join(cfg.output_dir, f"sweep_g{gamma!r}_r{rho!r}")
        runs += [_Run(sub, seed, held, os.path.join(cell_dir, f"seed{seed}")) for seed in cfg.seeds]
    windows = _train_runs(runs)
    n = len(cfg.seeds)
    rows = [
        {"gamma": gamma, "rho": rho, **_seed_stats(windows[i * n : (i + 1) * n])} for i, (gamma, rho) in enumerate(cells)
    ]
    _atomic_write(os.path.join(cfg.output_dir, "sweep.csv"), _dict_csv(["gamma", "rho", *SEED_STATS_COLUMNS], rows))
    return rows


# The full-set record of a convergence run (_fullset_records): the record of
# a gac_fas step on the whole source set, gap tracked, in any mode, without
# the step's update, so no training step is counted. The decay-rate statement
# concerns the empirical objective's gradient at the iterates, which minibatch
# gradients hide behind a sampling-noise floor. The loop calls it through this
# name, so rebinding the name wraps every record.
fullset_step_diagnostics = gac_fas_record


def run_convergence(cfg: ExperimentConfig, window: int = 40, trace_every: int = 5):
    """Decay-rate run: forces theorem1 schedules, trains as usual, and every
    trace_every steps records full-training-set gradient diagnostics, from
    which the convergence trace and its fitted C log(t+1)/sqrt(t) curve are
    built. Returns (record, trace); record.diagnostics is the full-set
    stream.

    The full-set records are computed on every CPU in the affinity mask
    (_fullset_records): the calling process trains and computes a third of
    them on 2 CPUs, and a forked worker computes the rest from the (t, theta)
    the caller sends it. Each record depends only on its step's parameters,
    so every output is byte-identical to a one-CPU run. Both arguments are
    checked before the first step and before any fork."""
    for name, value in (("window", window), ("trace_every", trace_every)):
        if not _is_int(value):
            raise ConfigValueError(f"{name} must be an int, got {value!r}")
    if trace_every < 1:
        raise ConfigValueError(f"trace_every must be >= 1, got {trace_every}")
    n_records = cfg.steps // trace_every
    if not 1 <= window <= n_records:
        raise ConfigValueError(
            f"window={window} must be in [1, {n_records}] (the number of full-set records, steps // trace_every)"
        )
    cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, schedule="theorem1"))
    held = cfg.held_out if _is_int(cfg.held_out) else 0
    split = datagen.leave_one_out(list(cfg.domains), held)
    record = _train_on_split(cfg, cfg.seeds[0], held, split, fullset_every=trace_every)
    trace = diagnostics.convergence_trace(record.diagnostics, window)
    write_outputs(record, os.path.join(cfg.output_dir, "convergence_run"))
    _atomic_write(os.path.join(cfg.output_dir, "convergence.csv"), convergence_csv(trace))
    return record, trace


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


def finite_difference_suite(n_models: int = 10, tol: float = 1e-5, h: float = 1e-6, seed: int = 2024):
    """Gradient oracle for the MLP: analytic vs central finite differences on
    random tanh 2-8-8-2 models with 16-sample batches. Returns
    (passed, worst_error, per_model_errors); error per parameter is
    |g - g_fd| / (1 + |g_fd|)."""
    spec = MlpSpec((2, 8, 8, 2), "tanh")
    errors = []
    for i in range(n_models):
        prng = Prng(seed, i)
        params = model_mod.init_params(spec, prng)
        inputs = prng.generator.standard_normal((16, spec.input_dim))
        labels = prng.generator.integers(0, spec.n_classes, size=16)
        batch = Batch(inputs, labels.astype(np.int64), np.zeros(16, dtype=np.int64))
        _, grad = model_mod.loss_and_grad(spec, params, batch)
        grad_fd = model_mod.finite_diff_grad(spec, params, batch, h)
        rel = np.max(np.abs(grad - grad_fd) / (1.0 + np.abs(grad_fd)))
        errors.append(float(rel))
    worst = max(errors)
    return worst <= tol, worst, errors
