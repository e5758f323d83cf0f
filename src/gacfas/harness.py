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

import dataclasses
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import datagen, diagnostics, evalmetrics, model as model_mod
from .datagen import DomainSpec
from .model import Batch, MlpSpec, ParamVector, layout_for
from .numerics import Prng
from .optim import MODES, SCHEDULE_KINDS, OptimizerConfig, Schedule, StepDiagnostics, batch_loss, schedule_value, take_step
from .optim import _aligned_perturbation, _batch_parts, _diagnostics, _part_terms, _sum_terms

METRICS_HEADER = "step,hter,auc,tpr95,train_loss,surrogate_gap"


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
    optimizer: OptimizerConfig
    steps: int
    per_domain_batch: int
    seeds: tuple[int, ...]
    output_dir: str
    eval_every: int = 100
    eval_window: int = 10
    diagnostics_every: int = 10

    def __post_init__(self):
        if len(self.domains) < 2:
            raise ConfigValueError("at least 2 domains are required (one may be held out)")
        if isinstance(self.held_out, str):
            if self.held_out != "all":
                raise ConfigValueError(f"held_out must be a domain index or \"all\", got {self.held_out!r}")
        elif not 0 <= self.held_out < len(self.domains):
            raise ConfigValueError(f"held_out index {self.held_out} out of range for {len(self.domains)} domains")
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
        if self.diagnostics_every < 1:
            raise ConfigValueError(f"diagnostics_every must be >= 1, got {self.diagnostics_every}")
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


@dataclass(frozen=True)
class RunRecord:
    manifest: dict
    evals: tuple[EvalReport, ...]
    diagnostics: tuple[StepDiagnostics, ...]
    final_params: ParamVector


def _expect(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigValueError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigValueError(f"{context}: expected an integer, got {value!r}")
    return value


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValueError(f"{context}: expected a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigValueError(f"{context}: expected a finite number, got {value!r}")
    return number


def _as_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigValueError(f"{context}: expected true/false, got {value!r}")
    return value


def _as_str(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigValueError(f"{context}: expected a string, got {value!r}")
    return value


def _check_keys(mapping: dict, allowed, context: str):
    if not isinstance(mapping, dict):
        raise ConfigValueError(f"{context}: expected an object, got {mapping!r}")
    for key in mapping:
        if key not in allowed:
            raise ConfigKeyError(f"{context}: unknown key {key!r} (allowed: {sorted(allowed)})")


def _parse_model(obj) -> MlpSpec:
    _check_keys(obj, {"layer_sizes", "activation"}, "model")
    sizes = _expect(obj, "layer_sizes", "model")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigValueError(f"model.layer_sizes: expected a nonempty list, got {sizes!r}")
    sizes = tuple(_as_int(s, "model.layer_sizes") for s in sizes)
    activation = _as_str(obj.get("activation", "relu"), "model.activation")
    try:
        return MlpSpec(sizes, activation)
    except ValueError as exc:
        raise ConfigValueError(f"model: {exc}") from exc


def _parse_domain(obj, idx: int) -> DomainSpec:
    ctx = f"domains[{idx}]"
    _check_keys(obj, {"rotation", "translation", "noise_sigma", "n_samples", "seed"}, ctx)
    translation = obj.get("translation", (0.0, 0.0))
    if not isinstance(translation, (list, tuple)) or len(translation) != 2:
        raise ConfigValueError(f"{ctx}.translation: expected two numbers, got {translation!r}")
    try:
        return DomainSpec(
            rotation=_as_float(obj.get("rotation", 0.0), f"{ctx}.rotation"),
            translation=tuple(_as_float(v, f"{ctx}.translation") for v in translation),
            noise_sigma=_as_float(obj.get("noise_sigma", 0.0), f"{ctx}.noise_sigma"),
            n_samples=_as_int(obj.get("n_samples", 2000), f"{ctx}.n_samples"),
            seed=_as_int(obj.get("seed", 0), f"{ctx}.seed"),
        )
    except ValueError as exc:
        raise ConfigValueError(f"{ctx}: {exc}") from exc


def _parse_optimizer(obj) -> OptimizerConfig:
    allowed = {
        "mode", "eta0", "rho", "gamma", "weight_decay", "schedule",
        "step_period_epochs", "step_factor", "zero_grad_eps", "track_surrogate_gap",
    }
    _check_keys(obj, allowed, "optimizer")
    kind = _as_str(obj.get("schedule", "constant"), "optimizer.schedule")
    if kind not in SCHEDULE_KINDS:
        raise ConfigValueError(f"optimizer.schedule: must be one of {SCHEDULE_KINDS}, got {kind!r}")
    mode = _as_str(obj.get("mode", "gac_fas"), "optimizer.mode")
    if mode not in MODES:
        raise ConfigValueError(f"optimizer.mode: must be one of {MODES}, got {mode!r}")
    try:
        schedule = Schedule(
            kind=kind,
            period_epochs=_as_int(obj.get("step_period_epochs", 40), "optimizer.step_period_epochs"),
            factor=_as_float(obj.get("step_factor", 0.1), "optimizer.step_factor"),
        )
        return OptimizerConfig(
            mode=mode,
            eta0=_as_float(obj.get("eta0", 0.005), "optimizer.eta0"),
            rho=_as_float(obj.get("rho", 0.1), "optimizer.rho"),
            gamma=_as_float(obj.get("gamma", 0.0002), "optimizer.gamma"),
            weight_decay=_as_float(obj.get("weight_decay", 1e-4), "optimizer.weight_decay"),
            schedule=schedule,
            zero_grad_eps=_as_float(obj.get("zero_grad_eps", 1e-12), "optimizer.zero_grad_eps"),
            track_surrogate_gap=_as_bool(obj.get("track_surrogate_gap", True), "optimizer.track_surrogate_gap"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigValueError(f"optimizer: {exc}") from exc


def parse_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{origin}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    allowed = {
        "model", "domains", "held_out", "optimizer", "steps", "per_domain_batch",
        "eval_every", "eval_window", "seeds", "output_dir", "diagnostics_every",
    }
    _check_keys(raw, allowed, "config")
    domains_raw = _expect(raw, "domains", "config")
    if not isinstance(domains_raw, list) or not domains_raw:
        raise ConfigValueError(f"config.domains: expected a nonempty list, got {domains_raw!r}")
    held_out = _expect(raw, "held_out", "config")
    if not (isinstance(held_out, str) or (isinstance(held_out, int) and not isinstance(held_out, bool))):
        raise ConfigValueError(f"config.held_out: expected an index or \"all\", got {held_out!r}")
    seeds_raw = _expect(raw, "seeds", "config")
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigValueError(f"config.seeds: expected a nonempty list, got {seeds_raw!r}")
    return ExperimentConfig(
        model=_parse_model(_expect(raw, "model", "config")),
        domains=tuple(_parse_domain(d, i) for i, d in enumerate(domains_raw)),
        held_out=held_out,
        optimizer=_parse_optimizer(raw.get("optimizer", {})),
        steps=_as_int(_expect(raw, "steps", "config"), "config.steps"),
        per_domain_batch=_as_int(_expect(raw, "per_domain_batch", "config"), "config.per_domain_batch"),
        seeds=tuple(_as_int(s, "config.seeds") for s in seeds_raw),
        output_dir=_as_str(_expect(raw, "output_dir", "config"), "config.output_dir"),
        eval_every=_as_int(raw.get("eval_every", 100), "config.eval_every"),
        eval_window=_as_int(raw.get("eval_window", 10), "config.eval_window"),
        diagnostics_every=_as_int(raw.get("diagnostics_every", 10), "config.diagnostics_every"),
    )


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), origin=path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "model": {"layer_sizes": list(cfg.model.layer_sizes), "activation": cfg.model.activation},
        "domains": [
            {
                "rotation": d.rotation,
                "translation": list(d.translation),
                "noise_sigma": d.noise_sigma,
                "n_samples": d.n_samples,
                "seed": d.seed,
            }
            for d in cfg.domains
        ],
        "held_out": cfg.held_out,
        "optimizer": {
            "mode": cfg.optimizer.mode,
            "eta0": cfg.optimizer.eta0,
            "rho": cfg.optimizer.rho,
            "gamma": cfg.optimizer.gamma,
            "weight_decay": cfg.optimizer.weight_decay,
            "schedule": cfg.optimizer.schedule.kind,
            "step_period_epochs": cfg.optimizer.schedule.period_epochs,
            "step_factor": cfg.optimizer.schedule.factor,
            "zero_grad_eps": cfg.optimizer.zero_grad_eps,
            "track_surrogate_gap": cfg.optimizer.track_surrogate_gap,
        },
        "steps": cfg.steps,
        "per_domain_batch": cfg.per_domain_batch,
        "eval_every": cfg.eval_every,
        "eval_window": cfg.eval_window,
        "seeds": list(cfg.seeds),
        "output_dir": cfg.output_dir,
        "diagnostics_every": cfg.diagnostics_every,
    }


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
    sched = cfg.optimizer.schedule
    if sched.kind == "step" and sched.period_steps < 1:
        sched = dataclasses.replace(sched, period_steps=sched.period_epochs * speh)
        return dataclasses.replace(cfg.optimizer, schedule=sched)
    return cfg.optimizer


def _score(spec: MlpSpec, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    logits = model_mod.forward(spec, params, inputs)
    return logits[:, 1] - logits[:, 0]


def _evaluate(cfg: ExperimentConfig, spec, params, test: Batch, train_all: Batch, step: int) -> EvalReport:
    try:
        scored = evalmetrics.ScoredSet(_score(spec, params, test.inputs), test.labels)
    except ValueError as exc:  # non-finite scores: the parameters diverged
        raise RuntimeError(f"evaluation at step {step} failed: {exc}") from exc
    hter, _ = evalmetrics.hter_at_eer(scored)
    auc = evalmetrics.roc_auc(scored)
    tpr95 = evalmetrics.tpr_at_fpr(scored, 0.05)
    if cfg.optimizer.track_surrogate_gap:
        # The gap is measured from the training loss at theta; reuse it.
        gap, train_loss = diagnostics.surrogate_gap(spec, params, train_all, cfg.optimizer.rho, return_loss=True)
    else:
        gap, train_loss = math.nan, batch_loss(spec, params.theta, train_all)
    return EvalReport(step, float(hter), float(auc), float(tpr95), float(train_loss), float(gap))


def _checked_step(spec, params: ParamVector, minibatch: Batch, opt: OptimizerConfig, t: int, k: int):
    """take_step, with its failures and a non-finite step loss raised as a
    RuntimeError that names step t, so a diverged run stops at once."""
    try:
        params, diag = take_step(spec, params, minibatch, opt, t, n_domains=k)
    except Exception as exc:
        raise RuntimeError(f"optimizer step {t} failed: {exc}") from exc
    if not math.isfinite(diag.loss_erm):
        raise RuntimeError(f"optimizer step {t} failed: the step loss is {diag.loss_erm!r}")
    return params, diag


def run_training(cfg: ExperimentConfig, seed: int, held_out=None) -> RunRecord:
    """One training run, deterministic given (cfg, seed, held_out).

    held_out overrides cfg.held_out; the effective value must be a single
    domain index."""
    held = cfg.held_out if held_out is None else held_out
    if not isinstance(held, int) or isinstance(held, bool):
        raise ConfigValueError("run_training needs an integer held_out domain (got \"all\"; use run_leave_one_out)")
    return _train_on_split(cfg, seed, held, datagen.leave_one_out(list(cfg.domains), held))


def _train_on_split(cfg: ExperimentConfig, seed: int, held: int, split) -> RunRecord:
    """run_training on an already realized (source, test) split of held.

    The realization depends only on the domain specs and held, so every
    seed of a rotation can share one."""
    source, test = split
    train_indices = [i for i in range(len(cfg.domains)) if i != held]
    speh = steps_per_epoch(cfg, train_indices)
    opt = _resolved_optimizer(cfg, speh)
    spec = cfg.model

    params = model_mod.init_params(spec, Prng(seed, 0))
    batch_prng = Prng(seed, 1)
    train_all = source.concatenated()
    k = source.k

    evals = []
    diags = []
    for t in range(1, cfg.steps + 1):
        minibatch = datagen.sample_minibatch(source, cfg.per_domain_batch, batch_prng)
        params, diag = _checked_step(spec, params, minibatch, opt, t, k)
        if t % cfg.diagnostics_every == 0:
            diags.append(diag)
        if t % cfg.eval_every == 0:
            evals.append(_evaluate(cfg, spec, params, test, train_all, t))

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
        "diagnostics_every": cfg.diagnostics_every,
        "param_layout": [
            {"name": b.name, "offset": b.offset, "shape": list(b.shape)} for b in layout_for(spec)
        ],
        "params_bin_format": "uint64 little-endian count, then count float64 little-endian values",
    }
    return RunRecord(manifest, tuple(evals), tuple(diags), params)


def metrics_csv(record: RunRecord) -> str:
    lines = [METRICS_HEADER]
    for ev in record.evals:
        lines.append(
            f"{ev.step},{ev.hter!r},{ev.auc!r},{ev.tpr95!r},{ev.train_loss!r},{ev.surrogate_gap!r}"
        )
    return "\n".join(lines) + "\n"


def diagnostics_csv(record: RunRecord) -> str:
    k = len(record.manifest["train_domains"])
    cos_cols = ",".join(f"align_cos_{i}" for i in range(k))
    lines = [f"t,loss_erm,grad_norm,surrogate_gap,{cos_cols},adv_grad_sq_mean"]
    for d in record.diagnostics:
        cos = ",".join(repr(c) for c in d.alignment_cos)
        adv_sq = sum(v**2 for v in d.adv_grad_norms) / len(d.adv_grad_norms)
        lines.append(f"{d.step_index},{d.loss_erm!r},{d.grad_norm!r},{d.surrogate_gap!r},{cos},{adv_sq!r}")
    return "\n".join(lines) + "\n"


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
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    n = float(eval_window)
    return {
        "hter": sum(e.hter for e in tail) / n,
        "auc": sum(e.auc for e in tail) / n,
        "tpr95": sum(e.tpr95 for e in tail) / n,
        "train_loss": sum(e.train_loss for e in tail) / n,
        "surrogate_gap": sum(e.surrogate_gap for e in tail) / n,
    }


def _mean_std(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def run_leave_one_out(cfg: ExperimentConfig, write: bool = True):
    """Rotate the held-out domain over every domain, train every seed, and
    aggregate last-window metrics per rotation. Returns (summary, run_rows)."""
    run_rows = []
    for held in range(len(cfg.domains)):
        split = datagen.leave_one_out(list(cfg.domains), held)
        for seed in cfg.seeds:
            record = _train_on_split(cfg, seed, held, split)
            if write:
                write_outputs(record, os.path.join(cfg.output_dir, f"held{held}_seed{seed}"))
            wm = window_means(record, cfg.eval_window)
            run_rows.append({"held_out": held, "seed": seed, **wm})
    summary = []
    for held in range(len(cfg.domains)):
        rows = [r for r in run_rows if r["held_out"] == held]
        entry = {"held_out": held, "n_seeds": len(rows)}
        for key in ("hter", "auc", "tpr95"):
            mean, std = _mean_std([r[key] for r in rows])
            entry[f"{key}_mean"] = mean
            entry[f"{key}_std"] = std
        summary.append(entry)
    if write:
        run_lines = ["held_out,seed,hter,auc,tpr95,train_loss,surrogate_gap"]
        for r in run_rows:
            run_lines.append(
                f"{r['held_out']},{r['seed']},{r['hter']!r},{r['auc']!r},{r['tpr95']!r},"
                f"{r['train_loss']!r},{r['surrogate_gap']!r}"
            )
        _atomic_write(os.path.join(cfg.output_dir, "loo_runs.csv"), "\n".join(run_lines) + "\n")
        sum_lines = ["held_out,n_seeds,hter_mean,hter_std,auc_mean,auc_std,tpr95_mean,tpr95_std"]
        for s in summary:
            sum_lines.append(
                f"{s['held_out']},{s['n_seeds']},{s['hter_mean']!r},{s['hter_std']!r},"
                f"{s['auc_mean']!r},{s['auc_std']!r},{s['tpr95_mean']!r},{s['tpr95_std']!r}"
            )
        _atomic_write(os.path.join(cfg.output_dir, "loo_summary.csv"), "\n".join(sum_lines) + "\n")
        _atomic_write(
            os.path.join(cfg.output_dir, "loo_summary.json"),
            json.dumps({"summary": summary, "runs": run_rows}, sort_keys=True, indent=2) + "\n",
        )
    return summary, run_rows


def run_sweep(cfg: ExperimentConfig, gammas, rhos, write: bool = True):
    """gamma x rho sensitivity grid on the configured held-out split; each
    cell aggregates last-window metrics over cfg.seeds."""
    gammas = list(gammas)
    rhos = list(rhos)
    if not gammas or not rhos:
        raise ConfigValueError("sweep grids must be nonempty")
    if not isinstance(cfg.held_out, int) or isinstance(cfg.held_out, bool):
        raise ConfigValueError("sweep requires an integer held_out domain")
    split = datagen.leave_one_out(list(cfg.domains), cfg.held_out)
    cells = []
    for gamma in gammas:
        for rho in rhos:
            opt = dataclasses.replace(cfg.optimizer, gamma=float(gamma), rho=float(rho))
            sub = dataclasses.replace(cfg, optimizer=opt)
            per_seed = []
            for seed in cfg.seeds:
                record = _train_on_split(sub, seed, cfg.held_out, split)
                if write:
                    write_outputs(
                        record,
                        os.path.join(cfg.output_dir, f"sweep_g{gamma!r}_r{rho!r}", f"seed{seed}"),
                    )
                per_seed.append(window_means(record, cfg.eval_window))
            cell = {"gamma": float(gamma), "rho": float(rho), "n_seeds": len(per_seed)}
            for key in ("hter", "auc", "tpr95"):
                mean, std = _mean_std([w[key] for w in per_seed])
                cell[f"{key}_mean"] = mean
                cell[f"{key}_std"] = std
            cells.append(cell)
    if write:
        lines = ["gamma,rho,n_seeds,hter_mean,hter_std,auc_mean,auc_std,tpr95_mean,tpr95_std"]
        for c in cells:
            lines.append(
                f"{c['gamma']!r},{c['rho']!r},{c['n_seeds']},{c['hter_mean']!r},{c['hter_std']!r},"
                f"{c['auc_mean']!r},{c['auc_std']!r},{c['tpr95_mean']!r},{c['tpr95_std']!r}"
            )
        _atomic_write(os.path.join(cfg.output_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return cells


def fullset_step_diagnostics(spec, params: ParamVector, source, opt: OptimizerConfig, t: int) -> StepDiagnostics:
    """StepDiagnostics evaluated on the full source set rather than a
    minibatch: the decay-rate statement concerns the empirical objective's
    gradient at the iterates, which minibatch gradients hide behind a
    sampling-noise floor. adv_grad_norms[i] is the norm of the whole-set
    gradient at domain i's ascending point theta + eps_i - gamma_t * g."""
    rho_t = schedule_value(opt.schedule, opt.rho, t)
    gamma_t = schedule_value(opt.schedule, opt.gamma, t)
    theta = params.theta
    # The realized domain batches are exactly the per-domain rows of
    # source.concatenated(); taking them in ascending id order skips
    # re-stacking the whole source set on every call.
    parts = _batch_parts(sorted((batch for _, batch in source.domains), key=lambda b: int(b.domain_ids[0])))
    terms = _part_terms(spec, theta, parts)
    loss, g = _sum_terms(terms)
    adv_losses, adv_grads = _aligned_perturbation(spec, theta, parts, terms, g, rho_t, gamma_t, opt.zero_grad_eps)
    gap = 0.0
    for loss_adv in adv_losses:
        gap += loss_adv - loss
    return _diagnostics(t, terms, loss, g, adv_grads, gap / len(terms))


def run_convergence(cfg: ExperimentConfig, window: int = 40, trace_every: int = 5, write: bool = True):
    """Decay-rate run: forces theorem1 schedules, trains as usual, and every
    trace_every steps records full-training-set gradient diagnostics, from
    which the convergence trace and its fitted C log(t+1)/sqrt(t) curve are
    built. Returns (record, trace); record.diagnostics is the full-set
    stream."""
    if trace_every < 1:
        raise ConfigValueError(f"trace_every must be >= 1, got {trace_every}")
    sched = dataclasses.replace(cfg.optimizer.schedule, kind="theorem1")
    opt_base = dataclasses.replace(cfg.optimizer, schedule=sched)
    cfg = dataclasses.replace(cfg, optimizer=opt_base)
    held = cfg.held_out if isinstance(cfg.held_out, int) and not isinstance(cfg.held_out, bool) else 0
    seed = cfg.seeds[0]
    source, test = datagen.leave_one_out(list(cfg.domains), held)
    train_indices = [i for i in range(len(cfg.domains)) if i != held]
    speh = steps_per_epoch(cfg, train_indices)
    opt = _resolved_optimizer(cfg, speh)
    spec = cfg.model
    params = model_mod.init_params(spec, Prng(seed, 0))
    batch_prng = Prng(seed, 1)
    train_all = source.concatenated()
    k = source.k

    evals = []
    records = []
    for t in range(1, cfg.steps + 1):
        minibatch = datagen.sample_minibatch(source, cfg.per_domain_batch, batch_prng)
        params, _ = _checked_step(spec, params, minibatch, opt, t, k)
        if t % trace_every == 0:
            records.append(fullset_step_diagnostics(spec, params, source, opt, t))
        if t % cfg.eval_every == 0:
            evals.append(_evaluate(cfg, spec, params, test, train_all, t))
    trace = diagnostics.convergence_trace(records, window)
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
        "diagnostics_every": trace_every,
        "diagnostics_scope": "full-training-set",
        "param_layout": [
            {"name": b.name, "offset": b.offset, "shape": list(b.shape)} for b in layout_for(spec)
        ],
        "params_bin_format": "uint64 little-endian count, then count float64 little-endian values",
    }
    record = RunRecord(manifest, tuple(evals), tuple(records), params)
    if write:
        write_outputs(record, os.path.join(cfg.output_dir, "convergence_run"))
        _atomic_write(os.path.join(cfg.output_dir, "convergence.csv"), diagnostics.convergence_csv(trace))
    return record, trace


DEFAULT_ROTATIONS_DEG = (0.0, 20.0, 40.0, 60.0)
DEFAULT_NOISE_SIGMA = 0.15
DEFAULT_DOMAIN_SAMPLES = 2000


def default_domains() -> tuple[DomainSpec, ...]:
    """The default synthetic task's domains: four two-moons copies at
    rotations 0/20/40/60 degrees, noise 0.15, 2000 samples each, one seed
    per domain."""
    return tuple(
        DomainSpec(
            rotation=math.radians(deg),
            translation=(0.0, 0.0),
            noise_sigma=DEFAULT_NOISE_SIGMA,
            n_samples=DEFAULT_DOMAIN_SAMPLES,
            seed=i,
        )
        for i, deg in enumerate(DEFAULT_ROTATIONS_DEG)
    )


def default_experiment(mode: str = "gac_fas", **overrides) -> ExperimentConfig:
    """The default experiment: the default four-domain task, a small tanh
    MLP, and paper-transferable optimizer defaults, leave-one-out over all
    four domains. Holding one domain out leaves three training sources.
    Keyword overrides replace top-level ExperimentConfig fields; optimizer
    overrides nest under "optimizer"."""
    opt_overrides = overrides.pop("optimizer", {})
    if isinstance(opt_overrides, dict):
        optimizer = OptimizerConfig(**{"mode": mode, **opt_overrides})
    else:
        optimizer = opt_overrides
    base = dict(
        model=MlpSpec((2, 16, 16, 2), "tanh"),
        domains=default_domains(),
        held_out="all",
        optimizer=optimizer,
        steps=1000,
        per_domain_batch=32,
        seeds=(0,),
        output_dir="runs",
        eval_every=100,
        eval_window=10,
        diagnostics_every=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
