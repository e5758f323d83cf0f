"""Experiment orchestration: training runs, the leave-one-out rotation,
gamma x rho sweeps, convergence runs, and deterministic outputs.

Every run is fully determined by (config, seed): data realization comes from
the domain seeds, parameter init from stream 0 of the run seed, minibatch
sampling from stream 1, and landscape directions from stream 2.

Per-run files: manifest.json (canonical config echo + sha256 digest),
metrics.csv, diagnostics.csv, params.bin (uint64-le length prefix, then
float64-le parameter values in the layout documented in the manifest). All
writes are atomic (temp file + rename).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import datagen, diagnostics, evalmetrics, model as model_mod
from ._procs import _process_count, _spread
# load_config is bound here but not called: perfbench/tracer.py times the
# config load as harness.load_config.
from .config import ConfigValueError, ExperimentConfig, _require_file, _require_index, config_digest, config_to_dict, load_config
from .model import Batch, MlpSpec, ParamVector, layout_for
from .numerics import Prng, _is_int
from .optim import OptimizerConfig, StepDiagnostics, batch_loss, gac_fas_record, take_step


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


# The files of one run, by their key in write_outputs' path map.
RUN_FILES = {"manifest": "manifest.json", "metrics": "metrics.csv", "diagnostics": "diagnostics.csv", "params": "params.bin"}


def write_outputs(record: RunRecord, output_dir: str) -> dict:
    """Write manifest.json, metrics.csv, diagnostics.csv, params.bin into
    output_dir atomically; returns the path map."""
    paths = {key: os.path.join(output_dir, name) for key, name in RUN_FILES.items()}
    _atomic_write(paths["manifest"], json.dumps(record.manifest, sort_keys=True, indent=2) + "\n")
    _atomic_write(paths["metrics"], metrics_csv(record))
    _atomic_write(paths["diagnostics"], diagnostics_csv(record))
    _atomic_write(paths["params"], params_bin(record.final_params))
    return paths


def _read_manifest(path: str):
    """The run manifest at path, None if there is none and {} if it is not a
    JSON object; refused by its path if it is not a readable JSON file."""
    if not os.path.exists(path):
        return None
    _require_file(path, "run manifest")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigValueError(f"{path} is not a readable run manifest: {exc}") from exc
    return manifest if isinstance(manifest, dict) else {}


def preflight(cfg: ExperimentConfig, seed=None) -> None:
    """Refuse, before the first step and before any fork, an output_dir that
    is, or lies under, something other than a directory; and for train's run
    of seed, a negative seed, a run file there (RUN_FILES) that is not a
    regular file, or a manifest there that records another seed (the same
    seed overwrites its files, as a rerun should)."""
    if seed is not None and seed < 0:
        raise ConfigValueError(f"--seed: expected a non-negative integer, got {seed}")
    path = os.path.abspath(cfg.output_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigValueError(f"output_dir {cfg.output_dir}: {path} is not a directory")
    if seed is None:
        return
    for key, name in RUN_FILES.items():
        path = os.path.join(cfg.output_dir, name)
        if os.path.exists(path):
            _require_file(path, f"run {key}")
    path = os.path.join(cfg.output_dir, RUN_FILES["manifest"])
    manifest = _read_manifest(path)
    if manifest is not None and manifest.get("seed") != seed:
        raise ConfigValueError(
            f"{path} records seed {manifest.get('seed')!r}; train --seed {seed} would overwrite that run's files "
            f"(set a different output_dir for seed {seed})"
        )


def train_and_write(cfg: ExperimentConfig, seed: int):
    """train: one run of seed, written into cfg.output_dir; returns (record, paths)."""
    record = run_training(cfg, seed, _require_index(cfg.held_out, "train"))
    return record, write_outputs(record, cfg.output_dir)


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


def run_landscape(cfg: ExperimentConfig, checkpoint: str, dims: int, radius: float, steps: int):
    """landscape: the loss slice around the checkpoint's parameters on
    cfg.held_out's source set, directions from stream 2 of the first seed,
    written to <output_dir>/landscape.csv. Returns (grid, that path).

    A manifest.json beside the checkpoint must record cfg's model and
    domains, and cfg.held_out as the run's held_out; a checkpoint with none
    beside it is read as cfg's model."""
    held = _require_index(cfg.held_out, "landscape")
    _require_file(checkpoint, "checkpoint")
    path = os.path.join(os.path.dirname(checkpoint), RUN_FILES["manifest"])
    manifest = _read_manifest(path)
    if manifest is not None:
        recorded = manifest.get("config")
        theirs = {**recorded, "held_out": manifest.get("held_out")} if isinstance(recorded, dict) else {}
        ours = {**config_to_dict(cfg), "held_out": held}
        for key in ("model", "domains", "held_out"):
            if theirs.get(key) != ours[key]:
                raise ConfigValueError(f"checkpoint {checkpoint} is not a run of this config: {path} records another {key}")
    params = read_params_bin(checkpoint, cfg.model)
    source, _ = datagen.leave_one_out(list(cfg.domains), held)
    grid = diagnostics.landscape_slice(cfg.model, params, source.concatenated(), dims, radius, steps, Prng(cfg.seeds[0], 2))
    path = os.path.join(cfg.output_dir, "landscape.csv")
    _atomic_write(path, landscape_csv(grid))
    return grid, path


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
