"""Every argument refusal of a library call, as one table: the call, the
exception class it raises and its whole message. A refused CLI or driver call
is a row of REFUSALS in test_harness.py, and a refused config value a case of
the draw in test_config.py."""

import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest

from gacfas import harness
from gacfas.config import ConfigNotFoundError, ConfigValueError, load_config, parse_config
from gacfas.datagen import DomainSpec, SourceSet, build_source_set, gen_two_moons, leave_one_out, sample_minibatch
from gacfas.datagen import shift_domain
from gacfas.diagnostics import ConvergenceTrace, LandscapeGrid, alignment_inner_products, convergence_trace
from gacfas.diagnostics import landscape_slice, surrogate_gap
from gacfas.evalmetrics import ScoredSet, hter_at_eer, roc_auc, tpr_at_fpr
from gacfas.harness import EvalReport, RunRecord, params_bin, read_params_bin, run_training, window_means
from gacfas.model import Batch, MlpSpec, ParamVector, finite_diff_grad, forward, layout_for, loss_and_grad, mean_loss
from gacfas.model import mean_loss_and_grad
from gacfas.numerics import Prng, as_vec64, axpy, dot, gaussian, zeros
from gacfas.optim import MODES, SCHEDULE_KINDS, OptimizerConfig, StepDiagnostics, ascending_vector, gac_fas_record
from gacfas.optim import schedule_value, take_step

from helpers import TINY_CONFIG, CountingQuadratic, ScalarQuadratic, k_domain_batch, random_instance, scalar_params

SPEC, PARAMS, BATCH = random_instance(7, sizes=(2, 16, 16, 2), k=1, per_domain=32)  # 354 parameters, 32 rows
THETA = PARAMS.theta
SPECS = [DomainSpec(n_samples=4, seed=i) for i in range(3)]
SOURCE = build_source_set(SPECS)  # domains 0, 1 and 2 of 4 rows
TINY = parse_config(json.dumps(TINY_CONFIG))
RECORD = StepDiagnostics(1, 0.0, 1.0, (1.0,), (1.0,), 0.0)
FOUR_EVALS = RunRecord({}, (EvalReport(1, 0.1, 0.2, 0.3, 1.0, 0.5),) * 4, (), ParamVector.from_flat(zeros(1)))


def _read_params(data) -> ParamVector:
    """read_params_bin of data (bytes, or a theta to write) as params.bin, under a model of 22 parameters."""
    with open("params.bin", "wb") as fh:
        fh.write(data if isinstance(data, bytes) else params_bin(ParamVector.from_flat(data)))
    return read_params_bin("params.bin", MlpSpec((2, 4, 2), "tanh"))


def _no_model_call(step, mode: str, t):
    """A step or record at step index t by a model that counts its gradient calls: a refused t makes none."""
    model = CountingQuadratic()
    try:
        step(model, scalar_params(1.0), k_domain_batch(2), OptimizerConfig(mode=mode), t)
    finally:
        assert model.calls == 0


def _evaluate_nan_parameters():
    source, test = leave_one_out(list(TINY.domains), 2)
    nan = ParamVector(np.full(TINY.model.param_count(), math.nan), layout_for(TINY.model))
    return harness._evaluate(TINY, TINY.model, nan, test, source, 7)


def row(name: str, call, message: str, cls=ValueError):
    """One refusal, shown as name: call() raises exactly cls (ValueError unless given) with exactly message."""
    return pytest.param(call, cls, message, id=name)


_STEP_INDEX = "step index must be an integer >= 1, got {!r}"
_DISTINCT = "a source set's domains must hold distinct ids, got {} (repeated: {})"
_GRID_STEPS = "steps must be an odd int >= 3 so the center is a grid point, got {!r}"
_LABELS = [([0, -2], "label -2 out of range for 2 classes"), ([0, -1], "label -1 out of range for 2 classes"),
           ([[0, 1], [1, -1]], "label -1 out of range for 2 classes"),
           ([0.0, 1.7], "labels must be whole numbers, got 1.7")]
_NOT_FINITE = [("noise_sigma", math.nan, "noise_sigma must be finite and >= 0, got nan"),
               ("noise_sigma", math.inf, "noise_sigma must be finite and >= 0, got inf"),
               ("rotation", math.inf, "rotation must be finite, got inf"),
               ("rotation", -math.nan, "rotation must be finite, got nan"),
               ("translation", (math.nan, 0), "translation must be finite, got (nan, 0.0)"),
               ("translation", (0.0, -math.inf), "translation must be finite, got (0.0, -inf)")]
_SCORED = [([0.1, 0.2], [0, 2], "labels must be binary 0/1"), ([], [], "need at least one scored sample"),
           ([0.1], [0.1, 0.2], "labels must be whole numbers, got 0.1"),
           ([0.1], [0, 1], "scores and labels must be equal-length vectors, got (1,) and (2,)"),
           ([0.1, 0.2, 0.3], [0.0, 1.0, 0.6], "labels must be whole numbers, got 0.6")]

LIBRARY_REFUSALS = [
    # numerics. int() would run Prng(0.5) as seed 0 and Prng(True) as seed 1.
    row("as_vec64([[1.0, 2.0]])", lambda: as_vec64([[1.0, 2.0]]), "Vec64 must be one-dimensional, got shape (1, 2)"),
    row("zeros(-1)", lambda: zeros(-1), "vector length must be >= 0, got -1"),
    row("dot(zeros(2), zeros(3))", lambda: dot(zeros(2), zeros(3)), "dot: length mismatch 2 vs 3"),
    row("axpy(1.0, zeros(2), zeros(3))", lambda: axpy(1.0, zeros(2), zeros(3)), "axpy: length mismatch 2 vs 3"),
    row("gaussian(Prng(0), -1)", lambda: gaussian(Prng(0), -1), "draw count must be >= 0, got -1"),
    *[row(f"Prng({', '.join(map(repr, args))})", partial(Prng, *args),
          f"Prng {name} must be a non-negative integer, got {args[-1]!r}")
      for args, name in [((-3,), "seed"), ((0.5,), "seed"), ((True,), "seed"),
                         ((0, -1), "stream_id"), ((0, 1.0), "stream_id"), ((0, True), "stream_id")]],
    # model. A negative label would read another entry's logit ([0, -2] the loss of [0, 1]) and 1.7 would read
    # as 1; with one value too many in theta the gradient's last entry would be uninitialized memory.
    row("ParamVector(7 values, layout of 6)", lambda: ParamVector(zeros(7), layout_for(MlpSpec((2, 2), "tanh"))),
        "layout covers 6 entries, theta has 7"),
    row("Batch(0 rows)", lambda: Batch(np.zeros((0, 2)), [], []), "batch must contain at least one sample"),
    *[row(f"Batch({name}={values})", partial(Batch, np.zeros((2, 2)), **{"labels": [0, 0], "domain_ids": [0, 0],
                                                                         name: values}), message)
      for name, values, message in [("labels", [0, -1], "labels must be non-negative, got -1"),
                                    ("domain_ids", [0, -1], "domain_ids must be non-negative, got -1"),
                                    ("labels", [0.0, 1.7], "labels must be whole numbers, got 1.7"),
                                    ("domain_ids", [0, 0.9], "domain_ids must be whole numbers, got 0.9"),
                                    ("domain_ids", [0, math.nan], "domain_ids must be whole numbers, got nan")]],
    row("forward(width 5)", partial(forward, SPEC, PARAMS, np.zeros((3, 5))),
        "inputs must be (..., n, 2), got shape (3, 5)"),
    row("loss_and_grad(label 2)", lambda: loss_and_grad(SPEC, PARAMS, Batch(BATCH.inputs, [2] * 32, BATCH.domain_ids)),
        "label 2 out of range for 2 classes"),
    *[row(f"{fn.__name__}(labels={labels})", partial(fn, SPEC, THETA, BATCH.inputs[:2], labels), message)
      for fn in (mean_loss, mean_loss_and_grad) for labels, message in _LABELS],
    row("mean_loss_and_grad(1 label, 32 rows)", partial(mean_loss_and_grad, SPEC, THETA, BATCH.inputs, [0]),
        "labels must be (..., 32) to match the inputs, got shape (1,)"),
    row("mean_loss_and_grad(inputs of one row)", partial(mean_loss_and_grad, SPEC, THETA, [0.1, 0.2], BATCH.labels),
        "inputs must be (..., n, 2), got shape (2,)"),
    *[row(f"{name}(theta of {354 + extra})", partial(call, np.resize(THETA, 354 + extra)),
          f"theta must have 354 parameters on its last axis, got shape ({354 + extra},)")
      for extra in (1, -1) for name, call in [
          ("mean_loss_and_grad", lambda theta: mean_loss_and_grad(SPEC, theta, BATCH.inputs, BATCH.labels)),
          ("mean_loss", lambda theta: mean_loss(SPEC, theta, BATCH.inputs, BATCH.labels)),
          ("forward", lambda theta: forward(SPEC, ParamVector.from_flat(theta), BATCH.inputs))]],
    row("mean_loss(theta of shape ())", partial(mean_loss, SPEC, np.ones(()), BATCH.inputs, BATCH.labels),
        "theta must have 354 parameters on its last axis, got shape ()"),
    row("finite_diff_grad(h=0.0)", partial(finite_diff_grad, SPEC, PARAMS, BATCH, 0.0),
        "finite-difference step must be positive, got 0.0"),
    # datagen. A NaN noise_sigma would train on a noise-free domain. A negative one is a case of the config
    # draw, test_each_fault_of_the_seed_config_is_refused[out-of-range-23].
    *[row(f"DomainSpec({name}={value})", partial(DomainSpec, **{name: value}), message)
      for name, value, message in _NOT_FINITE],
    row("gen_two_moons(1)", lambda: gen_two_moons(1, 0.0, Prng(0)), "need n >= 2 samples, got 1"),
    row("SourceSet(())", lambda: SourceSet(()), "a source set needs at least one realized domain"),
    row("SourceSet(a batch of ids 0, 0, 1, 1)", partial(SourceSet, (Batch([[0, 0]] * 4, [0] * 4, [0, 0, 1, 1]),)),
        "realized domain batch mixes domain ids [0, 1]"),
    row("SourceSet(domains 0, 1, 2, 0)", partial(SourceSet, SOURCE.domains + SOURCE.domains[:1]),
        _DISTINCT.format([0, 1, 2, 0], [0])),
    row("build_source_set(indices=(1, 1))", partial(build_source_set, SPECS[:2], indices=(1, 1)),
        _DISTINCT.format([1, 1], [1])),
    *[row(f"build_source_set(indices={indices})", partial(build_source_set, SPECS[:2], indices=indices),
          f"domain index must be an integer, got {indices[0]!r}") for indices in [(0.5, 1.7), (True, 1), ("0", 1)]],
    *[row(f"shift_domain(index {index})", partial(shift_domain, gen_two_moons(4, 0.0, Prng(0)), DomainSpec(), index),
          f"domain index must be an integer, got {index!r}") for index in (1.7, True)],
    *[row(f"leave_one_out(held={held})", partial(leave_one_out, SPECS, held),
          f"held-out index must be an integer, got {held!r}") for held in (True, 1.5)],
    row("leave_one_out(held=3)", partial(leave_one_out, SPECS, 3), "held-out index 3 out of range for 3 domains"),
    row("leave_one_out(one domain)", partial(leave_one_out, SPECS[:1], 0), "leave-one-out needs at least two domains"),
    *[row(f"sample_minibatch(per_domain={n})", lambda n=n: sample_minibatch(SOURCE, n, Prng(0, 1)), message)
      for n, message in [(5, "per_domain=5 exceeds smallest domain size 4"), (0, "per_domain must be >= 1, got 0")]],
    # optim. NaN passes a plain "< 0" check. step_factor is refused whatever the schedule: its config echo
    # would hold a literal that the config reader refuses. t = 2.5 would run as step 2.5, and t = True as step 1.
    *[row(f"OptimizerConfig(schedule={schedule!r}, {name}={value})",
          partial(OptimizerConfig, schedule=schedule, **{name: value}),
          f"{name} must be {'a finite number' if name == 'step_factor' else 'finite and >= 0'}, got {value}")
      for schedule in SCHEDULE_KINDS
      for name in ("eta0", "rho", "gamma", "weight_decay", "zero_grad_eps", "step_factor")
      for value in (math.nan, math.inf, -math.inf)],
    row("OptimizerConfig(gamma=-1.0)", partial(OptimizerConfig, gamma=-1.0), "gamma must be finite and >= 0, got -1.0"),
    *[row(f"ascending_vector(rho={rho})", partial(ascending_vector, np.ones(3), rho, 1e-12),
          f"rho must be finite and >= 0, got {rho}") for rho in (math.nan, math.inf, -math.inf, -0.1)],
    row("schedule_value('step', period unresolved)", lambda: schedule_value(OptimizerConfig(schedule="step"), 0.1, 5),
        "step schedule period not resolved to steps (see harness)"),
    *[row(f"schedule_value({kind!r}, t={t!r})", partial(schedule_value, OptimizerConfig(schedule=kind), 1.0, t),
          _STEP_INDEX.format(t)) for t in (2.5, True, 0) for kind in ("constant", "theorem1")],
    *[row(f"{step.__name__}({mode!r}, t={t!r})", partial(_no_model_call, step, mode, t), _STEP_INDEX.format(t))
      for t in (2.5, True, 0) for step, mode in [*[(take_step, mode) for mode in MODES], (gac_fas_record, "erm")]],
    # diagnostics. A bad rho or gamma is refused as the OptimizerConfig is built, before any call.
    row("surrogate_gap(rho=-0.1)",
        lambda: surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=-0.1)),
        "rho must be finite and >= 0, got -0.1"),
    *[row(f"alignment_inner_products(i={i!r})",
          partial(alignment_inner_products, SPEC, PARAMS, SOURCE, i, OptimizerConfig(rho=0.1, gamma=0.0)), message)
      for i, message in [(3, "domain index 3 out of range for k=3"), (True, "domain index must be an int, got True"),
                         (1.0, "domain index must be an int, got 1.0")]],
    *[row(f"landscape_slice(dims={dims!r}, steps={steps!r})",
          partial(landscape_slice, SPEC, PARAMS, BATCH, dims=dims, radius=1.0, steps=steps, prng=Prng(0, 2)), message)
      for dims, steps, message in [(True, 5, "dims must be 1 or 2, got True"), (1.0, 5, "dims must be 1 or 2, got 1.0"),
                                   (3, 5, "dims must be 1 or 2, got 3"), (1, 5.0, _GRID_STEPS.format(5.0)),
                                   (1, True, _GRID_STEPS.format(True))]],
    row("LandscapeGrid(3 offsets, 4 losses)", lambda: LandscapeGrid(np.zeros(3), np.zeros(4)),
        "losses shape (4,) does not match 3 offsets"),
    row("convergence_trace([])", partial(convergence_trace, [], window=10), "diagnostics stream is empty"),
    *[row(f"convergence_trace(window={window!r})", partial(convergence_trace, [RECORD] * 4, window=window),
          f"window must be an int >= 1, got {window!r}") for window in (0, True, 2.0)],
    row("convergence_trace(1 record, window=5)", partial(convergence_trace, [RECORD], window=5),
        "stream of 1 records is shorter than one window of 5"),
    row("ConvergenceTrace(grad_sq -1.0)", partial(ConvergenceTrace, (1,), (-1.0,), (0.0,), 1.0, 0.0, 0.0),
        "squared gradient norms must be >= 0"),
    # evalmetrics. A label 0.6 would read as 0, and the set as AUC 0.5. A diverged model scores every
    # sample NaN, which is an error, not hter=0.
    *[row(f"ScoredSet({scores}, {labels})", partial(ScoredSet, scores, labels), message)
      for scores, labels, message in _SCORED],
    *[row(f"ScoredSet(a score {bad})", partial(ScoredSet, [0.9, bad, 0.4, 0.1], [1, 0, 1, 0]),
          "scores must be finite, got 1 NaN/inf of 4") for bad in (math.nan, math.inf, -math.inf)],
    row("ScoredSet(every score nan)", partial(ScoredSet, np.full(4, math.nan), [1, 0, 1, 0]),
        "scores must be finite, got 4 NaN/inf of 4"),
    *[row(f"{fn.__name__}(one class)", lambda fn=fn: fn(ScoredSet([0.5, 0.6], [1, 1])),
          "threshold metrics need at least one positive and one negative") for fn in (roc_auc, hter_at_eer)],
    *[row(f"tpr_at_fpr(cap {cap})", lambda cap=cap: tpr_at_fpr(ScoredSet([1.0, 0.0], [1, 0]), cap),
          f"fpr_cap must be in [0, 1], got {cap}") for cap in (-0.1, 1.5)],
    # harness
    row("load_config(missing)", partial(load_config, "/nonexistent/config.json"),
        "config file not found: /nonexistent/config.json", ConfigNotFoundError),
    *[row(f"window_means({w} of 4)", partial(window_means, FOUR_EVALS, w),
          f"eval_window={w} out of range for 4 evaluations") for w in (5, 0)],
    *[row(f"read_params_bin({name})", partial(_read_params, data), f"params.bin: {message}")
      for name, data, message in [("3 values", zeros(3), "3 values do not match model with 22 parameters"),
                                  ("2 bytes", b"\x01\x02", "truncated params file"),
                                  ("inf at 7", np.where(np.arange(22) == 7, math.inf, 0.0),
                                   "parameter 7 is inf, expected a finite value")]],
    row("run_training(seed=-1)", partial(run_training, TINY, -1), "Prng seed must be a non-negative integer, got -1"),
    row("run_training(held_out='all')", partial(run_training, dataclasses.replace(TINY, held_out="all"), 0),
        "run_training requires an integer held_out domain, got 'all'", ConfigValueError),
    row("_evaluate(NaN parameters, step 7)", _evaluate_nan_parameters,
        "evaluation at step 7 failed: scores must be finite, got 24 NaN/inf of 24", RuntimeError),
]


@pytest.mark.parametrize(("call", "cls", "message"), LIBRARY_REFUSALS)
def test_a_library_call_is_refused_with_its_whole_message(tmp_path, monkeypatch, call, cls, message):
    """The call raises exactly cls with exactly message, run in an empty working directory."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    assert type(exc) is cls and str(exc) == message, (type(exc), str(exc))
