"""Sharpness-aware training with per-domain ascending points whose
generalization gradients are aligned to the empirical-risk gradient, plus a
deterministic experiment harness for multi-domain synthetic classification.

Modules: numerics (float64 vector kernels, seeded streams), model (minimal
MLP with hand-written backprop), datagen (rotated two-moons domains), optim
(the optimizer family: take_step is the one step entry, and cfg.mode selects
its update rule), diagnostics (surrogate gap, alignment tensor, landscape
slices, convergence traces), evalmetrics (HTER/AUC/TPR@FPR), config (the
experiment config and its strict JSON reader), _procs (the forked workers
that share runs and records), harness (training loops, leave-one-out,
sweeps, CSV outputs), cli (the `gacfas` command).
"""

from .config import ConfigError, ExperimentConfig, default_experiment, load_config
from .datagen import DomainSpec, SourceSet
from .diagnostics import (
    ConvergenceTrace,
    LandscapeGrid,
    alignment_inner_products,
    convergence_trace,
    landscape_slice,
    surrogate_gap,
)
from .evalmetrics import ScoredSet, hter_at_eer, roc_auc, tpr_at_fpr
from .harness import (
    EvalReport,
    RunRecord,
    run_leave_one_out,
    run_sweep,
    run_training,
    write_outputs,
)
from .model import Batch, MlpSpec, ParamVector
from .numerics import Prng
from .optim import (
    MODES,
    OptimizerConfig,
    StepDiagnostics,
    ascending_vector,
    take_step,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ConfigError",
    "ConvergenceTrace",
    "DomainSpec",
    "EvalReport",
    "ExperimentConfig",
    "LandscapeGrid",
    "MODES",
    "MlpSpec",
    "OptimizerConfig",
    "ParamVector",
    "Prng",
    "RunRecord",
    "ScoredSet",
    "SourceSet",
    "StepDiagnostics",
    "alignment_inner_products",
    "ascending_vector",
    "convergence_trace",
    "default_experiment",
    "hter_at_eer",
    "landscape_slice",
    "load_config",
    "roc_auc",
    "run_leave_one_out",
    "run_sweep",
    "run_training",
    "surrogate_gap",
    "take_step",
    "tpr_at_fpr",
    "write_outputs",
    "__version__",
]
