"""The optimizer family: ERM/SGD, whole-batch SAM, domain-wise SAM, the
gradient-aligned cross-domain variant (gac_fas), and its domain-scoped
perturbation ablation (reg_domain_perturb).

One entry, per-mode directions: take_step is the one step function, and
cfg.mode alone picks the rule, through _DIRECTIONS. _descent takes the
schedule values, the domain parts, their plain (losses, gradients) pair from
_pair_losses_grads, the mode's direction and the record, and take_step
updates theta - eta_t (d + grad R); gac_fas_record stops before the update.
Each mode supplies only its direction: d, its per-domain perturbed gradients
and its surrogate gap (_erm, _sam_whole, _sam_domain, and _aligned for
gac_fas and reg_domain_perturb). _eps_rows is the one ascent helper; an
ascending point is eps_i + base.

Loss convention: the whole-batch loss L(theta; B) is the SUM of per-domain
batch-mean losses, and its gradient is the matching sum of per-domain mean
gradients. All reductions over domains run in ascending domain-id order so
results are bit-identical regardless of how the per-domain evaluations are
scheduled. The parts come from a Batch or from a SourceSet (the full-set
diagnostics), the latter as the set's own row views.

The ascending vector eps_i = rho * g_i / ||g_i|| and the gamma * g offset are
held constant when the gradient at the perturbed point is taken (first-order
practice; nothing differentiates through eps).

take_step is a pure update: it never modifies the incoming ParamVector and
returns a fresh one. The model argument may be an MlpSpec or any object
exposing loss(theta, inputs, labels) and loss_and_grad(theta, inputs, labels)
returning per-sub-batch means; the scalar oracles in the test suite use the
latter hook.

Stacked evaluation: a step evaluates its (parameter point, domain part)
pairs in at most two kernel calls. On a balanced-sampler batch of an MlpSpec
model the k parts are (k, n, d) views, and model.mean_loss_and_grad takes
the plain point against all parts in one call, then the k perturbed points
in one more: paired with their own part (sam_domain, reg_domain_perturb),
against every part as a (k, 1, P) x (k, n, d) grid (gac_fas), or as one
point against all parts (sam_whole). The kernel gives every pair the bits a
separate 2-D call would, and the reductions over domains keep the
ascending-id order, so stacking changes no output bit. A batch without the
balanced layout, the parts of a SourceSet, and the duck-typed models all
take one call per pair instead.

Step records: take_step returns (new params, StepDiagnostics).
With record=False it skips the record's norms and cosines and returns the
step's loss_erm, a float, in the record's place. The training loop asks for
a record only on the steps it keeps (every diagnostics_every-th), the
convergence run never does, and a direct call builds it by default.

Sums over domain parts keep the loops' order and start values: losses add as
Python floats from 0.0 (numpy would sum a row of 8 or more pairwise), and
gradients add in one np.add.reduce over the parts axis (see _grad_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import numerics
from .datagen import SourceSet
from .model import Batch, ParamVector, domain_slices
from .numerics import axpy, dot, l2_norm

MODES = ("erm", "sam_whole", "sam_domain", "gac_fas", "reg_domain_perturb")
SCHEDULE_KINDS = ("constant", "step", "theorem1")


@dataclass(frozen=True)
class OptimizerConfig:
    """One field per key of the config's optimizer object, and period_steps.

    The schedule decays eta, rho and gamma alike: "constant" keeps the base
    value; "step" multiplies it by step_factor every step_period_epochs, which
    the harness resolves to period_steps (0: unresolved) before any step runs;
    "theorem1" decays it as base / sqrt(t). The schedule is checked first."""

    mode: str = "gac_fas"
    eta0: float = 0.005
    rho: float = 0.1
    gamma: float = 0.0002
    weight_decay: float = 1e-4
    schedule: str = "constant"
    step_period_epochs: int = 40
    step_factor: float = 0.1
    period_steps: int = 0
    zero_grad_eps: float = 1e-12
    track_surrogate_gap: bool = True

    def __post_init__(self):
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"schedule must be one of {SCHEDULE_KINDS}, got {self.schedule!r}")
        for name in ("step_period_epochs", "period_steps"):
            numerics._expect(numerics._is_int(getattr(self, name)), name, "an integer", getattr(self, name))
        object.__setattr__(self, "step_factor", numerics._as_float(self.step_factor, "step_factor"))
        numerics._expect(math.isfinite(self.step_factor), "step_factor", "a finite number", self.step_factor)
        if self.schedule == "step":
            if self.step_period_epochs < 1:
                raise ValueError(f"step period must be >= 1 epoch, got {self.step_period_epochs}")
            if not 0.0 < self.step_factor <= 1.0:
                raise ValueError(f"step factor must be in (0, 1], got {self.step_factor}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("eta0", "rho", "gamma", "weight_decay", "zero_grad_eps"):
            object.__setattr__(self, name, numerics._as_float(getattr(self, name), name))
            _check_nonneg(name, getattr(self, name))
        gap = self.track_surrogate_gap
        numerics._expect(isinstance(gap, bool), "track_surrogate_gap", "true/false", gap)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record, populated from quantities the step already computed.

    A step builds it only when asked (record=True, the default; the training
    loop asks on the steps it keeps), and it holds plain floats and ints,
    never a gradient array.

    Per-domain entries follow ascending domain-id order.
    For gac_fas (and reg_domain_perturb), alignment_cos[i] is the cosine of
    g with the gradient at theta + eps_i - gamma_t g, the shifted point the
    step evaluates, not at the ascending point theta + eps_i. On a quadratic
    loss with Hessian H its inner product with g is the one at the
    ascending point less gamma_t g.H.g, which falls as gamma grows wherever
    the curvature along g is positive.
    Modes without per-domain perturbed gradients fill the per-domain slots
    with their closest analog: erm records the plain per-domain gradients,
    sam_whole replicates its single perturbed gradient across domains.
    surrogate_gap is NaN when tracking is toggled off.
    """

    step_index: int
    loss_erm: float
    grad_norm: float
    alignment_cos: tuple[float, ...]
    adv_grad_norms: tuple[float, ...]
    surrogate_gap: float

    @property
    def adv_grad_sq_mean(self) -> float:
        """The mean of adv_grad_norms squared, read by diagnostics.csv and the convergence fit."""
        return sum(v**2 for v in self.adv_grad_norms) / len(self.adv_grad_norms)


def _check_nonneg(name: str, value) -> None:
    """Refuse a NaN, an infinity or a negative value by name."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _eps_rows(grads: np.ndarray, rho: float, zero_grad_eps: float) -> np.ndarray:
    """Row i: rho * grads[i] / ||grads[i]||, or zero when that norm is NaN
    or at most zero_grad_eps, in one fresh (k, P) array.

    This is the only ascent arithmetic: an ascending point is eps + base,
    which has the bits of axpy(1.0, eps, base)."""
    eps = np.zeros(grads.shape, dtype=np.float64)
    for row, grad in zip(eps, grads):
        norm = l2_norm(grad)
        if norm > zero_grad_eps:
            np.multiply(grad, rho / norm, out=row)
    return eps


def ascending_vector(grad: np.ndarray, rho: float, zero_grad_eps: float) -> np.ndarray:
    """eps = rho * grad / ||grad|| when ||grad|| > zero_grad_eps, else zero.

    The guard prevents division blow-up at exact minima."""
    _check_nonneg("rho", rho)
    return _eps_rows(grad[None, :], rho, zero_grad_eps)[0]


def regularizer_grad(params: ParamVector, weight_decay: float) -> np.ndarray:
    """Gradient of (weight_decay/2)||theta||^2: weight_decay * theta, biases included."""
    return params.theta * float(weight_decay)


def schedule_value(opt: OptimizerConfig, base: float, t: int) -> float:
    numerics._expect(numerics._is_int(t) and t >= 1, "step index", "an integer >= 1", t)
    if opt.schedule == "constant":
        return base
    if opt.schedule == "theorem1":
        return base / math.sqrt(t)
    if opt.period_steps < 1:
        raise ValueError("step schedule period not resolved to steps (see harness)")
    return base * opt.step_factor ** ((t - 1) // opt.period_steps)


def _loss_and_grad(model, theta: np.ndarray, inputs, labels):
    fn = getattr(model, "loss_and_grad", None)
    if fn is not None:
        loss, grad = fn(theta, inputs, labels)
        return float(loss), numerics.as_vec64(grad)
    return model_mod.mean_loss_and_grad(model, theta, inputs, labels)


def _mean_loss(model, theta: np.ndarray, inputs, labels) -> float:
    fn = getattr(model, "loss", None)
    if fn is not None:
        return float(fn(theta, inputs, labels))
    return model_mod.mean_loss(model, theta, inputs, labels)


@dataclass(frozen=True)
class _Parts:
    """Per-domain sub-batches, in ascending domain-id order when split from
    a batch.

    Stacked parts hold (k, n, d) inputs and (k, n) labels for the stacked
    kernel; otherwise inputs and labels are per-domain lists."""

    ids: tuple[int, ...]
    inputs: object
    labels: object


def _block_size(ids: np.ndarray) -> int:
    """m when the ids lie as the balanced sampler lays them out: consecutive
    blocks of m rows, each holding one domain id, with strictly ascending
    ids from block to block. Otherwise 0."""
    m = int((ids == ids[0]).sum())  # in that layout, the rows of the first id are its block
    if ids.shape[0] % m:
        return 0
    blocks = ids.reshape(-1, m)
    firsts = blocks[:, 0].tolist()
    return m if all(a < b for a, b in zip(firsts, firsts[1:])) and (blocks == blocks[:, :1]).all() else 0


def _domain_parts(model, batch) -> _Parts:
    """Split a Batch or a SourceSet into its domain parts, once per step.

    A batch of an MlpSpec model laid out in ascending blocks of one size
    (_block_size), as the balanced sampler draws it, is reshaped into
    stacked views with no id search. A SourceSet gives its domains' own row
    views in ascending id order: the parts its concatenated() batch would
    split into. Other batches and the duck-typed models take per-domain
    copies through domain_slices."""
    if isinstance(batch, SourceSet):
        batches = sorted(batch.domains, key=lambda b: int(b.domain_ids[0]))
        return _Parts(
            tuple(int(b.domain_ids[0]) for b in batches), [b.inputs for b in batches], [b.labels for b in batches]
        )
    m = isinstance(model, model_mod.MlpSpec) and _block_size(batch.domain_ids)
    if m:
        k = batch.n // m
        return _Parts(
            tuple(batch.domain_ids[::m].tolist()),
            batch.inputs.reshape(k, m, batch.inputs.shape[1]),
            batch.labels.reshape(k, m),
        )
    slices = domain_slices(batch)
    return _Parts(
        tuple(dom for dom, _ in slices),
        [batch.inputs[idx] for _, idx in slices],
        [batch.labels[idx] for _, idx in slices],
    )


def _pair_losses_grads(model, points: np.ndarray, parts: _Parts, grid: bool = False):
    """Mean losses and gradients of parameter points against domain parts.

    points (P,) meets every part: shapes (k,) and (k, P). points (k, P)
    meets part i with row i: also (k,) and (k, P). With grid, points (m, P)
    meets every part with every row: (m, k) and (m, k, P).

    Stacked parts take one stacked kernel call; list parts take one call
    per (point, part) pair, with equal bits."""
    if grid:
        points = points[:, None, :]
    if isinstance(parts.inputs, np.ndarray):
        return model_mod.mean_loss_and_grad(model, points, parts.inputs, parts.labels)
    lead = np.broadcast_shapes(points.shape[:-1], (len(parts.ids),))
    points = np.broadcast_to(points, lead + points.shape[-1:])
    losses = np.empty(lead, dtype=np.float64)
    grads = np.empty(points.shape, dtype=np.float64)
    for idx in np.ndindex(*lead):
        j = idx[-1]
        losses[idx], grads[idx] = _loss_and_grad(model, points[idx], parts.inputs[j], parts.labels[j])
    return losses, grads


def _loss_sum(losses) -> float:
    """0.0 + losses[0] + losses[1] + ..., added in order as Python floats."""
    total = 0.0
    for loss in losses:
        total += loss
    return total


def _grad_sum(grads: np.ndarray) -> np.ndarray:
    """grads[..., 0, :] + grads[..., 1, :] + ... over the parts axis (-2), in
    one call, bit for bit the loop that copies the first part's gradient and
    adds the others to it in part order.

    Without an initial value numpy starts the sum from +0.0, which turns a
    -0.0 first term into +0.0; -0.0 + x is x for every x, so it is the
    start that copies. Along an axis that is not the innermost one numpy
    adds whole rows in index order, with the loop's elementwise add, NaN
    signs included. Every MlpSpec has P >= 2 parameters, so the parts axis
    is never the innermost one; along the innermost axis numpy sums
    pairwise from 8 terms on."""
    return np.add.reduce(grads, axis=-2, initial=-0.0)


def _deviation_sum(adv_grads: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum over domains of adv_grads[i] - g, from zeros and in domain order,
    in one call (in order for the reasons _grad_sum gives)."""
    return np.add.reduce(adv_grads - g, axis=0, initial=0.0)


def batch_loss_and_grad(model, theta: np.ndarray, batch: Batch):
    """Whole-batch loss/gradient under the sum-of-domain-means convention,
    summed in ascending domain-id order."""
    losses, grads = _pair_losses_grads(model, theta, _domain_parts(model, batch))
    return _loss_sum(losses.tolist()), _grad_sum(grads)


def batch_loss(model, theta: np.ndarray, batch: Batch) -> float:
    """The loss of batch_loss_and_grad, one loss call per domain part."""
    parts = _domain_parts(model, batch)
    return _loss_sum(_mean_loss(model, theta, x, y) for x, y in zip(parts.inputs, parts.labels))


def _cos(dot_ab: float, norm_a: float, norm_b: float) -> float:
    denom = norm_a * norm_b
    if denom == 0.0:
        return 0.0
    cos = dot_ab / denom
    if math.isnan(cos):
        return math.nan
    return min(1.0, max(-1.0, cos))


def _diagnostics(t: int, loss: float, g: np.ndarray, adv_grads, gap: float) -> StepDiagnostics:
    """The step record: adv_grads[i] is domain i's perturbed (or, for erm,
    plain) gradient; gap is already NaN when tracking is off."""
    g_norm = l2_norm(g)
    adv_norms = tuple(l2_norm(gp) for gp in adv_grads)
    return StepDiagnostics(
        step_index=t,
        loss_erm=loss,
        grad_norm=g_norm,
        alignment_cos=tuple(_cos(dot(gp, g), norm, g_norm) for gp, norm in zip(adv_grads, adv_norms)),
        adv_grad_norms=adv_norms,
        surrogate_gap=gap,
    )


def _descent(direction, model, theta: np.ndarray, batch, cfg: OptimizerConfig, t: int, record: bool, track_gap: bool):
    """(eta_t, d, the record) for the step at theta, or with record=False
    (eta_t, d, loss_erm), with (d, per-domain perturbed gradients, gap) from
    direction; the record's gap is NaN unless track_gap. The schedule values
    come first, so a bad t or an unresolved period fails before any model call."""
    eta_t, rho_t, gamma_t = (schedule_value(cfg, base, t) for base in (cfg.eta0, cfg.rho, cfg.gamma))
    parts = _domain_parts(model, batch)
    plain = _pair_losses_grads(model, theta, parts)
    loss, g = _loss_sum(plain[0].tolist()), _grad_sum(plain[1])
    d, adv_grads, gap = direction(model, theta, parts, plain, loss, g, rho_t, gamma_t, cfg.zero_grad_eps)
    if not record:
        return eta_t, d, loss
    return eta_t, d, _diagnostics(t, loss, g, adv_grads, gap if track_gap else math.nan)


def _erm(model, theta, parts, plain, loss, g, rho_t, gamma_t, zero_grad_eps):
    """d = g; the record's per-domain slots hold the plain gradients."""
    return g, plain[1], 0.0


def _sam_whole(model, theta, parts, plain, loss, g, rho_t, gamma_t, zero_grad_eps):
    """d = the whole-batch gradient at theta + eps(g), replicated across the
    record's per-domain slots."""
    losses_p, gps = _pair_losses_grads(model, ascending_vector(g, rho_t, zero_grad_eps) + theta, parts)
    g_p = _grad_sum(gps)
    return g_p, [g_p] * len(parts.ids), _loss_sum(losses_p.tolist()) - loss


def _sam_domain(model, theta, parts, plain, loss, g, rho_t, gamma_t, zero_grad_eps):
    """d = the mean over domains of domain i's gradient at theta + eps_i, on
    its own part."""
    k = len(parts.ids)
    losses_p, gps = _pair_losses_grads(model, _eps_rows(plain[1], rho_t, zero_grad_eps) + theta, parts)
    return _grad_sum(gps) * (1.0 / k), gps, _loss_sum((losses_p - plain[0]).tolist()) / k


def _aligned(domain_scope: bool):
    """The direction of gac_fas (domain_scope=False) and reg_domain_perturb.

    The gac_fas step:

      g_i = grad L(theta; B_i); g = sum_i g_i; r = grad R(theta)
      eps_i = rho_t * g_i / ||g_i||
      gp_i = grad L(theta + eps_i - gamma_t * g; B)  (whole batch)
      theta <- theta - eta_t (g + (1/k) sum_i gp_i + r)

    The reg_domain_perturb ablation takes gp_i on B_i alone, rescaled by k;
    on B, gp_i sums its parts in ascending id order."""

    def direction(model, theta, parts, plain, loss, g, rho_t, gamma_t, zero_grad_eps):
        k = len(parts.ids)
        points = _eps_rows(plain[1], rho_t, zero_grad_eps) + axpy(-gamma_t, g, theta)
        losses, grads = _pair_losses_grads(model, points, parts, grid=not domain_scope)
        if domain_scope:
            # Rescale the single-domain estimate to whole-batch (sum) units so
            # k=1 and fully symmetric domains reproduce the unscoped step.
            adv_losses, adv_grads = [loss_i * float(k) for loss_i in losses.tolist()], grads * float(k)
        else:
            adv_losses, adv_grads = [_loss_sum(row) for row in losses.tolist()], _grad_sum(grads)
        # Accumulating deviations from g keeps the terms small (they cluster
        # around g for small rho/gamma) and makes the rho=0, gamma=0 collapse
        # back to the doubled ERM gradient exact in floating point.
        mean_gp = axpy(1.0 / k, _deviation_sum(adv_grads, g), g)
        gap = _loss_sum([loss_adv - loss for loss_adv in adv_losses]) / k
        return g + mean_gp, adv_grads, gap

    return direction


# Each mode's direction d, by the name cfg.mode gives.
_DIRECTIONS = {
    "erm": _erm,
    "sam_whole": _sam_whole,
    "sam_domain": _sam_domain,
    "gac_fas": _aligned(False),
    "reg_domain_perturb": _aligned(True),
}


def take_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, record: bool = True):
    """One step of the rule cfg.mode names, theta <- theta - eta_t (d + grad R):
    (new params, StepDiagnostics), or with record=False (new params, the
    step's loss_erm as a float). The batch's domains are the step's k."""
    eta_t, d, out = _descent(_DIRECTIONS[cfg.mode], model, params.theta, batch, cfg, t, record, cfg.track_surrogate_gap)
    return params.with_theta(axpy(-eta_t, d + regularizer_grad(params, cfg.weight_decay), params.theta)), out


def gac_fas_record(model, params: ParamVector, batch, cfg: OptimizerConfig, t: int) -> StepDiagnostics:
    """The record of a gac_fas step, whatever cfg.mode, without the step's
    update of theta. Its surrogate gap is tracked whatever
    cfg.track_surrogate_gap says: the full-set records of a convergence run
    (harness.fullset_step_diagnostics) always carry it."""
    return _descent(_DIRECTIONS["gac_fas"], model, params.theta, batch, cfg, t, True, True)[2]
