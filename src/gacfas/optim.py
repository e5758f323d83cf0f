"""The optimizer family: ERM/SGD, whole-batch SAM, domain-wise SAM, the
gradient-aligned cross-domain variant (gac_fas), and its domain-scoped
perturbation ablation (reg_domain_perturb).

Loss convention: the whole-batch loss L(theta; B) is the SUM of per-domain
batch-mean losses, and its gradient is the matching sum of per-domain mean
gradients. All reductions over domains run in ascending domain-id order so
results are bit-identical regardless of how the per-domain evaluations are
scheduled.

The ascending vector eps_i = rho * g_i / ||g_i|| and the gamma * g offset are
held constant when the gradient at the perturbed point is taken (first-order
practice; nothing differentiates through eps).

Step functions are pure updates: they never modify the incoming ParamVector
and return a fresh one. The model argument may be an MlpSpec or any object
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
balanced layout, parts given as a list of single-domain batches (the
full-domain parts of the diagnostics), and the duck-typed models all take
one call per pair instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from . import numerics
from .model import Batch, ParamVector, domain_slices
from .numerics import axpy, dot, l2_norm

MODES = ("erm", "sam_whole", "sam_domain", "gac_fas", "reg_domain_perturb")
SCHEDULE_KINDS = ("constant", "step", "theorem1")


@dataclass(frozen=True)
class Schedule:
    """Decay rule applied to eta, rho and gamma alike.

    kind "constant" keeps the base value; "step" multiplies by factor every
    period; "theorem1" decays as base / sqrt(t). The step period is
    configured in epochs and resolved to steps by the harness before any
    step runs (period_steps = 0 means unresolved).
    """

    kind: str = "constant"
    period_epochs: int = 40
    factor: float = 0.1
    period_steps: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind == "step":
            if self.period_epochs < 1:
                raise ValueError(f"step period must be >= 1 epoch, got {self.period_epochs}")
            if not 0.0 < self.factor <= 1.0:
                raise ValueError(f"step factor must be in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class OptimizerConfig:
    mode: str = "gac_fas"
    eta0: float = 0.005
    rho: float = 0.1
    gamma: float = 0.0002
    weight_decay: float = 1e-4
    schedule: Schedule = field(default_factory=Schedule)
    zero_grad_eps: float = 1e-12
    track_surrogate_gap: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.eta0 < 0:
            raise ValueError(f"eta0 must be >= 0, got {self.eta0}")
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.zero_grad_eps < 0:
            raise ValueError(f"zero_grad_eps must be >= 0, got {self.zero_grad_eps}")


@dataclass(frozen=True)
class AscendingVector:
    """Radius-rho perturbation in the gradient direction (zero if the
    gradient is numerically zero)."""

    eps: np.ndarray


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record, populated from quantities the step already computed.

    Per-domain entries follow ascending domain-id order (see domain_ids).
    Modes without per-domain perturbed gradients fill the per-domain slots
    with their closest analog: erm records the plain per-domain gradients,
    sam_whole replicates its single perturbed gradient across domains.
    surrogate_gap is NaN when tracking is toggled off.
    """

    step_index: int
    domain_ids: tuple[int, ...]
    loss_erm: float
    per_domain_loss: tuple[float, ...]
    grad_norm: float
    alignment_cos: tuple[float, ...]
    adv_grad_norms: tuple[float, ...]
    surrogate_gap: float


def ascending_vector(grad: np.ndarray, rho: float, zero_grad_eps: float = 1e-12) -> AscendingVector:
    """eps = rho * grad / ||grad|| when ||grad|| > zero_grad_eps, else zero.

    The guard prevents division blow-up at exact minima."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    norm = l2_norm(grad)
    if norm > zero_grad_eps:
        eps = grad * (rho / norm)
    else:
        eps = numerics.zeros(grad.shape[0])
    return AscendingVector(eps)


def regularizer_grad(params: ParamVector, weight_decay: float) -> np.ndarray:
    """Gradient of (weight_decay/2)||theta||^2: weight_decay * theta, biases included."""
    return params.theta * float(weight_decay)


def schedule_value(schedule: Schedule, base: float, t: int) -> float:
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return base
    if schedule.kind == "theorem1":
        return base / math.sqrt(t)
    if schedule.period_steps < 1:
        raise ValueError("step schedule period not resolved to steps (see harness)")
    return base * schedule.factor ** ((t - 1) // schedule.period_steps)


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

    @property
    def stacked(self) -> bool:
        return isinstance(self.inputs, np.ndarray)


def _domain_parts(model, batch: Batch) -> _Parts:
    """Split a batch into its domain parts, once per step.

    A balanced-sampler batch (batch.per_domain set) of an MlpSpec model is
    reshaped into stacked views with no id search. Other batches and the
    duck-typed models take per-domain copies through domain_slices."""
    if batch.per_domain and isinstance(model, model_mod.MlpSpec):
        m = batch.per_domain
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


def _batch_parts(batches) -> _Parts:
    """Parts from single-domain batches, kept in the given order."""
    batches = list(batches)
    return _Parts(
        tuple(int(b.domain_ids[0]) for b in batches), [b.inputs for b in batches], [b.labels for b in batches]
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
    if parts.stacked:
        return model_mod.mean_loss_and_grad(model, points, parts.inputs, parts.labels)
    lead = np.broadcast_shapes(points.shape[:-1], (len(parts.ids),))
    points = np.broadcast_to(points, lead + points.shape[-1:])
    losses = np.empty(lead, dtype=np.float64)
    grads = np.empty(points.shape, dtype=np.float64)
    for idx in np.ndindex(*lead):
        j = idx[-1]
        losses[idx], grads[idx] = _loss_and_grad(model, points[idx], parts.inputs[j], parts.labels[j])
    return losses, grads


def _terms(parts: _Parts, losses: np.ndarray, grads: np.ndarray):
    """(domain_id, mean loss, mean gradient) per part, in part order."""
    return list(zip(parts.ids, losses.tolist(), grads))


def _part_terms(model, theta: np.ndarray, parts: _Parts):
    """Terms of one parameter vector against every domain part."""
    return _terms(parts, *_pair_losses_grads(model, theta, parts))


def _domain_terms(model, theta: np.ndarray, batch: Batch):
    """(domain_id, mean loss, mean gradient) per domain, ascending id order."""
    return _part_terms(model, theta, _domain_parts(model, batch))


def _sum_terms(terms):
    """Sum per-domain losses and gradients in ascending domain-id order."""
    total_loss = 0.0
    total_grad = terms[0][2].copy()
    total_loss += terms[0][1]
    for _, loss, grad in terms[1:]:
        total_loss += loss
        total_grad += grad
    return total_loss, total_grad


def batch_loss_and_grad(model, theta: np.ndarray, batch: Batch):
    """Whole-batch loss/gradient under the sum-of-domain-means convention."""
    return _sum_terms(_domain_terms(model, theta, batch))


def _parts_loss(model, theta: np.ndarray, parts: _Parts) -> float:
    """Sum of the per-part mean losses, in part order."""
    total = 0.0
    for inputs, labels in zip(parts.inputs, parts.labels):
        total += _mean_loss(model, theta, inputs, labels)
    return total


def batch_loss(model, theta: np.ndarray, batch: Batch) -> float:
    return _parts_loss(model, theta, _domain_parts(model, batch))


def _check_domains(terms, n_domains):
    if n_domains is not None and len(terms) != n_domains:
        present = [dom for dom, _, _ in terms]
        raise ValueError(f"batch covers domains {present}, expected {n_domains} domains")


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    denom = l2_norm(a) * l2_norm(b)
    if denom == 0.0:
        return 0.0
    cos = dot(a, b) / denom
    if math.isnan(cos):
        return math.nan
    return min(1.0, max(-1.0, cos))


def _plain_terms(model, theta: np.ndarray, batch: Batch, n_domains):
    """Parts, plain per-domain terms, and their sums (loss, g) at theta."""
    parts = _domain_parts(model, batch)
    terms = _part_terms(model, theta, parts)
    _check_domains(terms, n_domains)
    return (parts, terms, *_sum_terms(terms))


def _diagnostics(t: int, terms, loss: float, g: np.ndarray, adv_grads, gap: float) -> StepDiagnostics:
    """The step record: adv_grads[i] is domain i's perturbed (or, for erm,
    plain) gradient; gap is already NaN when tracking is off."""
    return StepDiagnostics(
        step_index=t,
        domain_ids=tuple(dom for dom, _, _ in terms),
        loss_erm=loss,
        per_domain_loss=tuple(l for _, l, _ in terms),
        grad_norm=l2_norm(g),
        alignment_cos=tuple(_cos(gp, g) for gp in adv_grads),
        adv_grad_norms=tuple(l2_norm(gp) for gp in adv_grads),
        surrogate_gap=gap,
    )


def _ascent_points(terms, base: np.ndarray, rho_t: float, zero_grad_eps: float) -> np.ndarray:
    """Row i: base + eps_i, with eps_i from domain i's plain gradient."""
    return np.stack(
        [axpy(1.0, ascending_vector(grad, rho_t, zero_grad_eps).eps, base) for _, _, grad in terms]
    )


def erm_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """theta <- theta - eta_t (grad L(theta;B) + grad R)."""
    eta_t = schedule_value(cfg.schedule, cfg.eta0, t)
    theta = params.theta
    _, terms, loss, g = _plain_terms(model, theta, batch, n_domains)
    r = regularizer_grad(params, cfg.weight_decay)
    new_theta = axpy(-eta_t, g + r, theta)
    gap = 0.0 if cfg.track_surrogate_gap else math.nan
    return params.with_theta(new_theta), _diagnostics(t, terms, loss, g, [grad for _, _, grad in terms], gap)


def sam_whole_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """Ascend along the whole-batch gradient, descend with the gradient taken
    at the ascended point."""
    eta_t = schedule_value(cfg.schedule, cfg.eta0, t)
    rho_t = schedule_value(cfg.schedule, cfg.rho, t)
    theta = params.theta
    parts, terms, loss, g = _plain_terms(model, theta, batch, n_domains)
    asc = ascending_vector(g, rho_t, cfg.zero_grad_eps)
    theta_p = axpy(1.0, asc.eps, theta)
    loss_p, g_p = _sum_terms(_part_terms(model, theta_p, parts))
    r = regularizer_grad(params, cfg.weight_decay)
    new_theta = axpy(-eta_t, g_p + r, theta)
    gap = (loss_p - loss) if cfg.track_surrogate_gap else math.nan
    return params.with_theta(new_theta), _diagnostics(t, terms, loss, g, [g_p] * len(terms), gap)


def sam_domain_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """Per-domain ascent, per-domain descent gradient on the domain's own
    sub-batch only, averaged over domains."""
    eta_t = schedule_value(cfg.schedule, cfg.eta0, t)
    rho_t = schedule_value(cfg.schedule, cfg.rho, t)
    theta = params.theta
    parts, terms, loss, g = _plain_terms(model, theta, batch, n_domains)
    k = len(terms)

    losses_p, gp_list = _pair_losses_grads(model, _ascent_points(terms, theta, rho_t, cfg.zero_grad_eps), parts)
    gap = 0.0
    for loss_p, (_, dom_loss, _) in zip(losses_p.tolist(), terms):
        gap += loss_p - dom_loss
    acc = gp_list[0].copy()
    for gp in gp_list[1:]:
        acc += gp
    mean_gp = acc * (1.0 / k)
    r = regularizer_grad(params, cfg.weight_decay)
    new_theta = axpy(-eta_t, mean_gp + r, theta)
    gap = (gap / k) if cfg.track_surrogate_gap else math.nan
    return params.with_theta(new_theta), _diagnostics(t, terms, loss, g, gp_list, gap)


def _aligned_perturbation(model, theta: np.ndarray, parts: _Parts, terms, g, rho_t, gamma_t, zero_grad_eps,
                         domain_scope: bool = False):
    """Per domain i, the loss and gradient at theta + eps_i - gamma_t * g,
    with eps_i from domain i's plain gradient in terms: over the whole batch
    (summed over parts in ascending id order), or with domain_scope over
    part i alone, rescaled by k. Returns the lists (losses, gradients)."""
    k = len(terms)
    points = _ascent_points(terms, axpy(-gamma_t, g, theta), rho_t, zero_grad_eps)
    losses, grads = _pair_losses_grads(model, points, parts, grid=not domain_scope)
    if domain_scope:
        # Rescale the single-domain estimate to whole-batch (sum) units so
        # k=1 and fully symmetric domains reproduce the unscoped step.
        return [loss * float(k) for loss in losses.tolist()], [gp * float(k) for gp in grads]
    sums = [_sum_terms(_terms(parts, losses[i], grads[i])) for i in range(k)]
    return [loss for loss, _ in sums], [gp for _, gp in sums]


def _aligned_perturb_step(model, params, batch, cfg, t, n_domains, domain_scope: bool):
    """Shared body of gac_fas_step and reg_domain_perturb_step.

    For each domain i: ascend by eps_i from that domain's gradient, offset by
    -gamma_t * g, and take the perturbed gradient over the whole batch
    (domain_scope=False) or over B_i rescaled by k (domain_scope=True).
    Update: theta - eta_t (g + mean_i perturbed_grad_i + r).
    """
    eta_t = schedule_value(cfg.schedule, cfg.eta0, t)
    rho_t = schedule_value(cfg.schedule, cfg.rho, t)
    gamma_t = schedule_value(cfg.schedule, cfg.gamma, t)
    theta = params.theta
    parts, terms, loss, g = _plain_terms(model, theta, batch, n_domains)
    k = len(terms)
    r = regularizer_grad(params, cfg.weight_decay)

    adv_losses, gp_list = _aligned_perturbation(
        model, theta, parts, terms, g, rho_t, gamma_t, cfg.zero_grad_eps, domain_scope
    )
    deviations = numerics.zeros(theta.shape[0])
    gap = 0.0
    for loss_adv, gp in zip(adv_losses, gp_list):
        # Accumulating deviations from g keeps the terms small (they cluster
        # around g for small rho/gamma) and makes the rho=0, gamma=0 collapse
        # back to the doubled ERM gradient exact in floating point.
        deviations += gp - g
        gap += loss_adv - loss
    mean_gp = axpy(1.0 / k, deviations, g)
    new_theta = axpy(-eta_t, (g + mean_gp) + r, theta)
    gap = (gap / k) if cfg.track_surrogate_gap else math.nan
    return params.with_theta(new_theta), _diagnostics(t, terms, loss, g, gp_list, gap)


def gac_fas_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """One aligned-perturbation step:

      g_i = grad L(theta; B_i); g = sum_i g_i; r = grad R(theta)
      eps_i = rho_t * g_i / ||g_i||
      gp_i = grad L(theta + eps_i - gamma_t * g; B)  (whole batch)
      theta <- theta - eta_t (g + (1/k) sum_i gp_i + r)
    """
    return _aligned_perturb_step(model, params, batch, cfg, t, n_domains, domain_scope=False)


def reg_domain_perturb_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """Ablation: the perturbed gradient for domain i is evaluated on B_i only
    (rescaled by k), not on the whole batch."""
    return _aligned_perturb_step(model, params, batch, cfg, t, n_domains, domain_scope=True)


_STEP_FNS = {
    "erm": erm_step,
    "sam_whole": sam_whole_step,
    "sam_domain": sam_domain_step,
    "gac_fas": gac_fas_step,
    "reg_domain_perturb": reg_domain_perturb_step,
}


def take_step(model, params: ParamVector, batch: Batch, cfg: OptimizerConfig, t: int, n_domains=None):
    """Dispatch one optimizer step on cfg.mode."""
    return _STEP_FNS[cfg.mode](model, params, batch, cfg, t, n_domains=n_domains)
