"""Post-hoc and in-training analysis: surrogate gap, the k x k alignment
inner-product tensor, loss-landscape slices along normalized random
directions, and convergence traces checked against a C log(T)/sqrt(T) curve.

All loss values follow the optimizer convention: the loss of a multi-domain
batch is the sum of per-domain batch means (negative log-likelihood for the
MLP model).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import Batch, ParamVector
from .numerics import Prng, _is_int, axpy, dot, l2_norm
from .optim import (
    OptimizerConfig,
    _domain_parts,
    _grad_sum,
    _pair_losses_grads,
    ascending_vector,
    batch_loss,
    batch_loss_and_grad,
)


@dataclass(frozen=True)
class LandscapeGrid:
    """Loss values on a line (dims=1) or plane (dims=2) through theta.

    offsets is a (steps,) array of s values for dims=1, or an (n_points, 2)
    array of (s, u) pairs in row-major order (s outer, u inner) for dims=2.
    losses[i] is the loss at theta + s*d1 (+ u*d2) for offsets[i].
    """

    offsets: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        n = self.offsets.shape[0]
        if self.losses.shape != (n,):
            raise ValueError(f"losses shape {self.losses.shape} does not match {n} offsets")

    @property
    def center_loss(self) -> float:
        """The loss at the zero offset, the grid's center index."""
        return float(self.losses[len(self.losses) // 2])


@dataclass(frozen=True)
class ConvergenceTrace:
    """Windowed means of squared gradient norms along a run, plus the
    constant C fitted so that C log(t+1)/sqrt(t) matches the first-quartile
    windows (the larger of the two per-series fits; one curve covers both).

    t[i] is the last step index of window i. C is fitted on the first
    ceil(len(t)/4) windows; exceed_frac_* is the fraction of the others whose
    mean lies above the fitted curve.
    """

    t: tuple[int, ...]
    grad_sq: tuple[float, ...]
    adv_grad_sq: tuple[float, ...]
    fitted_C: float
    exceed_frac_grad: float
    exceed_frac_adv: float

    def __post_init__(self):
        if not (len(self.t) == len(self.grad_sq) == len(self.adv_grad_sq)):
            raise ValueError("t, grad_sq and adv_grad_sq must have equal length")
        if any(v < 0 for v in self.grad_sq) or any(v < 0 for v in self.adv_grad_sq):
            raise ValueError("squared gradient norms must be >= 0")

    def bound(self, t: int) -> float:
        return _bound(self.fitted_C, t)


def _bound(c: float, t: int) -> float:
    """The curve c log(t+1)/sqrt(t) at step t."""
    return c * math.log(t + 1.0) / math.sqrt(t)


def surrogate_gap(model, params: ParamVector, batch, opt: OptimizerConfig):
    """(h(theta), L(theta)): the whole-batch sharpness gap h(theta) =
    L(theta + eps) - L(theta), eps the ascent of grad L(theta; B) at opt's rho
    and dead zone, on a Batch or on the whole of a SourceSet, and the loss it
    is measured from, the same value batch_loss gives: bit for bit the
    (surrogate_gap, loss_erm) of a sam_whole step's record with rho_t = opt.rho."""
    loss, g = batch_loss_and_grad(model, params.theta, batch)
    loss_p = batch_loss(model, ascending_vector(g, opt.rho, opt.zero_grad_eps) + params.theta, batch)
    return loss_p - loss, loss


def alignment_inner_products(model, params: ParamVector, source, i: int, opt: OptimizerConfig) -> np.ndarray:
    """M[m][n] = <grad L(theta_adv_i; S_m), grad L(theta; S_n)> over full
    domain batches in ascending id order, with theta_adv_i = theta + eps_i -
    gamma * g, g = sum_m grad L(theta; S_m), at opt's rho, gamma and dead zone.

    Summing M over both indices gives the inner product of the whole-set
    perturbed gradient with the whole-set plain gradient (the decomposition
    the alignment reward maximizes domain-by-domain)."""
    parts = _domain_parts(model, source)
    k = len(parts.ids)
    if not _is_int(i):
        raise ValueError(f"domain index must be an int, got {i!r}")
    if not 0 <= i < k:
        raise ValueError(f"domain index {i} out of range for k={k}")
    _, grads = _pair_losses_grads(model, params.theta, parts)
    eps = ascending_vector(grads[i], opt.rho, opt.zero_grad_eps)
    _, perturbed = _pair_losses_grads(model, eps + axpy(-opt.gamma, _grad_sum(grads), params.theta), parts)
    out = np.empty((k, k), dtype=np.float64)
    for m in range(k):
        for n in range(k):
            out[m, n] = dot(perturbed[m], grads[n])
    return out


def _block_normalized_direction(params: ParamVector, prng: Prng) -> np.ndarray:
    """Gaussian direction rescaled so each parameter block has the same norm
    as the matching block of theta (zero-norm blocks get a zero direction)."""
    d = numerics.gaussian(prng, params.theta.shape[0])
    for block in params.layout:
        theta_norm = l2_norm(block.view(params.theta).ravel())
        sl = d[block.offset : block.offset + block.size]
        d_norm = l2_norm(sl)
        if theta_norm == 0.0 or d_norm == 0.0:
            sl[:] = 0.0
        else:
            sl *= theta_norm / d_norm
    return d


def landscape_slice(model, params: ParamVector, batch: Batch, dims: int, radius: float, steps: int, prng: Prng) -> LandscapeGrid:
    """Loss on the grid theta + s*d1 (+ u*d2) with block-normalized gaussian
    directions. steps must be odd so 0 is a grid point; spacing puts the
    offsets at exact multiples of radius/((steps-1)/2)."""
    if not (_is_int(dims) and dims in (1, 2)):
        raise ValueError(f"dims must be 1 or 2, got {dims!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if not _is_int(steps) or steps < 3 or steps % 2 == 0:
        raise ValueError(f"steps must be an odd int >= 3 so the center is a grid point, got {steps!r}")
    directions = tuple(_block_normalized_direction(params, prng) for _ in range(dims))
    c = steps // 2
    h = radius / c
    coords = np.array([(j - c) * h for j in range(steps)], dtype=np.float64)
    grid = list(itertools.product(coords.tolist(), repeat=dims))
    losses = np.empty(len(grid), dtype=np.float64)
    for j, offset in enumerate(grid):
        point = params.theta
        for x, d in zip(offset, directions):
            point = axpy(x, d, point)
        losses[j] = batch_loss(model, point, batch)
    offsets = coords if dims == 1 else np.array(grid, dtype=np.float64)
    return LandscapeGrid(offsets, losses)


def convergence_trace(diag_stream, window: int) -> ConvergenceTrace:
    """Windowed means of grad_norm^2 and of adv_grad_sq_mean, with C
    fitted on the first quartile of windows and exceed fractions over the
    rest. Only full windows are used; the stream must cover at least one."""
    stream = list(diag_stream)
    if not stream:
        raise ValueError("diagnostics stream is empty")
    if not _is_int(window) or window < 1:
        raise ValueError(f"window must be an int >= 1, got {window!r}")
    n_windows = len(stream) // window
    if n_windows < 1:
        raise ValueError(f"stream of {len(stream)} records is shorter than one window of {window}")
    t_vals = []
    grad_means = []
    adv_means = []
    for w in range(n_windows):
        chunk = stream[w * window : (w + 1) * window]
        t_vals.append(int(chunk[-1].step_index))
        grad_means.append(sum(d.grad_norm**2 for d in chunk) / window)
        adv_means.append(sum(d.adv_grad_sq_mean for d in chunk) / window)
    n_fit = max(1, math.ceil(n_windows / 4))

    def _fit(means):
        return sum(means[w] * math.sqrt(t_vals[w]) / math.log(t_vals[w] + 1.0) for w in range(n_fit)) / n_fit

    fitted_c = max(_fit(grad_means), _fit(adv_means))

    def _exceed(means):
        later = range(n_fit, n_windows)
        if not len(later):
            return 0.0
        return sum(1 for w in later if means[w] > _bound(fitted_c, t_vals[w])) / len(later)

    return ConvergenceTrace(
        t=tuple(t_vals),
        grad_sq=tuple(grad_means),
        adv_grad_sq=tuple(adv_means),
        fitted_C=fitted_c,
        exceed_frac_grad=_exceed(grad_means),
        exceed_frac_adv=_exceed(adv_means),
    )

