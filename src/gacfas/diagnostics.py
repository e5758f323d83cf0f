"""Post-hoc and in-training analysis: surrogate gap, the k x k alignment
inner-product tensor, loss-landscape slices along normalized random
directions, and convergence traces checked against a C log(T)/sqrt(T) curve.

All loss values follow the optimizer convention: the loss of a multi-domain
batch is the sum of per-domain batch means (negative log-likelihood for the
MLP model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import Batch, ParamVector
from .numerics import Prng, axpy, dot, l2_norm
from .optim import _batch_parts, _domain_parts, _part_terms, _parts_loss, _sum_terms, ascending_vector, batch_loss


@dataclass(frozen=True)
class LandscapeGrid:
    """Loss values on a line (dims=1) or plane (dims=2) through theta.

    offsets is a (steps,) array of s values for dims=1, or an (n_points, 2)
    array of (s, u) pairs in row-major order (s outer, u inner) for dims=2.
    losses[i] is the loss at theta + s*d1 (+ u*d2) for offsets[i].
    center_loss duplicates the loss at the zero offset.
    """

    offsets: np.ndarray
    losses: np.ndarray
    directions: tuple[np.ndarray, ...]
    center_loss: float

    def __post_init__(self):
        n = self.offsets.shape[0]
        if self.losses.shape != (n,):
            raise ValueError(f"losses shape {self.losses.shape} does not match {n} offsets")
        if len(self.directions) not in (1, 2):
            raise ValueError("directions must hold 1 or 2 vectors")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Windowed means of squared gradient norms along a run, plus the
    constant C fitted so that C log(t+1)/sqrt(t) matches the first-quartile
    windows (the larger of the two per-series fits; one curve covers both).

    t[i] is the last step index of window i. exceed_frac_* is the fraction of
    post-fit windows whose mean lies above the fitted curve.
    """

    t: tuple[int, ...]
    grad_sq: tuple[float, ...]
    adv_grad_sq: tuple[float, ...]
    fitted_C: float
    n_fit_windows: int
    exceed_frac_grad: float
    exceed_frac_adv: float

    def __post_init__(self):
        if not (len(self.t) == len(self.grad_sq) == len(self.adv_grad_sq)):
            raise ValueError("t, grad_sq and adv_grad_sq must have equal length")
        if any(v < 0 for v in self.grad_sq) or any(v < 0 for v in self.adv_grad_sq):
            raise ValueError("squared gradient norms must be >= 0")

    def bound(self, t: int) -> float:
        return self.fitted_C * math.log(t + 1.0) / math.sqrt(t)


def _loss_and_perturbed_loss(model, theta: np.ndarray, batch: Batch, rho: float):
    """L(theta) and L(theta + eps), eps = ascending_vector(grad L(theta; B), rho),
    with the batch split into its domain parts once for both."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    parts = _domain_parts(model, batch)
    loss, g = _sum_terms(_part_terms(model, theta, parts))
    asc = ascending_vector(g, rho)
    return loss, _parts_loss(model, axpy(1.0, asc.eps, theta), parts)


def perturbed_loss(model, params: ParamVector, batch: Batch, rho: float) -> float:
    """L evaluated at theta + ascending_vector(grad L(theta; B), rho)."""
    return _loss_and_perturbed_loss(model, params.theta, batch, rho)[1]


def surrogate_gap(model, params: ParamVector, batch: Batch, rho: float, return_loss: bool = False):
    """h(theta) = L(theta + eps) - L(theta), the whole-batch sharpness gap.

    With return_loss, returns (gap, L(theta)): the loss the gap is measured
    from, the same value batch_loss gives."""
    loss, loss_p = _loss_and_perturbed_loss(model, params.theta, batch, rho)
    gap = loss_p - loss
    return (gap, loss) if return_loss else gap


def alignment_inner_products(model, params: ParamVector, source, i: int, rho: float, gamma: float) -> np.ndarray:
    """M[m][n] = <grad L(theta_adv_i; S_m), grad L(theta; S_n)> over full
    domain batches, with theta_adv_i = theta + eps_i - gamma * g and
    g = sum_m grad L(theta; S_m).

    Summing M over both indices gives the inner product of the whole-set
    perturbed gradient with the whole-set plain gradient (the decomposition
    the alignment reward maximizes domain-by-domain)."""
    k = source.k
    if not 0 <= i < k:
        raise ValueError(f"domain index {i} out of range for k={k}")
    theta = params.theta
    parts = _batch_parts(batch for _, batch in source.domains)
    plain = _part_terms(model, theta, parts)
    _, g = _sum_terms(plain)
    asc = ascending_vector(plain[i][2], rho)
    theta_adv = axpy(1.0, asc.eps, axpy(-gamma, g, theta))
    perturbed = _part_terms(model, theta_adv, parts)
    out = np.empty((k, k), dtype=np.float64)
    for m in range(k):
        for n in range(k):
            out[m, n] = dot(perturbed[m][2], plain[n][2])
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
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if steps < 3 or steps % 2 == 0:
        raise ValueError(f"steps must be odd and >= 3 so the center is a grid point, got {steps}")
    directions = tuple(_block_normalized_direction(params, prng) for _ in range(dims))
    c = steps // 2
    h = radius / c
    coords = np.array([(j - c) * h for j in range(steps)], dtype=np.float64)
    theta = params.theta
    if dims == 1:
        offsets = coords
        losses = np.empty(steps, dtype=np.float64)
        for j, s in enumerate(coords):
            losses[j] = batch_loss(model, axpy(float(s), directions[0], theta), batch)
        center_index = c
    else:
        offsets = np.empty((steps * steps, 2), dtype=np.float64)
        losses = np.empty(steps * steps, dtype=np.float64)
        idx = 0
        for s in coords:
            base = axpy(float(s), directions[0], theta)
            for u in coords:
                offsets[idx] = (s, u)
                losses[idx] = batch_loss(model, axpy(float(u), directions[1], base), batch)
                idx += 1
        center_index = c * steps + c
    return LandscapeGrid(offsets, losses, directions, float(losses[center_index]))


def convergence_trace(diag_stream, window: int) -> ConvergenceTrace:
    """Windowed means of grad_norm^2 and of mean(adv_grad_norms^2), with C
    fitted on the first quartile of windows and exceed fractions over the
    rest. Only full windows are used; the stream must cover at least one."""
    stream = list(diag_stream)
    if not stream:
        raise ValueError("diagnostics stream is empty")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
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
        adv_means.append(
            sum(sum(v**2 for v in d.adv_grad_norms) / len(d.adv_grad_norms) for d in chunk) / window
        )
    n_fit = max(1, math.ceil(n_windows / 4))

    def _fit(means):
        return sum(means[w] * math.sqrt(t_vals[w]) / math.log(t_vals[w] + 1.0) for w in range(n_fit)) / n_fit

    fitted_c = max(_fit(grad_means), _fit(adv_means))

    def _exceed(means):
        later = range(n_fit, n_windows)
        if not len(later):
            return 0.0
        bound = [fitted_c * math.log(t_vals[w] + 1.0) / math.sqrt(t_vals[w]) for w in later]
        return sum(1 for w, b in zip(later, bound) if means[w] > b) / len(later)

    return ConvergenceTrace(
        t=tuple(t_vals),
        grad_sq=tuple(grad_means),
        adv_grad_sq=tuple(adv_means),
        fitted_C=fitted_c,
        n_fit_windows=n_fit,
        exceed_frac_grad=_exceed(grad_means),
        exceed_frac_adv=_exceed(adv_means),
    )


def landscape_csv(grid: LandscapeGrid) -> str:
    """CSV text with columns s[,u],loss; floats in shortest round-trip form."""
    lines = []
    if grid.offsets.ndim == 1:
        lines.append("s,loss")
        for s, loss in zip(grid.offsets, grid.losses):
            lines.append(f"{float(s)!r},{float(loss)!r}")
    else:
        lines.append("s,u,loss")
        for (s, u), loss in zip(grid.offsets, grid.losses):
            lines.append(f"{float(s)!r},{float(u)!r},{float(loss)!r}")
    return "\n".join(lines) + "\n"


def convergence_csv(trace: ConvergenceTrace) -> str:
    """CSV text with columns t,grad_sq_mean,adv_grad_sq_mean,bound."""
    lines = ["t,grad_sq_mean,adv_grad_sq_mean,bound"]
    for t, g, a in zip(trace.t, trace.grad_sq, trace.adv_grad_sq):
        lines.append(f"{t},{g!r},{a!r},{trace.bound(t)!r}")
    return "\n".join(lines) + "\n"
