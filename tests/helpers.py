"""Shared fixtures for the test suite: tiny duck-typed oracle models,
independent brute-force metric oracles, random-instance builders, and the
spies and snapshots with which the CLI tests check that nothing happened.

The duck-typed models exercise the optimizer contract that any object with
loss(theta, inputs, labels) and loss_and_grad(theta, inputs, labels) can be
stepped; they make hand-computable scalar oracles possible.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from gacfas.model import Batch, MlpSpec, ParamVector, _as_loss, init_params, layout_for
from gacfas.numerics import Prng


class ScalarQuadratic:
    """loss = theta[0]^2 / 2 regardless of the data; grad = theta.

    Every domain slice sees the same quadratic, so k identical domains sum
    to k * theta^2 / 2 under the sum-of-domain-means convention.
    """

    def loss(self, theta, inputs, labels):
        return 0.5 * float(theta[0]) ** 2

    def loss_and_grad(self, theta, inputs, labels):
        return self.loss(theta, inputs, labels), np.array([float(theta[0])])


class CountingQuadratic(ScalarQuadratic):
    """ScalarQuadratic that counts its loss_and_grad calls."""

    def __init__(self):
        self.calls = 0

    def loss_and_grad(self, theta, inputs, labels):
        self.calls += 1
        return super().loss_and_grad(theta, inputs, labels)


class MirrorLinear:
    """loss = mean(inputs[:, 0]) * theta[0]: the gradient is the mean first
    feature, so sub-batches with opposite features produce exactly opposing
    gradients (the domain-conflict construction)."""

    def loss(self, theta, inputs, labels):
        return float(np.mean(inputs[:, 0])) * float(theta[0])

    def loss_and_grad(self, theta, inputs, labels):
        g = float(np.mean(inputs[:, 0]))
        return g * float(theta[0]), np.array([g])


class VectorQuadratic:
    """loss = ||theta||^2 / 2 regardless of the data; grad = theta.
    A pure quadratic in theta, so any 1-D slice of it is an exact parabola."""

    def loss(self, theta, inputs, labels):
        return 0.5 * float(np.dot(theta, theta))

    def loss_and_grad(self, theta, inputs, labels):
        return self.loss(theta, inputs, labels), np.asarray(theta, dtype=np.float64).copy()


class DomainQuadratic:
    """loss = theta.H.theta / 2 + c.theta on a domain part, c being the mean
    of its input rows (which have len(theta) columns): every domain shares
    the Hessian H and has its own gradient offset c."""

    def __init__(self, hessian):
        self.hessian = np.asarray(hessian, dtype=np.float64)

    def loss(self, theta, inputs, labels):
        return 0.5 * float(theta @ self.hessian @ theta) + float(inputs.mean(axis=0) @ theta)

    def loss_and_grad(self, theta, inputs, labels):
        return self.loss(theta, inputs, labels), self.hessian @ theta + inputs.mean(axis=0)


def scalar_params(value: float) -> ParamVector:
    return ParamVector.from_flat(np.array([float(value)]))


def k_domain_batch(k: int, per_domain: int = 2) -> Batch:
    """Tiny placeholder batch with k domains for data-ignoring models."""
    n = k * per_domain
    inputs = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
    labels = np.zeros(n, dtype=np.int64)
    ids = np.repeat(np.arange(k, dtype=np.int64), per_domain)
    return Batch(inputs, labels, ids)


def mirror_batch() -> Batch:
    """Two domains whose first features are +1 and -1: MirrorLinear sees
    gradients +1 and -1 on them."""
    inputs = np.array([[1.0, 0.0], [1.0, 0.5], [-1.0, 0.0], [-1.0, 0.5]])
    labels = np.zeros(4, dtype=np.int64)
    ids = np.array([0, 0, 1, 1], dtype=np.int64)
    return Batch(inputs, labels, ids)


def random_instance(seed: int, sizes=(2, 6, 2), activation="tanh", k: int = 3, per_domain: int = 5):
    """Random (spec, params, batch) triple with k domains of gaussian inputs
    and uniform labels; fully determined by seed."""
    prng = Prng(seed, 0)
    spec = MlpSpec(sizes, activation)
    params = init_params(spec, prng)
    n = k * per_domain
    inputs = prng.generator.standard_normal((n, sizes[0]))
    labels = prng.generator.integers(0, sizes[-1], size=n).astype(np.int64)
    ids = np.repeat(np.arange(k, dtype=np.int64), per_domain)
    return spec, params, Batch(inputs, labels, ids)


def reference_forward_cached(spec: MlpSpec, theta: np.ndarray, inputs: np.ndarray):
    """The MLP forward pass with a fresh array per layer, as the kernel ran
    before it reused buffers: logits, the per-layer outputs, and the relu
    pre-activations. The kernel must match it bit for bit."""
    layout = layout_for(spec)
    n_layers = len(spec.layer_sizes) - 1
    h = inputs
    hiddens = [h]
    pre_acts = []
    for i in range(n_layers):
        z = h @ layout[2 * i].view(theta)
        z += layout[2 * i + 1].view(theta)[..., None, :]
        if i == n_layers - 1:
            return z, hiddens, pre_acts
        if spec.activation == "relu":
            pre_acts.append(z)
            h = np.maximum(z, 0.0)
        else:
            h = np.tanh(z, out=z)
        hiddens.append(h)


def reference_softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits), as reference_mean_loss_and_grad uses them."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(total)
    n_classes = logits.shape[-1]
    pair_rows = logits.shape[:-1]
    if labels.shape != pair_rows:
        labels = np.broadcast_to(labels, pair_rows)
    rows = np.arange(logits.size // n_classes)
    picks = labels.ravel()
    loss = -log_probs.reshape(-1, n_classes)[rows, picks].reshape(pair_rows).mean(axis=-1)
    dlogits = exps
    dlogits /= total
    dlogits.reshape(-1, n_classes)[rows, picks] -= 1.0
    dlogits /= logits.shape[-2]
    return loss, dlogits


def reference_mean_loss_and_grad(spec: MlpSpec, theta: np.ndarray, inputs, labels):
    """model.mean_loss_and_grad with a fresh array for every temporary, the
    exact reference for the buffer-reusing kernel."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    # Labels may carry leading axes the inputs lack; only those reach the inputs.
    lead = np.broadcast_shapes(inputs.shape[:-2], labels.shape[:-1])
    if lead != inputs.shape[:-2]:
        inputs = np.broadcast_to(inputs, lead + inputs.shape[-2:])
    layout = layout_for(spec)
    n_layers = len(spec.layer_sizes) - 1
    logits, hiddens, pre_acts = reference_forward_cached(spec, theta, inputs)
    loss, delta = reference_softmax_cross_entropy(logits, labels)
    lead = delta.shape[:-2]
    grad = np.empty(lead + (theta.shape[-1],), dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        w_block, b_block = layout[2 * i], layout[2 * i + 1]
        grad_w = np.swapaxes(hiddens[i], -1, -2) @ delta
        grad[..., w_block.offset : w_block.offset + w_block.size] = grad_w.reshape(lead + (w_block.size,))
        grad[..., b_block.offset : b_block.offset + b_block.size] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ np.swapaxes(w_block.view(theta), -1, -2)
            if spec.activation == "relu":
                delta = np.where(pre_acts[i - 1] > 0.0, delta, 0.0)
            else:
                d_act = hiddens[i]
                np.square(d_act, out=d_act)
                np.subtract(1.0, d_act, out=d_act)
                delta *= d_act
    return _as_loss(loss), grad


def kahan_dot(a, b) -> float:
    """Compensated left-to-right inner product (the summation oracle)."""
    total = 0.0
    comp = 0.0
    for x, y in zip(a, b):
        term = float(x) * float(y) - comp
        fresh = total + term
        comp = (fresh - total) - term
        total = fresh
    return total


def arc_distance(points: np.ndarray) -> np.ndarray:
    """Distance from each 2-D point to the unit upper half arc
    {(cos t, sin t) : t in [0, pi]} (the noiseless class-0 locus)."""
    out = np.empty(points.shape[0])
    for i, (x, y) in enumerate(points):
        angle = math.atan2(y, x)
        if 0.0 <= angle <= math.pi:
            out[i] = abs(math.hypot(x, y) - 1.0)
        else:
            out[i] = min(math.hypot(x - 1.0, y), math.hypot(x + 1.0, y))
    return out


def oracle_candidate_thresholds(scores) -> list:
    uniq = sorted(set(float(s) for s in scores))
    mids = [0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])]
    return [-math.inf] + mids + [math.inf]


def oracle_far_frr(pos, neg, tau) -> tuple:
    far = sum(1 for s in neg if s >= tau) / len(neg)
    frr = sum(1 for s in pos if s < tau) / len(pos)
    return far, frr


def oracle_hter_at_eer(pos, neg) -> tuple:
    """Exhaustive sweep: minimize |FAR - FRR|, ties to the lower threshold."""
    best = None
    for tau in oracle_candidate_thresholds(list(pos) + list(neg)):
        far, frr = oracle_far_frr(pos, neg, tau)
        diff = abs(far - frr)
        if best is None or diff < best[0]:
            best = (diff, (far + frr) / 2.0, tau)
    return best[1], best[2]


def oracle_tpr_at_fpr(pos, neg, cap) -> float:
    """Exhaustive sweep: max TPR among thresholds with FPR <= cap."""
    best = 0.0
    for tau in oracle_candidate_thresholds(list(pos) + list(neg)):
        fpr = sum(1 for s in neg if s >= tau) / len(neg)
        if fpr <= cap:
            best = max(best, sum(1 for s in pos if s >= tau) / len(pos))
    return best


def oracle_auc_pairs(pos, neg) -> float:
    """All-pairs Mann-Whitney statistic with half credit for ties."""
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_auc_rank_loop(scores, labels) -> float:
    """Average-rank AUC with ties walked one element at a time: every run
    of equal sorted scores at positions i..j gets rank 0.5 * (i + j) + 1.
    Every rank sum and the library's pair counts are exact, so results must
    be equal, not just close."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.shape[0] - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _reference_classes(scores, labels):
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("threshold metrics need at least one positive and one negative")
    return scores, labels, pos, neg


def reference_roc_auc(scores, labels) -> float:
    """roc_auc as it was before ScoredSet sorted once: a stable argsort per
    call and the vectorised average-rank formula, frozen as the reference
    for the library's pair counts."""
    scores, labels, pos, neg = _reference_classes(scores, labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    n = sorted_scores.shape[0]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:] - 1, n - 1)
    run_of = np.cumsum(new_run) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = 0.5 * (starts + ends)[run_of] + 1.0
    rank_sum = float(ranks[labels == 1].sum())
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_sweep(scores, labels):
    """evalmetrics._sweep as it was before ScoredSet sorted once: thresholds
    from np.unique and one sort per class on every call. Returns (taus,
    positives >= tau, negatives >= tau, n_pos, n_neg)."""
    scores, labels, pos, neg = _reference_classes(scores, labels)
    uniq = np.unique(scores)
    taus = np.concatenate(([-math.inf], 0.5 * (uniq[:-1] + uniq[1:]), [math.inf]))
    pos_at_or_above = pos.shape[0] - np.searchsorted(np.sort(pos), taus, side="left")
    neg_at_or_above = neg.shape[0] - np.searchsorted(np.sort(neg), taus, side="left")
    return taus, pos_at_or_above, neg_at_or_above, pos.shape[0], neg.shape[0]


def reference_hter_tpr(scores, labels, fpr_cap: float = 0.05):
    """(hter, tau, tpr) read off reference_sweep as hter_at_eer and
    tpr_at_fpr read their sweep."""
    taus, pos_hits, neg_hits, n_pos, n_neg = reference_sweep(scores, labels)
    far = neg_hits / n_neg
    frr = (n_pos - pos_hits) / n_pos
    best = int(np.argmin(np.abs(far - frr)))
    tpr = float(np.max(pos_hits[neg_hits / n_neg <= fpr_cap] / n_pos))
    return float((far[best] + frr[best]) / 2.0), taus[best], tpr


def reference_sample_minibatch(source, per_domain: int, prng: Prng) -> Batch:
    """The balanced sampler as it was before it gathered from the source
    set's stacked rows: one Generator.choice per domain in domain order, a
    fancy-index copy per domain and array, then concatenation. The sampler
    must match it bit for bit, and leave the stream at the same draw."""
    picks = [
        (batch, prng.generator.choice(batch.n, size=per_domain, replace=False))
        for batch in source.domains
    ]
    return Batch(
        np.concatenate([batch.inputs[idx] for batch, idx in picks]),
        np.concatenate([batch.labels[idx] for batch, idx in picks]),
        np.concatenate([batch.domain_ids[idx] for batch, idx in picks]),
    )


def reference_sum_terms(losses, grads):
    """The per-domain sums as the steps looped them before the single-call
    reductions: the loss from 0.0, the gradient from a copy of the first."""
    total_loss = 0.0
    total_grad = grads[0].copy()
    total_loss += losses[0]
    for loss, grad in zip(losses[1:], grads[1:]):
        total_loss += loss
        total_grad += grad
    return total_loss, total_grad


def reference_deviation_sum(adv_grads, g):
    """sum_i (adv_grads[i] - g) from zeros, one domain at a time."""
    deviations = np.zeros(g.shape[0], dtype=np.float64)
    for gp in adv_grads:
        deviations += gp - g
    return deviations


# The small config most harness and CLI tests run: three 24-sample domains, ten steps.
TINY_CONFIG = {
    "model": {"layer_sizes": [2, 4, 2], "activation": "tanh"},
    "domains": [{"rotation": 0.3 * i, "noise_sigma": 0.1, "n_samples": 24, "seed": i} for i in range(3)],
    "held_out": 2,
    "optimizer": {"mode": "gac_fas", "eta0": 0.1},
    "steps": 10,
    "per_domain_batch": 8,
    "eval_every": 5,
    "eval_window": 2,
    "diagnostics_every": 2,
    "seeds": [0],
    "output_dir": "out",
}


def spy(mp, owner, name) -> list:
    """A list that gets the positional arguments of each call of owner.name,
    which still runs."""
    calls = []
    real = getattr(owner, name)
    mp.setattr(owner, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def refuse_forks(mp) -> None:
    def no_fork():
        raise AssertionError("os.fork was called")

    mp.setattr(os, "fork", no_fork)


def bytes_and_listings(root) -> dict:
    """Every file's bytes and every directory's listing under root."""
    return {
        path: path.read_bytes() if path.is_file() else sorted(p.name for p in path.iterdir())
        for path in [Path(root), *Path(root).rglob("*")]
    }
