"""Small feed-forward classifier with hand-written exact gradients.

The network is a plain MLP: affine layers with relu or tanh on the hidden
layers and raw logits at the output, trained with mean softmax cross-entropy.
Reverse accumulation is written out by hand for this fixed architecture; the
finite-difference oracle below is the independent check on it.

Parameters live in a single flat Vec64 with a block layout (one weight matrix
and one bias vector per layer) so the optimizers can treat theta as opaque
storage while landscape tooling can still address individual blocks.

Stacked kernel contract: mean_loss_and_grad (and mean_loss, forward) take
theta of shape (..., P), inputs of shape (..., n, d) and labels of shape
(..., n), whose leading dimensions broadcast against each other. The result
holds one mean loss per broadcast (theta, sub-batch) pair, shape (...), and
the matching gradients, shape (..., P). The plain 2-D call is the case with
no leading dimensions and returns a float loss. Every pair goes through the
same per-slice arithmetic (one BLAS product per slice, reductions along the
row axis in row order), so a stacked result equals the per-pair 2-D calls
bit for bit; the optimizers rely on that for their exact reduction
identities.

Reduction rule: every reduction gives the bits of the plain numpy reduction
it stands for, without numpy's slow reduce over a narrow inner axis.
- The row max of the logits is np.maximum over the class columns, as exact
  as logits.max(axis=-1), with NaN propagated the same way.
- The row sum of the exps adds the class columns in class order, which is
  exps.sum(axis=-1)'s order for up to 7 classes. From 8 classes on numpy
  sums pairwise with unrolled partial sums, so the kernel keeps sum there.
- The mean loss is np.add.reduce over the rows divided by n, as np.mean.
- The bias gradient is np.einsum("...ij->...j", delta), which adds the rows
  in row order as delta.sum(axis=-2) does for a width of 2 or more. For a
  width-1 layer numpy sums the single column pairwise, so the kernel keeps
  sum there.

Scratch rule: each spec keeps one grow-only buffer (_Scratch) for a call's
per-layer temporaries: the hidden layers' outputs, the backward deltas at
them and the relu masks. A call writes these in place (np.matmul with out=,
in-place bias add, activation and derivative), so it allocates only what it
returns. Losses, gradients and forward's logits are always fresh arrays and
never alias the buffer. The buffer holds what the largest single call
needed, whatever the number of shapes seen. The next call on the same spec
overwrites it, so the kernel assumes single-threaded use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input dim, hidden dims..., class count) and hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output layers")
        if any(n < 1 for n in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] < 2:
            raise ValueError(f"output dim must be >= 2 classes, got {sizes[-1]}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


@dataclass(frozen=True)
class Block:
    """One contiguous slice of theta: a weight matrix or a bias vector."""

    name: str
    offset: int
    shape: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size", math.prod(self.shape))

    def view(self, theta: np.ndarray) -> np.ndarray:
        """This block of theta (..., P) as an array of shape (...) + shape."""
        return theta[..., self.offset : self.offset + self.size].reshape(theta.shape[:-1] + self.shape)


@functools.lru_cache(maxsize=64)
def layout_for(spec: MlpSpec) -> tuple[Block, ...]:
    """Weight and bias blocks per layer, in forward order, covering theta exactly.

    Built once per distinct spec; the result is an immutable tuple of frozen
    blocks, so every caller can share it."""
    blocks = []
    offset = 0
    sizes = spec.layer_sizes
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        blocks.append(Block(f"w{i}", offset, (fan_in, fan_out)))
        offset += fan_in * fan_out
        blocks.append(Block(f"b{i}", offset, (fan_out,)))
        offset += fan_out
    return tuple(blocks)


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector plus its block layout.

    Treated as immutable: optimizer steps return fresh vectors and never
    write through an existing theta.
    """

    theta: np.ndarray
    layout: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", numerics.as_vec64(self.theta))
        covered = 0
        for block in self.layout:
            if block.offset != covered:
                raise ValueError(f"layout block {block.name} starts at {block.offset}, expected {covered}")
            covered += block.size
        if covered != self.theta.shape[0]:
            raise ValueError(f"layout covers {covered} entries, theta has {self.theta.shape[0]}")

    def with_theta(self, theta: np.ndarray) -> "ParamVector":
        return replace(self, theta=theta)

    @staticmethod
    def from_flat(theta) -> "ParamVector":
        """Wrap a bare vector as a single unnamed block (scalar test models)."""
        vec = numerics.as_vec64(theta)
        return ParamVector(vec, (Block("theta", 0, (vec.shape[0],)),))


@dataclass(frozen=True)
class Batch:
    """Inputs, class labels, and domain ids of equal length n >= 1.

    per_domain > 0 records the balanced sampler's layout: the rows are
    consecutive blocks of per_domain rows, one block per domain, in strictly
    ascending domain-id order. The optimizers then take the domain parts as
    views instead of searching the ids."""

    inputs: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray
    per_domain: int = 0

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        domain_ids = np.ascontiguousarray(self.domain_ids, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be an n x d matrix, got shape {inputs.shape}")
        n = inputs.shape[0]
        if n < 1:
            raise ValueError("batch must contain at least one sample")
        if labels.shape != (n,) or domain_ids.shape != (n,):
            raise ValueError(
                f"labels/domain_ids must have length {n}, got {labels.shape} and {domain_ids.shape}"
            )
        if labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        if domain_ids.min() < 0:
            raise ValueError("domain_ids must be non-negative")
        if self.per_domain < 0:
            raise ValueError(f"per_domain must be >= 0, got {self.per_domain}")
        if self.per_domain and not _ascending_blocks(domain_ids, self.per_domain):
            raise ValueError(
                f"per_domain={self.per_domain} but the rows are not ascending blocks of that size per domain"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domain_ids", domain_ids)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx], self.domain_ids[idx])


def _ascending_blocks(domain_ids: np.ndarray, size: int) -> bool:
    """Whether the ids form consecutive blocks of `size` equal ids, with
    strictly ascending ids from block to block."""
    if domain_ids.shape[0] % size:
        return False
    blocks = domain_ids.reshape(-1, size)
    firsts = blocks[:, 0].tolist()
    return bool((blocks == blocks[:, :1]).all()) and all(a < b for a, b in zip(firsts, firsts[1:]))


def domain_slices(batch: Batch) -> list[tuple[int, np.ndarray]]:
    """(domain_id, row indices) pairs in ascending domain-id order."""
    out = []
    for dom in np.unique(batch.domain_ids):
        out.append((int(dom), np.flatnonzero(batch.domain_ids == dom)))
    return out


def init_params(spec: MlpSpec, prng: numerics.Prng) -> ParamVector:
    """He-scaled gaussian weights (std sqrt(2/fan_in)) and zero biases."""
    layout = layout_for(spec)
    theta = numerics.zeros(spec.param_count())
    sizes = spec.layer_sizes
    for i, block in enumerate(layout):
        if block.name.startswith("w"):
            fan_in = sizes[i // 2]
            draws = numerics.gaussian(prng, block.size)
            theta[block.offset : block.offset + block.size] = draws * math.sqrt(2.0 / fan_in)
    return ParamVector(theta, layout)


def _check_inputs(spec: MlpSpec, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 2 or inputs.shape[-1] != spec.input_dim:
        raise ValueError(f"inputs must be (..., n, {spec.input_dim}), got shape {inputs.shape}")
    return inputs


def _check_labeled(spec: MlpSpec, theta_shape, inputs, labels):
    """Validated float64 inputs (..., n, d) and int64 labels (..., n), and
    the leading shape of the (theta, sub-batch) pairs, which theta (..., P),
    inputs and labels broadcast to."""
    inputs = _check_inputs(spec, inputs)
    labels = np.asarray(labels, dtype=np.int64)
    n = inputs.shape[-2]
    if n == 0:
        raise ValueError("cannot evaluate loss on an empty batch")
    if labels.ndim < 1 or labels.shape[-1] != n:
        raise ValueError(f"labels must be (..., {n}) to match the inputs, got shape {labels.shape}")
    if labels.max() >= spec.n_classes:
        raise ValueError(f"label {labels.max()} out of range for {spec.n_classes} classes")
    lead = np.broadcast_shapes(theta_shape[:-1], inputs.shape[:-2], labels.shape[:-1])
    # Labels may carry leading axes the inputs lack; give the inputs every
    # pair's axes (a read-only view) so the logits cover every pair.
    if labels.shape[:-1] not in ((), inputs.shape[:-2]):
        inputs = np.broadcast_to(inputs, lead + inputs.shape[-2:])
    return inputs, labels, lead


class _Scratch:
    """Grow-only byte storage for one spec's per-call temporaries.

    A call takes all its arrays, C-contiguous and back to back, from the
    front of one buffer, so the buffer only ever grows to what the largest
    single call needed. The float arrays come first, read through a float64
    view of the buffer."""

    def __init__(self, spec: MlpSpec):
        self.widths = spec.layer_sizes[1:-1]
        self.relu = spec.activation == "relu"
        self.buffer = np.empty(0, dtype=np.uint8)
        self.floats = self.buffer.view(np.float64)

    def arrays(self, lead: tuple[int, ...], n: int, backward: bool):
        """(outs, deltas, masks) for n-row sub-batches of the pairs' leading
        shape: per hidden layer, float64 arrays of shape lead + (n, width)
        for its output and, with backward, for the delta at its output, plus
        bool masks for a relu spec. Their contents are left over from
        earlier calls."""
        shapes = [lead + (n, width) for width in self.widths]
        sizes = [math.prod(shape) for shape in shapes]
        total = sum(sizes)
        n_floats = 2 * total if backward else total
        n_masks = total if backward and self.relu else 0
        if 8 * n_floats + n_masks > self.buffer.size:
            self.buffer = np.empty(8 * n_floats + n_masks, dtype=np.uint8)
            self.floats = self.buffer[: self.buffer.size // 8 * 8].view(np.float64)
        outs = _cut(self.floats, 0, shapes, sizes)
        deltas = _cut(self.floats, total, shapes, sizes) if backward else []
        masks = _cut(self.buffer[8 * n_floats :].view(np.bool_), 0, shapes, sizes) if n_masks else []
        return outs, deltas, masks


def _cut(flat: np.ndarray, start: int, shapes, sizes) -> list[np.ndarray]:
    """Consecutive views of flat from start on, one per shape."""
    views = []
    for shape, size in zip(shapes, sizes):
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@functools.lru_cache(maxsize=64)
def _scratch_for(spec: MlpSpec) -> _Scratch:
    """The scratch store of a spec, shared by every call on that spec."""
    return _Scratch(spec)


def _forward_cached(spec: MlpSpec, theta: np.ndarray, inputs: np.ndarray, outs):
    """Logits (..., n, C) and the input of every layer, [inputs, *outs];
    theta (..., P) and inputs (..., n, d) broadcast.

    outs holds one array per hidden layer (see _Scratch.arrays); that
    layer's product, bias add and activation all run in it. The logits are a
    fresh array."""
    layout = layout_for(spec)
    h = inputs
    hiddens = [h]
    for i, z in enumerate(outs):
        np.matmul(h, layout[2 * i].view(theta), out=z)
        z += layout[2 * i + 1].view(theta)[..., None, :]
        if spec.activation == "relu":
            h = np.maximum(z, 0.0, out=z)
        else:
            h = np.tanh(z, out=z)
        hiddens.append(h)
    last = len(outs)
    logits = h @ layout[2 * last].view(theta)
    logits += layout[2 * last + 1].view(theta)[..., None, :]
    return logits, hiddens


def forward(spec: MlpSpec, params: ParamVector, inputs) -> np.ndarray:
    """Row i of the result holds the C logits for sample i."""
    inputs = _check_inputs(spec, inputs)
    lead = np.broadcast_shapes(params.theta.shape[:-1], inputs.shape[:-2])
    outs, _, _ = _scratch_for(spec).arrays(lead, inputs.shape[-2], False)
    logits, _ = _forward_cached(spec, params.theta, inputs, outs)
    return logits


# Up to this many classes numpy sums a row left to right; from 8 on it
# sums pairwise, so _shift_and_sum keeps numpy's sum there.
_MAX_CLASSES_IN_ORDER = 7


def _shift_and_sum(logits: np.ndarray):
    """Shift every row of logits (..., n, C) in place by its max, for
    stability; return the exps of the shifted rows (a fresh array) and their
    row sums (..., n). See the reduction rule at the top of the module."""
    n_classes = logits.shape[-1]
    top = np.maximum(logits[..., 0], logits[..., 1])
    for c in range(2, n_classes):
        np.maximum(top, logits[..., c], out=top)
    logits -= top[..., None]
    exps = np.exp(logits)
    if n_classes > _MAX_CLASSES_IN_ORDER:
        return exps, exps.sum(axis=-1)
    total = exps[..., 0] + exps[..., 1]
    for c in range(2, n_classes):
        total += exps[..., c]
    return exps, total


def _label_picks(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat indices into logits (..., n, C) of each row's label entry;
    labels (..., n) broadcast to the rows of logits."""
    row_starts = np.arange(0, logits.size, logits.shape[-1]).reshape(logits.shape[:-1])
    return (row_starts + labels).reshape(-1)


def _mean_cross_entropy(shifted, total, picks):
    """Minus the mean over the rows of each label's log-probability, the
    shifted label logit - log(total); one loss per pair (a numpy scalar for
    a single pair)."""
    rows = total.shape
    log_probs = shifted.reshape(-1)[picks].reshape(rows) - np.log(total)
    return -(np.add.reduce(log_probs, axis=-1) / rows[-1])


def _as_loss(loss):
    """A float for a single (theta, sub-batch) pair, else the loss array."""
    return float(loss) if np.ndim(loss) == 0 else loss


def mean_loss(spec: MlpSpec, theta: np.ndarray, inputs, labels):
    """Mean softmax cross-entropy over the given samples, per broadcast
    (theta, sub-batch) pair."""
    inputs, labels, lead = _check_labeled(spec, theta.shape, inputs, labels)
    outs, _, _ = _scratch_for(spec).arrays(lead, inputs.shape[-2], False)
    logits, _ = _forward_cached(spec, theta, inputs, outs)
    _, total = _shift_and_sum(logits)
    return _as_loss(_mean_cross_entropy(logits, total, _label_picks(logits, labels)))


def mean_loss_and_grad(spec: MlpSpec, theta: np.ndarray, inputs, labels):
    """Mean cross-entropy and its exact gradient w.r.t. every theta entry,
    per broadcast (theta, sub-batch) pair: losses of the leading shape and
    gradients of that shape + (P,)."""
    inputs, labels, lead = _check_labeled(spec, theta.shape, inputs, labels)
    layout = layout_for(spec)
    relu = spec.activation == "relu"
    n = inputs.shape[-2]
    outs, deltas, masks = _scratch_for(spec).arrays(lead, n, True)
    logits, hiddens = _forward_cached(spec, theta, inputs, outs)
    delta, total = _shift_and_sum(logits)
    picks = _label_picks(logits, labels)
    loss = _mean_cross_entropy(logits, total, picks)
    # d(loss)/d(logits) = (softmax - onehot(label)) / n, built in the exps.
    delta /= total[..., None]
    delta.reshape(-1)[picks] -= 1.0
    delta /= n

    grad = np.empty(lead + (theta.shape[-1],), dtype=np.float64)
    for i in range(len(outs), -1, -1):
        w_block, b_block = layout[2 * i], layout[2 * i + 1]
        np.matmul(hiddens[i].swapaxes(-1, -2), delta, out=w_block.view(grad))
        # Row sums with delta.sum(axis=-2)'s bits: einsum adds the rows in
        # the same order from width 2 on (see the reduction rule above).
        if delta.shape[-1] == 1:
            bias_grad = delta.sum(axis=-2)
        else:
            bias_grad = np.einsum("...ij->...j", delta)
        grad[..., b_block.offset : b_block.offset + b_block.size] = bias_grad
        if i > 0:
            out = deltas[i - 1]
            np.matmul(delta, w_block.view(theta).swapaxes(-1, -2), out=out)
            if relu:
                # hiddens[i] = max(z, 0) is > 0 exactly where z is (for NaN
                # neither is), so this zeroes the entries where z > 0 fails.
                dead = masks[i - 1]
                np.greater(hiddens[i], 0.0, out=dead)
                np.logical_not(dead, out=dead)
                np.copyto(out, 0.0, where=dead)
            else:
                # tanh' = 1 - tanh^2, built in place in the forward pass's
                # output for this layer, which no later step reads.
                d_act = hiddens[i]
                np.square(d_act, out=d_act)
                np.subtract(1.0, d_act, out=d_act)
                out *= d_act
            delta = out
    return _as_loss(loss), grad


def loss_and_grad(spec: MlpSpec, params: ParamVector, batch: Batch):
    """Mean batch loss and analytic gradient (reverse accumulation)."""
    return mean_loss_and_grad(spec, params.theta, batch.inputs, batch.labels)


def finite_diff_grad(spec: MlpSpec, params: ParamVector, batch: Batch, h: float) -> np.ndarray:
    """Central-difference gradient (loss(theta + h e_j) - loss(theta - h e_j)) / 2h."""
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    if batch.n < 1:
        raise ValueError("cannot difference an empty batch")
    theta = params.theta
    grad = numerics.zeros(theta.shape[0])
    for j in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[j] = theta[j] + h
        up = mean_loss(spec, bumped, batch.inputs, batch.labels)
        bumped[j] = theta[j] - h
        down = mean_loss(spec, bumped, batch.inputs, batch.labels)
        grad[j] = (up - down) / (2.0 * h)
    return grad
