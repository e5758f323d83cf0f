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

Scratch rule: each spec keeps one grow-only float64 array (_scratch_for)
for a call's per-layer temporaries: the hidden layers' outputs and, for a
tanh backward, one spare the size of the widest hidden layer. A call writes
these in place (np.matmul with out=, in-place bias add, activation and
derivative). The backward reads a layer's output for its weight gradient
and then writes the delta at that output over it; a tanh layer's product
goes to the spare while 1 - h^2 is built in the output. So a call allocates
only what it returns and, for relu, the dead-unit mask of each backward
layer. Losses, gradients and forward's logits are always fresh arrays and
never alias the scratch. The array holds what the largest single call
needed, whatever the number of shapes seen. The next call on the same spec
overwrites it, so the kernel assumes single-threaded use. What a call needs
that depends only on the spec and the operands' shapes (the broadcast
leading shape, the scratch shapes, the label rows' flat starts, the layer
table) is built once per call shape and kept in a bounded cache
(_plan_for); it holds no view of the scratch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input dim, hidden dims..., class count) and hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        sizes = numerics._as_tuple(self.layer_sizes, "layer_sizes")
        for n in sizes:
            numerics._expect(numerics._is_int(n) and n >= 1, "layer_sizes", "a positive integer", n)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output layers")
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
        return ParamVector(theta, self.layout)

    @staticmethod
    def from_flat(theta) -> "ParamVector":
        """Wrap a bare vector as a single unnamed block (scalar test models)."""
        vec = numerics.as_vec64(theta)
        return ParamVector(vec, (Block("theta", 0, (vec.shape[0],)),))


@dataclass(frozen=True)
class Batch:
    """Inputs, class labels, and domain ids of equal length n >= 1."""

    inputs: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be an n x d matrix, got shape {inputs.shape}")
        n = inputs.shape[0]
        if n < 1:
            raise ValueError("batch must contain at least one sample")
        object.__setattr__(self, "inputs", inputs)
        for name in ("labels", "domain_ids"):
            values = np.ascontiguousarray(numerics._as_ints(getattr(self, name), name))
            if values.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got shape {values.shape}")
            if values.min() < 0:
                raise ValueError(f"{name} must be non-negative, got {values.min()}")
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


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
    the call's _Plan, whose lead is the shape of the (theta, sub-batch)
    pairs, which theta (..., P), inputs and labels broadcast to."""
    inputs = _check_inputs(spec, inputs)
    labels = numerics._as_ints(labels, "labels")
    n = inputs.shape[-2]
    if n == 0:
        raise ValueError("cannot evaluate loss on an empty batch")
    if labels.ndim < 1 or labels.shape[-1] != n:
        raise ValueError(f"labels must be (..., {n}) to match the inputs, got shape {labels.shape}")
    # One reduction: a negative label, viewed as unsigned, is above any class count.
    if labels.view(np.uint64).max() >= spec.n_classes:
        bad = labels[(labels < 0) | (labels >= spec.n_classes)].flat[0]
        raise ValueError(f"label {bad} out of range for {spec.n_classes} classes")
    plan = _plan_for(spec, theta_shape[:-1], inputs.shape[:-2], labels.shape[:-1], n)
    _check_theta(plan, theta_shape)
    # Labels may carry leading axes the inputs lack; give the inputs every
    # pair's axes (a read-only view) so the logits cover every pair.
    if labels.shape[:-1] not in ((), inputs.shape[:-2]):
        inputs = np.broadcast_to(inputs, plan.lead + inputs.shape[-2:])
    return inputs, labels, plan


class _Plan(NamedTuple):
    """What a call needs that depends only on the spec and the operands'
    shapes: the pairs' leading shape, each hidden layer's scratch shape and
    size, their total and largest size, the flat index of every logits
    row's first entry (read-only), the spec's layer table (per layer, the
    slice of theta its weights fill, their matrix shape and the slice its
    bias fills) and theta's length."""

    lead: tuple[int, ...]
    shapes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    total: int
    widest: int
    row_starts: np.ndarray
    layers: tuple[tuple[slice, tuple[int, int], slice], ...]
    relu: bool
    params: int


@functools.lru_cache(maxsize=128)
def _plan_for(spec: MlpSpec, theta_lead, inputs_lead, labels_lead, n: int) -> _Plan:
    """The _Plan of theta (*theta_lead, P) against inputs (*inputs_lead, n, d)
    and labels (*labels_lead, n), built once per call shape."""
    lead = np.broadcast_shapes(theta_lead, inputs_lead, labels_lead)
    shapes = tuple(lead + (n, width) for width in spec.layer_sizes[1:-1])
    sizes = tuple(math.prod(shape) for shape in shapes)
    row_starts = np.arange(0, math.prod(lead) * n * spec.n_classes, spec.n_classes).reshape(lead + (n,))
    row_starts.flags.writeable = False
    layout = layout_for(spec)
    layers = tuple(
        (slice(w.offset, w.offset + w.size), w.shape, slice(b.offset, b.offset + b.size))
        for w, b in zip(layout[::2], layout[1::2])
    )
    return _Plan(
        lead, shapes, sizes, sum(sizes), max(sizes, default=0), row_starts, layers,
        spec.activation == "relu", layers[-1][2].stop,
    )


def _check_theta(plan: _Plan, theta_shape) -> None:
    """Refuse theta unless its last axis holds exactly the spec's parameters."""
    if theta_shape[-1:] != (plan.params,):
        raise ValueError(f"theta must have {plan.params} parameters on its last axis, got shape {theta_shape}")


@functools.lru_cache(maxsize=64)
def _scratch_for(spec: MlpSpec) -> list[np.ndarray]:
    """A one-item list holding the spec's grow-only float64 scratch, shared
    by every call on that spec."""
    return [np.empty(0)]


def _arrays(spec: MlpSpec, plan: _Plan, backward: bool):
    """(outs, spares) for the call of plan: per hidden layer, a float64 array
    of its scratch shape for its output and, for a tanh backward, one for
    the product at its output. The outputs are cut back to back from the
    front of the spec's scratch and the spares all from the one region after
    them. The scratch grows only when this call needs more than any before
    it; the arrays' contents are left over from earlier calls."""
    spare = backward and not plan.relu
    need = plan.total + plan.widest if spare else plan.total
    held = _scratch_for(spec)
    if held[0].size < need:
        held[0] = np.empty(need)
    spares = _cut(held[0], plan.total, plan, False) if spare else []
    return _cut(held[0], 0, plan, True), spares


def _cut(flat: np.ndarray, start: int, plan: _Plan, back_to_back: bool) -> list[np.ndarray]:
    """Views of flat, one per scratch shape: back to back from start on, or
    all from start."""
    views = []
    for shape, size in zip(plan.shapes, plan.sizes):
        views.append(flat[start : start + size].reshape(shape))
        if back_to_back:
            start += size
    return views


def _weights(theta: np.ndarray, layer) -> np.ndarray:
    """The layer's weight matrices in theta (..., P), shape (...) + its shape."""
    span, shape, _ = layer
    return theta[..., span].reshape(theta.shape[:-1] + shape)


def _forward_cached(plan: _Plan, theta: np.ndarray, inputs: np.ndarray, outs):
    """Logits (..., n, C), the input of every layer, [inputs, *outs], and
    every layer's weight matrix; theta (..., P) and inputs (..., n, d)
    broadcast.

    outs holds one array per hidden layer (see _arrays); that layer's
    product, bias add and activation all run in it. The logits are a fresh
    array."""
    layers = plan.layers
    weights = [_weights(theta, layer) for layer in layers]
    h = inputs
    hiddens = [h]
    for (_, _, bias), w, z in zip(layers, weights, outs):
        np.matmul(h, w, out=z)
        z += theta[..., None, bias]
        if plan.relu:
            h = np.maximum(z, 0.0, out=z)
        else:
            h = np.tanh(z, out=z)
        hiddens.append(h)
    logits = h @ weights[-1]
    logits += theta[..., None, layers[-1][2]]
    return logits, hiddens, weights


def forward(spec: MlpSpec, params: ParamVector, inputs) -> np.ndarray:
    """Row i of the result holds the C logits for sample i."""
    inputs = _check_inputs(spec, inputs)
    plan = _plan_for(spec, params.theta.shape[:-1], inputs.shape[:-2], (), inputs.shape[-2])
    _check_theta(plan, params.theta.shape)
    outs, _ = _arrays(spec, plan, False)
    logits, _, _ = _forward_cached(plan, params.theta, inputs, outs)
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
    inputs, labels, plan = _check_labeled(spec, theta.shape, inputs, labels)
    outs, _ = _arrays(spec, plan, False)
    logits, _, _ = _forward_cached(plan, theta, inputs, outs)
    _, total = _shift_and_sum(logits)
    return _as_loss(_mean_cross_entropy(logits, total, (plan.row_starts + labels).reshape(-1)))


def mean_loss_and_grad(spec: MlpSpec, theta: np.ndarray, inputs, labels):
    """Mean cross-entropy and its exact gradient w.r.t. every theta entry,
    per broadcast (theta, sub-batch) pair: losses of the leading shape and
    gradients of that shape + (P,)."""
    inputs, labels, plan = _check_labeled(spec, theta.shape, inputs, labels)
    n = inputs.shape[-2]
    outs, spares = _arrays(spec, plan, True)
    logits, hiddens, weights = _forward_cached(plan, theta, inputs, outs)
    delta, total = _shift_and_sum(logits)
    # Flat index of each row's label entry in logits (and in delta).
    picks = (plan.row_starts + labels).reshape(-1)
    loss = _mean_cross_entropy(logits, total, picks)
    # d(loss)/d(logits) = (softmax - onehot(label)) / n, built in the exps.
    delta /= total[..., None]
    delta.reshape(-1)[picks] -= 1.0
    delta /= n

    grad = np.empty(plan.lead + (theta.shape[-1],), dtype=np.float64)
    for i in range(len(outs), -1, -1):
        layer = plan.layers[i]
        np.matmul(hiddens[i].swapaxes(-1, -2), delta, out=_weights(grad, layer))
        # Row sums with delta.sum(axis=-2)'s bits: einsum adds the rows in
        # the same order from width 2 on (see the reduction rule above).
        bias_grad = grad[..., layer[2]]
        if delta.shape[-1] == 1:
            bias_grad[...] = delta.sum(axis=-2)
        else:
            np.einsum("...ij->...j", delta, out=bias_grad)
        if i > 0:
            # The delta at this layer's input, written over the forward
            # pass's output there, which only the derivative still reads.
            out = hiddens[i]
            if plan.relu:
                # out = max(z, 0) is > 0 exactly where z is (for NaN neither
                # is), so this zeroes the entries where z > 0 fails.
                dead = ~(out > 0.0)
                np.matmul(delta, weights[i].swapaxes(-1, -2), out=out)
                np.copyto(out, 0.0, where=dead)
            else:
                # tanh' = 1 - tanh^2, built in place in out.
                prod = spares[i - 1]
                np.matmul(delta, weights[i].swapaxes(-1, -2), out=prod)
                np.square(out, out=out)
                np.subtract(1.0, out, out=out)
                np.multiply(prod, out, out=out)
            delta = out
    return _as_loss(loss), grad


def loss_and_grad(spec: MlpSpec, params: ParamVector, batch: Batch):
    """Mean batch loss and analytic gradient (reverse accumulation)."""
    return mean_loss_and_grad(spec, params.theta, batch.inputs, batch.labels)


def finite_diff_grad(spec: MlpSpec, params: ParamVector, batch: Batch, h: float) -> np.ndarray:
    """Central-difference gradient (loss(theta + h e_j) - loss(theta - h e_j)) / 2h."""
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
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
