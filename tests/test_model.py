"""MLP forward/backward contracts and the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacfas.model import (
    Batch,
    MlpSpec,
    ParamVector,
    domain_slices,
    finite_diff_grad,
    forward,
    init_params,
    layout_for,
    loss_and_grad,
    mean_loss,
    mean_loss_and_grad,
    _scratch_for,
)
from gacfas.numerics import Prng

from helpers import random_instance, reference_forward_cached, reference_mean_loss_and_grad


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((2,))
    with pytest.raises(ValueError):
        MlpSpec((2, 0, 2))
    with pytest.raises(ValueError):
        MlpSpec((2, 4, 1))  # output must be >= 2 classes
    with pytest.raises(ValueError):
        MlpSpec((2, 4, 2), "sigmoid")


def test_param_count_and_layout_cover_theta():
    spec = MlpSpec((2, 8, 8, 2), "tanh")
    assert spec.param_count() == 2 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2
    layout = layout_for(spec)
    assert [b.name for b in layout] == ["w0", "b0", "w1", "b1", "w2", "b2"]
    covered = sum(b.size for b in layout)
    assert covered == spec.param_count()
    # blocks are contiguous and disjoint
    offset = 0
    for b in layout:
        assert b.offset == offset
        offset += b.size


def test_layout_is_built_once_per_spec_with_int_sizes():
    layout = layout_for(MlpSpec((2, 8, 8, 2), "tanh"))
    assert layout_for(MlpSpec((2, 8, 8, 2), "tanh")) is layout
    assert all(type(b.size) is int and b.size == math.prod(b.shape) for b in layout)


def test_param_vector_rejects_bad_layout():
    spec = MlpSpec((2, 2), "tanh")
    with pytest.raises(ValueError):
        ParamVector(np.zeros(spec.param_count() + 1), layout_for(spec))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0, -1]), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), np.array([0, -1]))


def test_batch_per_domain_layout_is_checked():
    ids = np.array([0, 0, 2, 2, 5, 5])
    b = Batch(np.zeros((6, 2)), np.zeros(6, dtype=np.int64), ids, per_domain=2)
    assert b.per_domain == 2
    assert b.take(np.arange(3)).per_domain == 0
    for bad_ids, per_domain in (
        ([0, 0, 1, 1, 2, 2], 4),  # 6 rows are not blocks of 4
        ([0, 1, 0, 1, 2, 2], 2),  # a block mixes domains
        ([1, 1, 0, 0, 2, 2], 2),  # blocks out of order
        ([0, 0, 0, 0, 1, 1], 2),  # one domain in two blocks
    ):
        with pytest.raises(ValueError, match="per_domain"):
            Batch(np.zeros((6, 2)), np.zeros(6, dtype=np.int64), np.array(bad_ids), per_domain=per_domain)
    with pytest.raises(ValueError, match="per_domain"):
        Batch(np.zeros((6, 2)), np.zeros(6, dtype=np.int64), ids, per_domain=-2)


def test_domain_slices_ascending_order():
    b = Batch(np.zeros((5, 2)), np.zeros(5, dtype=np.int64), np.array([2, 0, 2, 1, 0]))
    slices = domain_slices(b)
    assert [dom for dom, _ in slices] == [0, 1, 2]
    assert [idx.tolist() for _, idx in slices] == [[1, 4], [3], [0, 2]]


def test_init_params_biases_zero_and_deterministic():
    spec = MlpSpec((2, 8, 8, 2), "tanh")
    p1 = init_params(spec, Prng(5, 0))
    p2 = init_params(spec, Prng(5, 0))
    assert np.array_equal(p1.theta, p2.theta)
    for block in p1.layout:
        if block.name.startswith("b"):
            assert np.all(block.view(p1.theta) == 0.0)


def test_init_params_weight_variance_matches_he_scaling():
    spec = MlpSpec((100, 100, 2), "tanh")
    params = init_params(spec, Prng(0, 0))
    w0 = params.layout[0].view(params.theta)
    target = 2.0 / 100
    assert abs(float(w0.var()) - target) <= 0.2 * target


def test_forward_linear_identity():
    spec = MlpSpec((2, 2), "tanh")  # no hidden layer: pure affine map
    theta = np.zeros(spec.param_count())
    theta[0], theta[3] = 1.0, 1.0  # W = I (row-major 2x2), b = 0
    params = ParamVector(theta, layout_for(spec))
    eye = np.eye(2)
    assert np.array_equal(forward(spec, params, eye), eye)


def test_forward_zero_theta_gives_zero_logits():
    spec = MlpSpec((2, 4, 2), "relu")
    params = ParamVector(np.zeros(spec.param_count()), layout_for(spec))
    out = forward(spec, params, np.array([[3.0, -7.0], [0.1, 0.2]]))
    assert np.all(out == 0.0)


def test_forward_relu_saturation_returns_output_bias():
    spec = MlpSpec((2, 4, 2), "relu")
    theta = np.zeros(spec.param_count())
    params = ParamVector(theta, layout_for(spec))
    layout = params.layout
    # zero weights, negative hidden biases: every hidden unit saturates at 0
    theta[layout[1].offset : layout[1].offset + layout[1].size] = -1.0
    out_bias = np.array([0.7, -0.3])
    theta[layout[3].offset : layout[3].offset + layout[3].size] = out_bias
    out = forward(spec, params, np.array([[5.0, -2.0]]))
    assert np.array_equal(out[0], out_bias)


def test_forward_rejects_wrong_width():
    spec = MlpSpec((2, 2), "tanh")
    params = ParamVector(np.zeros(spec.param_count()), layout_for(spec))
    with pytest.raises(ValueError):
        forward(spec, params, np.zeros((3, 5)))


def test_zero_theta_loss_is_ln2_for_two_classes():
    spec, _, batch = random_instance(0, sizes=(2, 6, 2))
    loss = mean_loss(spec, np.zeros(spec.param_count()), batch.inputs, batch.labels)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_positive_for_finite_theta():
    for seed in range(5):
        spec, params, batch = random_instance(seed)
        loss, _ = loss_and_grad(spec, params, batch)
        assert loss > 0.0


def test_duplicating_batch_preserves_loss_and_grad():
    spec, params, batch = random_instance(1)
    loss, grad = loss_and_grad(spec, params, batch)
    doubled = Batch(
        np.concatenate([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
        np.concatenate([batch.domain_ids, batch.domain_ids]),
    )
    loss2, grad2 = loss_and_grad(spec, params, doubled)
    assert loss2 == pytest.approx(loss, rel=1e-12)
    assert np.allclose(grad2, grad, rtol=1e-12, atol=1e-15)


def test_permuting_batch_rows_preserves_loss_and_grad():
    spec, params, batch = random_instance(2)
    perm = Prng(9, 0).generator.permutation(batch.n)
    loss, grad = loss_and_grad(spec, params, batch)
    loss_p, grad_p = loss_and_grad(spec, params, batch.take(perm))
    assert loss_p == pytest.approx(loss, rel=1e-12)
    assert np.allclose(grad_p, grad, rtol=1e-12, atol=1e-15)


def test_label_out_of_range_rejected():
    spec, params, batch = random_instance(3, sizes=(2, 4, 2))
    bad = Batch(batch.inputs, np.full(batch.n, 2, dtype=np.int64), batch.domain_ids)
    with pytest.raises(ValueError):
        loss_and_grad(spec, params, bad)


def test_labels_must_match_the_row_count():
    spec, params, batch = random_instance(3, sizes=(2, 4, 2))
    with pytest.raises(ValueError, match="labels"):
        mean_loss_and_grad(spec, params.theta, batch.inputs, batch.labels[:1])
    with pytest.raises(ValueError, match="inputs"):
        mean_loss_and_grad(spec, params.theta, batch.inputs[0], batch.labels)


@st.composite
def stacked_cases(draw):
    """A random MLP and broadcasting (theta, inputs, labels) stacks. Class
    counts reach past 7, where the kernel's class sums switch order."""
    hidden = draw(st.lists(st.integers(1, 24), min_size=0, max_size=3))
    sizes = (draw(st.integers(1, 4)), *hidden, draw(st.integers(2, 12)))
    spec = MlpSpec(sizes, draw(st.sampled_from(("tanh", "relu"))))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=3)))

    def operand_lead():
        # Drop some leading axes, and broadcast some of the rest from 1.
        kept = lead[draw(st.integers(0, len(lead))) :]
        return tuple(1 if draw(st.booleans()) else size for size in kept)

    n = draw(st.sampled_from((1, 2, 3, 8, 17, 32, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((0.1, 1.0, 4.0)))
    theta = scale * rng.standard_normal(operand_lead() + (spec.param_count(),))
    inputs = rng.standard_normal(operand_lead() + (n, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=operand_lead() + (n,))
    return spec, theta, inputs, labels


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
def test_stacked_kernel_equals_per_pair_calls_bitwise(case):
    spec, theta, inputs, labels = case
    losses, grads = mean_loss_and_grad(spec, theta, inputs, labels)
    only_losses = mean_loss(spec, theta, inputs, labels)
    lead = np.broadcast_shapes(theta.shape[:-1], inputs.shape[:-2], labels.shape[:-1])
    assert np.shape(losses) == lead and grads.shape == lead + theta.shape[-1:]
    thetas = np.broadcast_to(theta, lead + theta.shape[-1:])
    inputs = np.broadcast_to(inputs, lead + inputs.shape[-2:])
    labels = np.broadcast_to(labels, lead + labels.shape[-1:])
    for idx in np.ndindex(*lead):
        loss, grad = mean_loss_and_grad(spec, thetas[idx].copy(), inputs[idx].copy(), labels[idx].copy())
        assert type(loss) is float
        assert loss == np.asarray(losses)[idx] == np.asarray(only_losses)[idx]
        assert np.array_equal(grad, grads[idx])
    ref_losses, ref_grads = reference_mean_loss_and_grad(spec, theta, inputs, labels)
    assert np.array_equal(losses, ref_losses) and np.array_equal(grads, ref_grads)


def _kernel_case(rng, spec, n, layout, k=3):
    """theta, inputs, labels for one call: a plain 2-D call, (k,) pairs, or
    the (k, 1, P) x (k, n, d) grid; plain calls carry a NaN input row."""
    p, d, c = spec.param_count(), spec.input_dim, spec.n_classes
    theta_lead, data_lead = {"plain": ((), ()), "pairs": ((k,), (k,)), "grid": ((k, 1), (k,))}[layout]
    theta = 0.5 * rng.standard_normal(theta_lead + (p,))
    inputs = rng.standard_normal(data_lead + (n, d))
    labels = rng.integers(0, c, size=data_lead + (n,))
    if layout == "plain":
        inputs[n // 2, 0] = math.nan
    return theta, inputs, labels


def _same(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_kernel_equals_the_fresh_array_reference_bitwise(activation):
    """Buffer reuse and the kernel's own reductions change no bit: every
    call shape, in an order that grows the scratch and then shrinks back
    into it, matches the reference kernel that allocates every temporary
    afresh and reduces with numpy's max, sum and mean, NaN rows included.
    The odd widths put some scratch arrays on offsets that are not multiples
    of 16 bytes. Class counts 7, 8 and 12 straddle the switch of the class
    sums' order, a width-1 layer takes the bias gradient's other reduction,
    and 7 to 9 rows straddle numpy's switch to pairwise row sums."""
    rng = np.random.default_rng(17)
    for sizes in [(2, 16, 16, 2), (2, 7, 5, 3), (2, 16, 1, 7), (3, 1, 8), (2, 9, 12)]:
        spec = MlpSpec(sizes, activation)
        for n in (1, 7, 8, 9, 32, 2000, 3000, 32, 1):
            for layout in ("plain", "pairs", "grid"):
                theta, inputs, labels = _kernel_case(rng, spec, n, layout)
                with np.errstate(invalid="ignore"):
                    want_loss, want_grad = reference_mean_loss_and_grad(spec, theta, inputs, labels)
                    loss, grad = mean_loss_and_grad(spec, theta, inputs, labels)
                    only_loss = mean_loss(spec, theta, inputs, labels)
                    want_logits = reference_forward_cached(spec, theta, inputs)[0]
                    logits = forward(spec, ParamVector(theta, layout_for(spec)), inputs) if layout == "plain" else None
                assert type(loss) is type(want_loss) and _same(loss, want_loss) and _same(only_loss, want_loss)
                assert _same(grad, want_grad)
                if logits is not None:
                    assert _same(logits, want_logits)
                    assert np.isnan(loss) and np.isnan(logits[n // 2]).all()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_returned_arrays_do_not_alias_the_scratch(activation):
    spec = MlpSpec((2, 16, 16, 2), activation)
    rng = np.random.default_rng(5)
    theta, inputs, labels = _kernel_case(rng, spec, 2000, "pairs")
    params = ParamVector(theta[0], layout_for(spec))
    losses, grads = mean_loss_and_grad(spec, theta, inputs, labels)
    logits = forward(spec, params, inputs[0])
    kept = losses.copy(), grads.copy(), logits.copy()
    # Same shapes, other values: any returned view of the scratch would change.
    mean_loss_and_grad(spec, -theta, inputs[::-1].copy(), labels)
    forward(spec, params.with_theta(-theta[0]), inputs[1])
    mean_loss(spec, theta, inputs, labels)
    assert _same(losses, kept[0]) and _same(grads, kept[1]) and _same(logits, kept[2])


def test_retained_scratch_is_bounded_by_the_largest_call():
    spec = MlpSpec((3, 7, 5, 2), "relu")  # used by no other test: its scratch starts empty
    widths = spec.layer_sizes[1:-1]
    rng = np.random.default_rng(8)

    def need(rows: int) -> int:
        """Bytes of a gradient call's scratch arrays: the hidden outputs,
        their deltas and the relu masks."""
        return sum(8 * rows * w for w in widths) * 2 + sum(rows * w for w in widths)

    largest = 0
    for n in [41, 700] + list(range(1, 60)) + [350]:
        for layout in ("plain", "pairs", "grid"):
            theta, inputs, labels = _kernel_case(rng, spec, n, layout)
            pairs = int(np.prod(np.broadcast_shapes(theta.shape[:-1], inputs.shape[:-2])))
            with np.errstate(invalid="ignore"):
                mean_loss_and_grad(spec, theta, inputs, labels)
                mean_loss(spec, theta, inputs, labels)
            largest = max(largest, need(pairs * n))
            assert _scratch_for(spec).buffer.nbytes <= largest
    # Exactly the largest call's arrays (3 x 3 pairs of 700 rows), after
    # hundreds of smaller call shapes.
    assert _scratch_for(spec).buffer.nbytes == largest


def _independent_fd(spec, params, batch, h):
    """Inline central differences, written separately from the module's
    oracle so the oracle itself is cross-checked once."""
    theta = params.theta
    out = np.zeros_like(theta)
    for j in range(theta.shape[0]):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        lu = mean_loss(spec, up, batch.inputs, batch.labels)
        ld = mean_loss(spec, down, batch.inputs, batch.labels)
        out[j] = (lu - ld) / (2.0 * h)
    return out


def test_finite_diff_oracle_self_check_on_linear_model():
    spec, params, batch = random_instance(4, sizes=(2, 2), k=1, per_domain=8)
    _, grad = loss_and_grad(spec, params, batch)
    fd = finite_diff_grad(spec, params, batch, 1e-6)
    inline = _independent_fd(spec, params, batch, 1e-6)
    assert np.allclose(fd, inline, rtol=0, atol=1e-14)
    assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) <= 1e-7


def test_finite_diff_error_shrinks_quadratically_in_h():
    spec, params, batch = random_instance(5, sizes=(2, 8, 2), k=1, per_domain=16)
    _, grad = loss_and_grad(spec, params, batch)
    errs = [np.max(np.abs(finite_diff_grad(spec, params, batch, h) - grad)) for h in (1e-3, 5e-4)]
    ratio = errs[0] / errs[1]
    assert 2.0 <= ratio <= 8.0  # central differences: error ~ h^2, so ~4x


def test_finite_diff_rejects_nonpositive_h():
    spec, params, batch = random_instance(6)
    with pytest.raises(ValueError):
        finite_diff_grad(spec, params, batch, 0.0)


def test_gradcheck_tanh_random_instances():
    worst = 0.0
    for seed in range(10):
        spec, params, batch = random_instance(100 + seed, sizes=(2, 8, 8, 2), k=1, per_domain=16)
        _, grad = loss_and_grad(spec, params, batch)
        fd = finite_diff_grad(spec, params, batch, 1e-6)
        worst = max(worst, float(np.max(np.abs(grad - fd) / (1.0 + np.abs(fd)))))
    assert worst <= 1e-5


def test_gradcheck_relu_away_from_kinks():
    found = 0
    seed = 0
    while found < 3 and seed < 200:
        spec, params, batch = random_instance(300 + seed, sizes=(2, 6, 2), activation="relu", k=1, per_domain=8)
        _, _, pre_acts = reference_forward_cached(spec, params.theta, batch.inputs)
        seed += 1
        if min(float(np.min(np.abs(z))) for z in pre_acts) <= 1e-3:
            continue  # instance too close to a relu kink for finite differences
        found += 1
        _, grad = loss_and_grad(spec, params, batch)
        fd = finite_diff_grad(spec, params, batch, 1e-6)
        assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) <= 1e-5
    assert found == 3
