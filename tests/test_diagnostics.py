"""Surrogate gap, alignment inner-product tensor, landscape slices, and
convergence traces."""

import dataclasses
import math
import re

import numpy as np
import pytest

from gacfas.datagen import DomainSpec, build_source_set, sample_minibatch
from gacfas.diagnostics import (
    ConvergenceTrace,
    LandscapeGrid,
    _block_normalized_direction,
    alignment_inner_products,
    convergence_trace,
    landscape_slice,
    surrogate_gap,
)
from gacfas.harness import convergence_csv, landscape_csv
from gacfas.model import MlpSpec, ParamVector, init_params
from gacfas.numerics import Prng, axpy
from gacfas.optim import (
    OptimizerConfig,
    StepDiagnostics,
    _domain_parts,
    ascending_vector,
    batch_loss,
    batch_loss_and_grad,
    take_step,
)

from helpers import ScalarQuadratic, VectorQuadratic, k_domain_batch, random_instance, scalar_params


# --------------------------------------------------- perturbed loss / gap ----
# surrogate_gap returns (gap, L(theta)); the perturbed loss L(theta + eps) is
# their sum.


def test_perturbed_loss_rho_zero_equals_loss():
    spec, params, batch = random_instance(0)
    assert surrogate_gap(spec, params, batch, OptimizerConfig(rho=0.0)) == (0.0, batch_loss(spec, params.theta, batch))


def test_perturbed_loss_scalar_quadratic():
    gap, loss = surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=0.1))
    assert loss == 0.5
    assert abs(gap + loss - 0.605) <= 1e-12


def test_perturbed_loss_dominates_loss_on_convex_quadratic():
    for rho in (0.0, 0.05, 0.1, 0.5):
        gap, loss = surrogate_gap(ScalarQuadratic(), scalar_params(0.7), k_domain_batch(1), OptimizerConfig(rho=rho))
        assert gap + loss >= 0.5 * 0.7**2 - 1e-15


def test_surrogate_gap_examples_and_monotonicity():
    assert surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=0.0))[0] == 0.0
    gap, _ = surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=0.1))
    assert abs(gap - 0.105) <= 1e-12
    gaps = [
        surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=r))[0]
        for r in (0.0, 0.1, 0.2, 0.4)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_surrogate_gap_is_measured_from_the_batch_loss():
    for seed in range(5):
        spec, params, batch = random_instance(seed)
        opt = OptimizerConfig(rho=0.1)
        gap, loss = surrogate_gap(spec, params, batch, opt)
        assert loss == batch_loss(spec, params.theta, batch)
        _, g = batch_loss_and_grad(spec, params.theta, batch)
        assert gap == batch_loss(spec, ascending_vector(g, opt.rho, opt.zero_grad_eps) + params.theta, batch) - loss


def test_surrogate_gap_zero_for_every_theta_at_rho_zero():
    for seed in range(5):
        spec, params, batch = random_instance(seed)
        assert surrogate_gap(spec, params, batch, OptimizerConfig(rho=0.0))[0] == 0.0
    with pytest.raises(ValueError):
        surrogate_gap(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), OptimizerConfig(rho=-0.1))


def _gap_cases(kind: str, seed: int):
    """(model, params, batch) on a source set (list parts), a sampler batch
    (stacked parts) or, for a duck-typed model, a k-domain batch."""
    if kind == "duck":
        theta = Prng(seed, 0).generator.standard_normal(4)
        return VectorQuadratic(), ParamVector.from_flat(theta), k_domain_batch(3)
    spec = MlpSpec((2, 6, 2), "tanh")
    source = _three_domain_source(seed)
    batch = source if kind == "source set" else sample_minibatch(source, 8, Prng(seed, 1))
    assert isinstance(_domain_parts(spec, batch).inputs, np.ndarray) == (kind == "sampler batch")
    return spec, init_params(spec, Prng(seed, 0)), batch


@pytest.mark.parametrize("kind", ["source set", "sampler batch", "duck"])
def test_surrogate_gap_is_the_gap_of_a_sam_whole_step_record_bit_for_bit(kind):
    """The gap the evaluation reports and the gap a sam_whole step records
    share one definition: equal bits, loss included."""
    for seed in range(10):
        model, params, batch = _gap_cases(kind, seed)
        opt = OptimizerConfig(mode="sam_whole", rho=0.05 * (seed + 1))
        _, diag = take_step(model, params, batch, opt, t=1)
        want = (diag.surrogate_gap, diag.loss_erm)
        assert [v.hex() for v in surrogate_gap(model, params, batch, opt)] == [v.hex() for v in want]
        assert diag.surrogate_gap != 0.0


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, -0.1])
def test_surrogate_gap_refuses_a_non_finite_or_negative_rho_by_name(rho):
    spec, params, batch = random_instance(0)
    with pytest.raises(ValueError, match=f"^rho must be finite and >= 0, got {rho}$"):
        surrogate_gap(spec, params, batch, OptimizerConfig(rho=rho))


# ------------------------------------------------- alignment inner products ----


def _three_domain_source(seed: int):
    specs = [
        DomainSpec(rotation=0.3 * i, noise_sigma=0.1, n_samples=48, seed=seed * 10 + i)
        for i in range(3)
    ]
    return build_source_set(specs)


def test_alignment_tensor_rho_gamma_zero_symmetric_positive_diagonal():
    source = _three_domain_source(1)
    spec = MlpSpec((2, 6, 2), "tanh")
    params = init_params(spec, Prng(4, 0))
    m = alignment_inner_products(spec, params, source, 0, OptimizerConfig(rho=0.0, gamma=0.0))
    assert m.shape == (3, 3)
    assert np.max(np.abs(m - m.T)) <= 1e-10
    assert all(m[i, i] > 0.0 for i in range(3))


def test_alignment_tensor_single_domain_is_direct_dot():
    source = build_source_set([DomainSpec(noise_sigma=0.1, n_samples=40, seed=3)])
    spec = MlpSpec((2, 6, 2), "tanh")
    params = init_params(spec, Prng(5, 0))
    m = alignment_inner_products(spec, params, source, 0, OptimizerConfig(rho=0.1, gamma=0.01))
    batch = source.domains[0]
    _, g = batch_loss_and_grad(spec, params.theta, batch)
    eps = g * (0.1 / np.linalg.norm(g))
    _, gp = batch_loss_and_grad(spec, params.theta + eps - 0.01 * g, batch)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(float(np.dot(gp, g)), rel=1e-12)


def test_alignment_tensor_decomposition_matches_whole_set_inner_product():
    """Sum over (m, n) equals <grad L_p_i(whole set), grad L(whole set)>,
    recomputed here from raw per-domain gradients."""
    from gacfas.model import mean_loss_and_grad

    for seed in range(5):
        source = _three_domain_source(seed)
        spec = MlpSpec((2, 6, 2), "tanh")
        params = init_params(spec, Prng(seed, 0))
        rho, gamma = 0.1, 0.05
        i = seed % 3
        grads = [
            mean_loss_and_grad(spec, params.theta, b.inputs, b.labels)[1]
            for b in source.domains
        ]
        g_all = grads[0] + grads[1] + grads[2]
        eps = grads[i] * (rho / np.linalg.norm(grads[i]))
        theta_adv = params.theta + eps - gamma * g_all
        gp_all = sum(
            mean_loss_and_grad(spec, theta_adv, b.inputs, b.labels)[1] for b in source.domains
        )
        want = float(np.dot(gp_all, g_all))
        m = alignment_inner_products(spec, params, source, i, OptimizerConfig(rho=rho, gamma=gamma))
        assert abs(float(m.sum()) - want) <= 1e-9 * max(1.0, abs(want))


def test_alignment_tensor_takes_the_dead_zone_from_the_config():
    """With a dead zone above every domain's gradient norm, eps_i is zero and
    M[m][n] = <grad L_m(theta - gamma g), grad L_n(theta)>, whatever rho is."""
    from gacfas.model import mean_loss_and_grad

    for seed in range(3):
        source = _three_domain_source(seed)
        spec = MlpSpec((2, 6, 2), "tanh")
        params = init_params(spec, Prng(seed, 0))
        grads = [mean_loss_and_grad(spec, params.theta, b.inputs, b.labels)[1] for b in source.domains]
        opt = OptimizerConfig(rho=0.1, gamma=0.05, zero_grad_eps=1e6)
        assert max(np.linalg.norm(g) for g in grads) < opt.zero_grad_eps
        theta_adv = params.theta - opt.gamma * (grads[0] + grads[1] + grads[2])
        perturbed = [mean_loss_and_grad(spec, theta_adv, b.inputs, b.labels)[1] for b in source.domains]
        want = np.array([[float(np.dot(gp, g)) for g in grads] for gp in perturbed])
        m = alignment_inner_products(spec, params, source, seed % 3, opt)
        assert np.max(np.abs(m - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        outside_zone = dataclasses.replace(opt, zero_grad_eps=1e-12)
        outside = alignment_inner_products(spec, params, source, seed % 3, outside_zone)
        assert np.max(np.abs(outside - want)) > 1e-6 * np.max(np.abs(want))


def test_alignment_tensor_rejects_bad_domain_index():
    source = _three_domain_source(2)
    spec = MlpSpec((2, 6, 2), "tanh")
    params = init_params(spec, Prng(0, 0))
    with pytest.raises(ValueError):
        alignment_inner_products(spec, params, source, 3, OptimizerConfig(rho=0.1, gamma=0.0))


@pytest.mark.parametrize(
    "i,rho,gamma,message",
    [
        (0, 0.1, -1.0, "gamma must be finite and >= 0, got -1.0"),
        (0, 0.1, math.nan, "gamma must be finite and >= 0, got nan"),
        (0, 0.1, math.inf, "gamma must be finite and >= 0, got inf"),
        (0, math.nan, 0.0, "rho must be finite and >= 0, got nan"),
        (0, -0.1, 0.0, "rho must be finite and >= 0, got -0.1"),
        (True, 0.1, 0.0, "domain index must be an int, got True"),
        (1.0, 0.1, 0.0, "domain index must be an int, got 1.0"),
    ],
)
def test_alignment_tensor_refuses_bad_arguments_by_name(i, rho, gamma, message):
    """A bad rho or gamma is refused when the run's OptimizerConfig is
    built, a bad domain index by alignment_inner_products itself."""
    source = _three_domain_source(2)
    spec = MlpSpec((2, 6, 2), "tanh")
    params = init_params(spec, Prng(0, 0))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        alignment_inner_products(spec, params, source, i, OptimizerConfig(rho=rho, gamma=gamma))


# --------------------------------------------------------- landscape slice ----


def test_landscape_center_matches_loss_and_grid_shape():
    spec, params, batch = random_instance(3)
    grid = landscape_slice(spec, params, batch, dims=1, radius=0.5, steps=11, prng=Prng(0, 2))
    assert grid.offsets.shape == (11,)
    assert grid.losses.shape == (11,)
    assert grid.center_loss == batch_loss(spec, params.theta, batch)
    assert grid.losses[5] == grid.center_loss  # center index = steps // 2
    assert grid.offsets[5] == 0.0

    grid2 = landscape_slice(spec, params, batch, dims=2, radius=0.5, steps=5, prng=Prng(0, 2))
    assert grid2.offsets.shape == (25, 2)
    assert grid2.losses.shape == (25,)
    center = 2 * 5 + 2
    assert grid2.losses[center] == grid2.center_loss
    assert tuple(grid2.offsets[center]) == (0.0, 0.0)


def test_landscape_validation():
    spec, params, batch = random_instance(4)
    with pytest.raises(ValueError):
        landscape_slice(spec, params, batch, dims=3, radius=1.0, steps=5, prng=Prng(0, 2))
    with pytest.raises(ValueError):
        landscape_slice(spec, params, batch, dims=1, radius=0.0, steps=5, prng=Prng(0, 2))
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            landscape_slice(spec, params, batch, dims=1, radius=radius, steps=5, prng=Prng(0, 2))
    with pytest.raises(ValueError):
        landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=4, prng=Prng(0, 2))
    with pytest.raises(ValueError):
        landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=1, prng=Prng(0, 2))


@pytest.mark.parametrize(
    "args,message",
    [
        (dict(dims=True, steps=5), "dims must be 1 or 2, got True"),
        (dict(dims=1.0, steps=5), "dims must be 1 or 2, got 1.0"),
        (dict(dims=1, steps=5.0), "steps must be an odd int >= 3 so the center is a grid point, got 5.0"),
        (dict(dims=1, steps=True), "steps must be an odd int >= 3 so the center is a grid point, got True"),
    ],
)
def test_landscape_slice_refuses_dims_or_steps_that_are_not_ints_by_name(args, message):
    spec, params, batch = random_instance(4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        landscape_slice(spec, params, batch, radius=1.0, prng=Prng(0, 2), **args)


def test_landscape_deterministic_given_seed():
    spec, params, batch = random_instance(5)
    a = landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=9, prng=Prng(7, 2))
    b = landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=9, prng=Prng(7, 2))
    assert np.array_equal(a.losses, b.losses)
    d = _block_normalized_direction(params, Prng(7, 2))
    assert np.array_equal(d, _block_normalized_direction(params, Prng(7, 2)))
    c = landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=9, prng=Prng(8, 2))
    assert not np.array_equal(a.losses, c.losses)


def test_landscape_quadratic_slice_is_parabola():
    """For loss = ||theta||^2 / 2 the slice values are quadratic in s, so
    second differences are constant."""
    params = scalar_params(1.0).from_flat(np.arange(1.0, 7.0))
    grid = landscape_slice(VectorQuadratic(), params, k_domain_batch(1), dims=1, radius=1.0, steps=21, prng=Prng(1, 2))
    second = np.diff(grid.losses, n=2)
    assert np.max(np.abs(second - second[0])) <= 1e-8


def test_landscape_direction_blocks_match_theta_block_norms():
    spec, params, batch = random_instance(6, sizes=(2, 4, 2))
    grid = landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=5, prng=Prng(2, 2))
    d = _block_normalized_direction(params, Prng(2, 2))
    # The slice runs along this direction: the same prng draws it first.
    for s, loss in zip(grid.offsets.tolist(), grid.losses.tolist()):
        assert loss == batch_loss(spec, axpy(s, d, params.theta), batch)
    for block in params.layout:
        theta_norm = np.linalg.norm(block.view(params.theta))
        d_norm = np.linalg.norm(d[block.offset : block.offset + block.size])
        if theta_norm == 0.0:
            assert d_norm == 0.0  # zero-norm blocks (biases at init) get zero direction
        else:
            assert d_norm == pytest.approx(theta_norm, rel=1e-12)


def test_landscape_grid_validation():
    with pytest.raises(ValueError):
        LandscapeGrid(np.zeros(3), np.zeros(4))


# -------------------------------------------------------- convergence trace ----


def _diag(t: int, grad_sq: float, adv_sq: float) -> StepDiagnostics:
    g = math.sqrt(grad_sq)
    a = math.sqrt(adv_sq)
    return StepDiagnostics(
        step_index=t,
        loss_erm=0.0,
        grad_norm=g,
        alignment_cos=(1.0,),
        adv_grad_norms=(a,),
        surrogate_gap=0.0,
    )


def test_convergence_trace_zero_stream():
    stream = [_diag(t, 0.0, 0.0) for t in range(1, 101)]
    trace = convergence_trace(stream, window=10)
    assert trace.fitted_C == 0.0
    assert all(v == 0.0 for v in trace.grad_sq)
    assert trace.exceed_frac_grad == 0.0 and trace.exceed_frac_adv == 0.0


def test_convergence_trace_decaying_stream_monotone_windows():
    stream = [_diag(t, 1.0 / math.sqrt(t), 1.0 / math.sqrt(t)) for t in range(1, 2001)]
    trace = convergence_trace(stream, window=50)
    assert len(trace.t) == 40
    assert trace.t[0] == 50 and trace.t[-1] == 2000
    assert all(a > b for a, b in zip(trace.grad_sq, trace.grad_sq[1:]))
    # a 1/sqrt(t) stream obeys its own fitted log(t+1)/sqrt(t) envelope
    assert trace.exceed_frac_grad == 0.0 and trace.exceed_frac_adv == 0.0
    # C is fitted on the first ceil(40 / 4) = 10 windows.
    n_fit = math.ceil(len(trace.t) / 4)

    def fit(means):
        return sum(means[w] * math.sqrt(trace.t[w]) / math.log(trace.t[w] + 1.0) for w in range(n_fit)) / n_fit

    assert n_fit == 10 and trace.fitted_C == max(fit(trace.grad_sq), fit(trace.adv_grad_sq))


def test_convergence_trace_partial_window_dropped():
    stream = [_diag(t, 1.0, 1.0) for t in range(1, 26)]
    trace = convergence_trace(stream, window=10)
    assert len(trace.t) == 2  # 25 records -> two full windows of 10


def test_convergence_trace_validation():
    with pytest.raises(ValueError):
        convergence_trace([], window=10)
    for window in (0, True, 2.0):
        with pytest.raises(ValueError, match=f"^window must be an int >= 1, got {window!r}$"):
            convergence_trace([_diag(1, 1.0, 1.0)] * 4, window=window)
    with pytest.raises(ValueError):
        convergence_trace([_diag(1, 1.0, 1.0)], window=5)
    with pytest.raises(ValueError):
        ConvergenceTrace((1,), (-1.0,), (0.0,), 1.0, 0.0, 0.0)


def test_bound_curve_shape():
    trace = ConvergenceTrace((10,), (0.1,), (0.1,), 2.0, 0.0, 0.0)
    assert trace.bound(100) == pytest.approx(2.0 * math.log(101.0) / 10.0)


# ------------------------------------------------------------ CSV exports ----


def test_landscape_csv_round_trip_text():
    spec, params, batch = random_instance(7)
    grid = landscape_slice(spec, params, batch, dims=1, radius=1.0, steps=5, prng=Prng(3, 2))
    text = landscape_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "s,loss"
    assert len(lines) == 6
    s_vals = [float(line.split(",")[0]) for line in lines[1:]]
    assert s_vals == [-1.0, -0.5, 0.0, 0.5, 1.0]
    loss_vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert loss_vals == grid.losses.tolist()  # repr floats round-trip exactly

    grid2 = landscape_slice(spec, params, batch, dims=2, radius=1.0, steps=3, prng=Prng(3, 2))
    lines2 = landscape_csv(grid2).strip().split("\n")
    assert lines2[0] == "s,u,loss"
    assert len(lines2) == 10


def test_convergence_csv_format():
    trace = ConvergenceTrace((10, 20), (0.5, 0.25), (0.6, 0.3), 1.5, 0.0, 0.0)
    lines = convergence_csv(trace).strip().split("\n")
    assert lines[0] == "t,grad_sq_mean,adv_grad_sq_mean,bound"
    first = lines[1].split(",")
    assert int(first[0]) == 10
    assert float(first[1]) == 0.5
    assert float(first[3]) == trace.bound(10)
