"""Optimizer-family contracts: ascending vectors, schedules, the five step
functions, their hand-computed scalar oracles, and exact reduction
identities."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gacfas import model as model_mod
from gacfas.model import Batch
from gacfas.numerics import Prng, axpy, gaussian, l2_norm
from gacfas.optim import (
    MODES,
    StepDiagnostics,
    _block_size,
    _deviation_sum,
    _domain_parts,
    _eps_rows,
    _grad_sum,
    _loss_sum,
    OptimizerConfig,
    ascending_vector,
    batch_loss,
    batch_loss_and_grad,
    gac_fas_record,
    regularizer_grad,
    schedule_value,
    take_step,
)

from helpers import (
    CountingQuadratic,
    DomainQuadratic,
    MirrorLinear,
    ScalarQuadratic,
    k_domain_batch,
    mirror_batch,
    random_instance,
    reference_deviation_sum,
    reference_sum_terms,
    scalar_params,
)


def cfg(mode="gac_fas", eta0=0.1, rho=0.1, gamma=0.0, weight_decay=0.0, **kw):
    return OptimizerConfig(
        mode=mode,
        eta0=eta0,
        rho=rho,
        gamma=gamma,
        weight_decay=weight_decay,
        **kw,
    )


# ---------------------------------------------------------------- config ----


def test_config_defaults():
    c = OptimizerConfig()
    assert c.mode == "gac_fas" and c.gamma == 0.0002 and c.rho == 0.1 and c.eta0 == 0.005
    assert c.schedule == "constant" and c.step_period_epochs == 40 and c.step_factor == 0.1 and c.period_steps == 0
    assert c.zero_grad_eps == 1e-12


# ------------------------------------------------------- ascending vector ----


def test_ascending_vector_direct_example():
    eps = ascending_vector(np.array([3.0, 4.0]), 0.1, 1e-12)
    assert np.max(np.abs(eps - np.array([0.06, 0.08]))) <= 1e-15


def test_ascending_vector_zero_gradient_guard():
    eps = ascending_vector(np.zeros(4), 0.3, 1e-12)
    assert np.all(eps == 0.0)
    tiny = ascending_vector(np.full(4, 1e-14), 0.3, 1e-12)
    assert np.all(tiny == 0.0)  # norm 2e-14 is within the 1e-12 guard
    just_above = ascending_vector(np.full(4, 1e-12), 0.3, 1e-12)
    assert abs(l2_norm(just_above) - 0.3) <= 1e-12  # norm 2e-12 exceeds the guard


def test_ascending_vector_norm_equals_rho():
    prng = Prng(0, 0)
    for trial in range(200):
        dim = 1 + trial % 40
        g = gaussian(prng, dim)
        for rho in (0.005, 0.05, 0.1, 0.2, 0.4):
            eps = ascending_vector(g, rho, 1e-12)
            assert abs(l2_norm(eps) - rho) <= 1e-12


# ------------------------------------------------------------ regularizer ----


def test_regularizer_grad_examples():
    from gacfas.model import ParamVector

    p = ParamVector.from_flat(np.array([2.0, -4.0]))
    assert np.all(regularizer_grad(p, 0.0) == 0.0)
    assert np.array_equal(regularizer_grad(p, 0.5), np.array([1.0, -2.0]))
    doubled = p.with_theta(2.0 * p.theta)
    assert np.array_equal(regularizer_grad(doubled, 0.5), 2.0 * regularizer_grad(p, 0.5))


# --------------------------------------------------------------- schedule ----


def test_schedule_values():
    const = OptimizerConfig()
    assert schedule_value(const, 0.3, 1) == 0.3
    assert schedule_value(const, 0.3, 999) == 0.3
    th = OptimizerConfig(schedule="theorem1")
    assert schedule_value(th, 0.1, 1) == 0.1
    assert schedule_value(th, 0.1, 4) == 0.05
    step = OptimizerConfig(schedule="step", step_period_epochs=2, step_factor=0.1, period_steps=10)
    assert schedule_value(step, 1.0, 10) == 1.0
    assert schedule_value(step, 1.0, 11) == pytest.approx(0.1)
    assert schedule_value(step, 1.0, 21) == pytest.approx(0.01)


def test_theorem1_schedule_coupling():
    c = OptimizerConfig(schedule="theorem1", eta0=0.3, rho=0.1, gamma=0.0002)
    for t in (1, 2, 7, 100, 999):
        assert abs(schedule_value(c, c.eta0, t) * math.sqrt(t) - c.eta0) <= 1e-12
        assert abs(schedule_value(c, c.rho, t) * math.sqrt(t) - c.rho) <= 1e-12
        assert abs(schedule_value(c, c.gamma, t) * math.sqrt(t) - c.gamma) <= 1e-12


# ------------------------------------------------------------------- erm ----


def test_erm_scalar_quadratic_example():
    params, diag = take_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), cfg("erm"), t=1)
    assert abs(params.theta[0] - 0.9) <= 1e-15
    assert diag.loss_erm == 0.5 and diag.grad_norm == 1.0


def test_erm_eta_zero_leaves_params_unchanged():
    c = cfg("erm", eta0=0.0, weight_decay=0.3)
    spec, params, batch = random_instance(0)
    out, _ = take_step(spec, params, batch, c, t=1)
    assert np.array_equal(out.theta, params.theta)


def test_erm_two_identical_domains_doubles_gradient():
    spec, params, batch1 = random_instance(1, k=1, per_domain=6)
    batch2 = Batch(
        np.concatenate([batch1.inputs, batch1.inputs]),
        np.concatenate([batch1.labels, batch1.labels]),
        np.concatenate([np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64)]),
    )
    c = cfg("erm", eta0=0.05)
    out1, diag1 = take_step(spec, params, batch1, c, t=1)
    out2, diag2 = take_step(spec, params, batch2, c, t=1)
    assert diag2.grad_norm == 2.0 * diag1.grad_norm  # doubling is exact
    delta1 = out1.theta - params.theta
    delta2 = out2.theta - params.theta
    assert np.allclose(delta2, 2.0 * delta1, rtol=1e-12, atol=1e-15)


def test_erm_weight_decay_pulls_toward_zero():
    spec, params, batch = random_instance(2)
    c_plain = cfg("erm", eta0=0.1, weight_decay=0.0)
    c_decay = cfg("erm", eta0=0.1, weight_decay=1.0)
    out_plain, _ = take_step(spec, params, batch, c_plain, t=1)
    out_decay, _ = take_step(spec, params, batch, c_decay, t=1)
    shrink = out_plain.theta - 0.1 * params.theta
    assert np.allclose(out_decay.theta, shrink, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------- sam_whole ----


def test_sam_whole_rho_zero_matches_erm_exactly():
    spec, params, batch = random_instance(3)
    c_sam = cfg("sam_whole", rho=0.0, weight_decay=1e-3)
    c_erm = cfg("erm", rho=0.0, weight_decay=1e-3)
    out_sam, _ = take_step(spec, params, batch, c_sam, t=1)
    out_erm, _ = take_step(spec, params, batch, c_erm, t=1)
    assert np.array_equal(out_sam.theta, out_erm.theta)


def test_sam_whole_scalar_quadratic_example():
    params, diag = take_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), cfg("sam_whole"), t=1)
    assert abs(params.theta[0] - 0.89) <= 1e-15
    assert diag.surrogate_gap >= 0.0
    assert abs(diag.surrogate_gap - (0.5 * 1.1**2 - 0.5)) <= 1e-15


def test_sam_whole_gap_nonnegative_on_convex_quadratic():
    for theta0 in (-2.0, 0.5, 3.0):
        _, diag = take_step(ScalarQuadratic(), scalar_params(theta0), k_domain_batch(2), cfg("sam_whole", rho=0.2), t=1)
        assert diag.surrogate_gap >= 0.0


# ------------------------------------------------------------ sam_domain ----


def test_sam_domain_single_domain_collapses_to_sam_whole():
    spec, params, batch = random_instance(4, k=1, per_domain=10)
    out_d, diag_d = take_step(spec, params, batch, cfg("sam_domain"), t=1)
    out_w, diag_w = take_step(spec, params, batch, cfg("sam_whole"), t=1)
    assert np.array_equal(out_d.theta, out_w.theta)
    assert diag_d.surrogate_gap == pytest.approx(diag_w.surrogate_gap, abs=1e-15)


def test_sam_domain_rho_zero_descends_mean_of_domain_gradients():
    spec, params, batch = random_instance(5, k=3)
    c = cfg("sam_domain", rho=0.0, eta0=0.2, weight_decay=0.01)
    out, _ = take_step(spec, params, batch, c, t=1)
    from gacfas.model import domain_slices, mean_loss_and_grad

    grads = [mean_loss_and_grad(spec, params.theta, batch.inputs[idx], batch.labels[idx])[1]
             for _, idx in domain_slices(batch)]
    mean_g = (grads[0] + grads[1] + grads[2]) / 3.0
    want = params.theta - 0.2 * (mean_g + 0.01 * params.theta)
    assert np.allclose(out.theta, want, rtol=1e-13, atol=1e-16)


def test_sam_domain_mirror_conflict_cancels_update():
    """Opposing per-domain gradients: each domain's perturbed gradient stays
    large, but their average vanishes, so the parameters never move."""
    params = scalar_params(1.0)
    out, diag = take_step(MirrorLinear(), params, mirror_batch(), cfg("sam_domain", rho=0.3), t=1)
    assert out.theta[0] == 1.0
    assert diag.adv_grad_norms == (1.0, 1.0)
    assert diag.grad_norm == 0.0  # summed gradient cancels exactly


# --------------------------------------------------------------- gac_fas ----


def test_gac_scalar_oracle_two_identical_domains():
    """k=2 quadratic domains, theta=1, rho=0.1, gamma=0.05, eta=0.1:
    g_i=1, g=2, eps_i=0.1, theta_adv=1+0.1-0.05*2=1, gp_i=2, so the update
    is -0.1*(2 + (2+2)/2) = -0.4 and theta' = 0.6."""
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05)
    params, diag = take_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(2), c, t=1)
    assert abs(params.theta[0] - 0.6) <= 1e-12
    assert diag.alignment_cos == (1.0, 1.0)
    assert diag.adv_grad_norms == (2.0, 2.0)


def test_gac_reduction_identity_is_bit_exact():
    """rho=0, gamma=0, lambda=0: every perturbed gradient equals g, so the
    step is ERM with a doubled gradient, bit-identical to ERM at 2*eta."""
    for seed in range(100):
        spec, params, batch = random_instance(700 + seed, k=(seed % 3) + 1, per_domain=4)
        eta = 0.01 + 0.001 * (seed % 7)
        out_gac, _ = take_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=0.0, gamma=0.0), t=1)
        out_erm, _ = take_step(spec, params, batch, cfg("erm", eta0=2.0 * eta), t=1)
        assert np.array_equal(out_gac.theta, out_erm.theta)


def test_gac_single_domain_matches_straight_line_reference():
    """k=1, gamma=0: independently recompute
    theta - eta*(g + grad L(theta + rho*g/||g||; B) + r)."""
    for seed in range(10):
        spec, params, batch = random_instance(800 + seed, k=1, per_domain=8)
        c = cfg("gac_fas", eta0=0.05, rho=0.1, gamma=0.0, weight_decay=1e-3)
        out, _ = take_step(spec, params, batch, c, t=1)
        _, g = batch_loss_and_grad(spec, params.theta, batch)
        theta_adv = params.theta + g * (0.1 / np.linalg.norm(g))
        _, gp = batch_loss_and_grad(spec, theta_adv, batch)
        want = params.theta - 0.05 * (g + gp + 1e-3 * params.theta)
        assert np.allclose(out.theta, want, rtol=1e-12, atol=1e-15)


def test_gac_gamma_offset_moves_ascending_point():
    spec, params, batch = random_instance(9, k=2)
    out_zero, _ = take_step(spec, params, batch, cfg("gac_fas", gamma=0.0), t=1)
    out_gamma, _ = take_step(spec, params, batch, cfg("gac_fas", gamma=0.05), t=1)
    assert not np.array_equal(out_zero.theta, out_gamma.theta)


def test_gac_schedules_apply_to_eta_rho_gamma_together():
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05, schedule="theorem1")
    params, _ = take_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(2), c, t=4)
    # hand recomputation at t=4: eta=rho=0.05, gamma=0.025
    # g=2, eps=0.05, theta_adv=1+0.05-0.05=1, gp=2, update=-0.05*4=-0.2
    assert abs(params.theta[0] - 0.8) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 2e-4, 2e-3, 2e-2, 0.2])
def test_the_gac_fas_alignment_is_read_at_the_shifted_point(gamma):
    """alignment_cos[i] is the cosine of g with the whole-batch gradient at
    theta + eps_i - gamma g, the point the step evaluates. On a quadratic
    whose whole-batch Hessian is H, the inner product there is the one at
    the ascending point theta + eps_i less gamma g.H.g."""
    rng = np.random.default_rng(5)
    k, rho = 3, 0.3
    a = rng.standard_normal((4, 4))
    model = DomainQuadratic(a @ a.T + np.eye(4))
    batch = Batch(rng.standard_normal((2 * k, 4)), np.zeros(2 * k, dtype=np.int64), np.repeat(np.arange(k), 2))
    theta = rng.standard_normal(4)
    diag = gac_fas_record(model, model_mod.ParamVector.from_flat(theta), batch, cfg(rho=rho, gamma=gamma), t=1)
    offsets = [batch.inputs[batch.domain_ids == i].mean(axis=0) for i in range(k)]
    hessian = k * model.hessian  # the whole-batch loss sums k domain means
    g = hessian @ theta + sum(offsets)
    for i, offset in enumerate(offsets):
        g_i = model.hessian @ theta + offset
        at_ascent = hessian @ (theta + rho * g_i / np.linalg.norm(g_i)) + sum(offsets)
        measured = diag.alignment_cos[i] * diag.adv_grad_norms[i] * diag.grad_norm
        assert measured == pytest.approx(at_ascent @ g - gamma * (g @ hessian @ g), rel=1e-12)


# ---------------------------------------------------- reg_domain_perturb ----


def test_reg_single_domain_identical_to_gac():
    spec, params, batch = random_instance(11, k=1, per_domain=10)
    c_args = dict(eta0=0.05, rho=0.1, gamma=0.01, weight_decay=1e-3)
    out_reg, _ = take_step(spec, params, batch, cfg("reg_domain_perturb", **c_args), t=1)
    out_gac, _ = take_step(spec, params, batch, cfg("gac_fas", **c_args), t=1)
    assert np.array_equal(out_reg.theta, out_gac.theta)


def test_reg_identical_domains_matches_gac():
    spec, params, batch1 = random_instance(12, k=1, per_domain=6)
    batch2 = Batch(
        np.concatenate([batch1.inputs, batch1.inputs]),
        np.concatenate([batch1.labels, batch1.labels]),
        np.concatenate([np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64)]),
    )
    c_args = dict(eta0=0.05, rho=0.1, gamma=0.01)
    out_reg, _ = take_step(spec, params, batch2, cfg("reg_domain_perturb", **c_args), t=1)
    out_gac, _ = take_step(spec, params, batch2, cfg("gac_fas", **c_args), t=1)
    assert np.allclose(out_reg.theta, out_gac.theta, rtol=1e-12, atol=1e-15)


def test_reg_asymmetric_domains_differ_from_gac():
    spec, params, batch = random_instance(13, k=2, per_domain=8)
    out_reg, _ = take_step(spec, params, batch, cfg("reg_domain_perturb"), t=1)
    out_gac, _ = take_step(spec, params, batch, cfg("gac_fas"), t=1)
    dir_reg = out_reg.theta - params.theta
    dir_gac = out_gac.theta - params.theta
    assert np.linalg.norm(dir_reg - dir_gac) > 1e-8


# ------------------------------------------------------------ whole family ----


def test_take_step_dispatches_every_mode():
    """take_step is the one step function, and cfg.mode alone picks its rule."""
    import gacfas
    from gacfas import optim

    assert [name for module in (gacfas, optim) for name in dir(module) if name.endswith("_step")] == ["take_step"] * 2
    spec, params, batch = random_instance(14, k=2)
    assert optim._domain_parts(spec, batch).ids == (0, 1)  # the record's domain order
    thetas = set()
    for mode in MODES:
        out, diag = take_step(spec, params, batch, cfg(mode, gamma=0.01), t=1)
        assert out.theta.shape == params.theta.shape
        assert diag.step_index == 1
        thetas.add(out.theta.tobytes())
    assert len(thetas) == len(MODES)


def test_step_functions_never_mutate_input_params():
    spec, params, batch = random_instance(15, k=2)
    before = params.theta.copy()
    for mode in MODES:
        take_step(spec, params, batch, cfg(mode, weight_decay=1e-3), t=3)
        assert np.array_equal(params.theta, before)


def test_alignment_cos_within_bounds_and_gap_toggle():
    spec, params, batch = random_instance(16, k=3)
    for mode in MODES:
        _, diag = take_step(spec, params, batch, cfg(mode), t=1)
        assert all(-1.0 <= c <= 1.0 for c in diag.alignment_cos)
        _, diag_off = take_step(spec, params, batch, cfg(mode, track_surrogate_gap=False), t=1)
        assert math.isnan(diag_off.surrogate_gap)


def test_diagnostics_per_domain_losses_sum_to_loss_erm():
    spec, params, batch = random_instance(17, k=3)
    _, diag = take_step(spec, params, batch, cfg(), t=1)
    total = 0.0
    for _, idx in model_mod.domain_slices(batch):  # ascending domain ids
        total += model_mod.mean_loss(spec, params.theta, batch.inputs[idx], batch.labels[idx])
    assert total == diag.loss_erm
    assert diag.loss_erm == pytest.approx(batch_loss(spec, params.theta, batch), rel=1e-12)


def test_taylor_first_order_error_shrinks_quadratically():
    """Moving the ascending point by -gamma*g changes the perturbed loss by
    -gamma*<grad L_p, g> to first order; halving gamma must shrink the
    remainder at least 3x (it is ~4x for a smooth model)."""
    gammas = (1e-2, 5e-3, 2.5e-3)
    for seed in range(10):
        spec, params, batch = random_instance(900 + seed, sizes=(2, 8, 2), k=3, per_domain=6)
        theta = params.theta
        _, g = batch_loss_and_grad(spec, theta, batch)
        rows = batch.domain_ids == seed % 3
        _, g_i = model_mod.mean_loss_and_grad(spec, theta, batch.inputs[rows], batch.labels[rows])
        eps = ascending_vector(g_i, 0.1, 1e-12)

        def phi(gamma):
            return batch_loss(spec, theta + eps - gamma * g, batch)

        _, gp = batch_loss_and_grad(spec, theta + eps, batch)
        ip = float(np.dot(gp, g))
        phi0 = phi(0.0)
        errs = [abs(phi(gm) - (phi0 - gm * ip)) for gm in gammas]
        assert errs[0] > 0 and errs[1] > 0
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0


# -------------------------------------------------------- stacked kernel ----


def reversed_blocks(batch: Batch, per_domain: int) -> Batch:
    """The same rows with their blocks of per_domain rows in reverse order:
    descending domain ids, which the stacked layout does not take."""
    order = np.arange(batch.n).reshape(-1, per_domain)[::-1].reshape(-1)
    return Batch(batch.inputs[order], batch.labels[order], batch.domain_ids[order])


def count_kernel_calls(monkeypatch) -> list:
    """Record the inputs shape of every MLP kernel call the optimizers make."""
    shapes = []
    real = model_mod.mean_loss_and_grad

    def counting(spec, theta, inputs, labels):
        shapes.append(np.shape(inputs))
        return real(spec, theta, inputs, labels)

    monkeypatch.setattr(model_mod, "mean_loss_and_grad", counting)
    return shapes


@pytest.mark.parametrize("mode", MODES)
def test_stacked_and_looped_steps_are_bitwise_equal(mode):
    c = cfg(mode, rho=0.1, gamma=0.01, weight_decay=1e-3)
    for seed in range(20):
        k = (seed % 3) + 1  # one domain is one block, stacked either way
        spec, params, batch = random_instance(1000 + seed, sizes=(2, 6, 5, 2), k=k, per_domain=6)
        out_loop, diag_loop = take_step(spec, params, reversed_blocks(batch, 6), c, t=3)
        out_stacked, diag_stacked = take_step(spec, params, batch, c, t=3)
        assert np.array_equal(out_loop.theta, out_stacked.theta)
        assert diag_loop == diag_stacked


def test_gac_reduction_identity_is_bit_exact_on_stacked_batches():
    for seed in range(50):
        spec, params, batch = random_instance(700 + seed, k=(seed % 3) + 1, per_domain=4)
        eta = 0.01 + 0.001 * (seed % 7)
        out_gac, _ = take_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=0.0, gamma=0.0), t=1)
        out_erm, _ = take_step(spec, params, batch, cfg("erm", eta0=2.0 * eta), t=1)
        assert np.array_equal(out_gac.theta, out_erm.theta)


@pytest.mark.parametrize(
    "mode,calls", [("erm", 1), ("sam_whole", 2), ("sam_domain", 2), ("gac_fas", 2), ("reg_domain_perturb", 2)]
)
def test_balanced_mlp_step_makes_stacked_kernel_calls(monkeypatch, mode, calls):
    spec, params, batch = random_instance(5, sizes=(2, 16, 16, 2), k=3, per_domain=32)
    shapes = count_kernel_calls(monkeypatch)
    take_step(spec, params, batch, cfg(mode), t=1)
    assert shapes == [(3, 32, 2)] * calls


def test_a_sampler_batch_makes_the_stacked_kernel_calls(monkeypatch):
    from gacfas import datagen

    domains = [datagen.DomainSpec(rotation=0.3 * i, noise_sigma=0.1, n_samples=50, seed=i) for i in range(4)]
    source, _ = datagen.leave_one_out(domains, 1)
    spec, params, _ = random_instance(5, sizes=(2, 16, 16, 2))
    shapes = count_kernel_calls(monkeypatch)
    for t in (1, 2):
        batch = datagen.sample_minibatch(source, 32, Prng(t, 1))
        params, _ = take_step(spec, params, batch, cfg("gac_fas"), t=t)
    assert shapes == [(3, 32, 2)] * 4


@pytest.mark.parametrize("held", range(4))
@pytest.mark.parametrize("per_domain", [1, 7, 32])
def test_a_sampler_batch_holds_every_source_domain_as_one_stacked_part(held, per_domain):
    """A step's k is the number of domains its batch holds. Every batch the
    sampler draws from a split of the default task holds the source set's
    ids in ascending order, one stacked (k, m, d) part each."""
    from gacfas import datagen
    from gacfas.config import default_domains

    source, _ = datagen.leave_one_out(default_domains(), held)
    ids = tuple(sorted(int(b.domain_ids[0]) for b in source.domains))
    spec = model_mod.MlpSpec((2, 16, 16, 2), "tanh")
    prng = Prng(held, 1)
    for _ in range(3):
        parts = _domain_parts(spec, datagen.sample_minibatch(source, per_domain, prng))
        assert parts.ids == ids and len(ids) == 3 and held not in ids
        assert isinstance(parts.inputs, np.ndarray)
        assert parts.inputs.shape == (3, per_domain, 2) and parts.labels.shape == (3, per_domain)


@pytest.mark.parametrize(
    "ids,size",
    [
        ([0, 0, 2, 2, 5, 5], 2),
        ([3, 3, 3], 3),
        ([4], 1),
        ([0, 1, 2], 1),
        ([0, 0, 1, 1, 2], 0),  # 5 rows are not blocks of 2
        ([0, 0, 0, 1, 1, 1, 1, 1], 0),  # blocks of unequal size
        ([0, 1, 0, 1, 2, 2], 0),  # a block mixes domains
        ([1, 1, 0, 0, 2, 2], 0),  # blocks out of order
        ([2, 2, 1, 1, 0, 0], 0),  # descending ids
        ([0, 0, 1, 1, 1, 1], 0),  # one domain in two blocks
        ([0, 1, 1, 0], 0),  # the first domain's rows apart
    ],
)
def test_block_size_finds_the_balanced_layout(ids, size):
    assert _block_size(np.array(ids, dtype=np.int64)) == size


@pytest.mark.parametrize("mode", MODES)
def test_descending_domain_blocks_take_the_loop_with_equal_bits(monkeypatch, mode):
    spec, params, batch = random_instance(7, sizes=(2, 6, 2), k=3, per_domain=4)
    c = cfg(mode, rho=0.1, gamma=0.01, weight_decay=1e-3)
    out_stacked, diag_stacked = take_step(spec, params, batch, c, t=2)
    shapes = count_kernel_calls(monkeypatch)
    out_loop, diag_loop = take_step(spec, params, reversed_blocks(batch, 4), c, t=2)
    assert shapes and set(shapes) == {(4, 2)}
    assert np.array_equal(out_loop.theta, out_stacked.theta) and diag_loop == diag_stacked


def test_unequal_domain_batch_takes_the_loop_with_unchanged_results(monkeypatch):
    """Domains of 3 and 5 rows in ascending id order: k + k^2 = 6 per-pair
    calls, and the step equals a straight-line recomputation of the rule
    bit for bit."""
    spec, params, batch = random_instance(11, sizes=(2, 6, 2), k=1, per_domain=8)
    batch = Batch(batch.inputs, batch.labels, np.array([0, 0, 0, 1, 1, 1, 1, 1]))
    parts = [(batch.inputs[:3], batch.labels[:3]), (batch.inputs[3:], batch.labels[3:])]
    eta, rho, gamma, wd = 0.05, 0.1, 0.01, 1e-3
    shapes = count_kernel_calls(monkeypatch)
    out, _ = take_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=rho, gamma=gamma, weight_decay=wd), t=1)
    assert shapes == [(3, 2), (5, 2)] * 3

    def whole_grad(theta):
        total = model_mod.mean_loss_and_grad(spec, theta, *parts[0])[1].copy()
        total += model_mod.mean_loss_and_grad(spec, theta, *parts[1])[1]
        return total

    theta = params.theta
    g = whole_grad(theta)
    offset = axpy(-gamma, g, theta)
    deviations = np.zeros_like(theta)
    for inputs, labels in parts:
        g_i = model_mod.mean_loss_and_grad(spec, theta, inputs, labels)[1]
        deviations += whole_grad(axpy(1.0, ascending_vector(g_i, rho, 1e-12), offset)) - g
    want = axpy(-eta, (g + axpy(0.5, deviations, g)) + theta * wd, theta)
    assert np.array_equal(out.theta, want)


def test_oracle_models_take_the_loop_on_balanced_batches():
    model = CountingQuadratic()
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05)
    params, _ = take_step(model, scalar_params(1.0), k_domain_batch(2), c, t=1)
    assert model.calls == 2 + 4
    assert abs(params.theta[0] - 0.6) <= 1e-12


def test_full_domain_parts_go_pair_by_pair(monkeypatch):
    """The full-set diagnostics hand their 2,000-row domains over as a list
    of parts, so every (point, part) pair is its own call; a balanced batch
    of the same size is stacked like any other."""
    from gacfas import datagen
    from gacfas.harness import fullset_step_diagnostics

    shapes = count_kernel_calls(monkeypatch)
    domains = [datagen.DomainSpec(rotation=0.3 * i, noise_sigma=0.1, n_samples=2000, seed=i) for i in range(4)]
    source, _ = datagen.leave_one_out(domains, 3)
    spec = model_mod.MlpSpec((2, 16, 16, 2), "tanh")
    fullset_step_diagnostics(spec, model_mod.init_params(spec, Prng(0, 0)), source, cfg("gac_fas"), t=1)
    assert shapes == [(2000, 2)] * 12
    spec, params, batch = random_instance(13, sizes=(2, 16, 16, 2), k=3, per_domain=2000)
    shapes.clear()
    take_step(spec, params, batch, cfg("gac_fas"), t=1)
    assert shapes == [(3, 2000, 2)] * 2


@pytest.mark.parametrize("mode", MODES)
def test_alignment_cos_is_nan_when_the_gradients_are(mode):
    """A diverged iterate reports NaN alignment, not a clamped -1.0."""
    spec, params, batch = random_instance(17, k=2)
    theta = params.theta.copy()
    theta[0] = math.nan
    _, diag = take_step(spec, model_mod.ParamVector(theta, params.layout), batch, cfg(mode), t=1)
    assert all(math.isnan(c) for c in diag.alignment_cos)


# ----------------------------------------------------------- step records ----


def same_float(a: float, b: float) -> bool:
    """Equal bits, or both NaN."""
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("mode", MODES)
def test_a_step_without_its_record_gives_the_same_theta_and_loss(mode):
    """record=False skips the record only: theta has the same bits and the
    step loss is the record's loss_erm, on looped and stacked parts, for a
    duck-typed model, and for NaN parameters."""
    c = cfg(mode, rho=0.1, gamma=0.01, weight_decay=1e-3)
    cases = []
    for seed in range(6):
        spec, params, batch = random_instance(2000 + seed, sizes=(2, 6, 5, 2), k=(seed % 3) + 1, per_domain=5)
        cases += [(spec, params, reversed_blocks(batch, 5)), (spec, params, batch)]
    theta = cases[0][1].theta.copy()
    theta[3] = math.nan
    cases.append((cases[0][0], model_mod.ParamVector(theta, cases[0][1].layout), cases[1][2]))
    cases.append((ScalarQuadratic(), scalar_params(0.7), k_domain_batch(3)))
    for model, params, batch in cases:
        with_record, diag = take_step(model, params, batch, c, t=2)
        without, loss = take_step(model, params, batch, c, t=2, record=False)
        assert isinstance(diag, StepDiagnostics)
        assert type(loss) is float and same_float(loss, diag.loss_erm)
        assert with_record.theta.tobytes() == without.theta.tobytes()


def test_records_hold_python_numbers_only():
    spec, params, batch = random_instance(31, k=3)
    for mode in MODES:
        _, diag = take_step(spec, params, batch, cfg(mode), t=1)
        for name in StepDiagnostics.__dataclass_fields__:
            value = getattr(diag, name)
            assert all(type(v) in (int, float) for v in (value if isinstance(value, tuple) else (value,))), name


# ----------------------------------------------------- single-call sums ----

SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
SUM_ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), SPECIAL_FLOATS, SPECIAL_FLOATS)


@st.composite
def grid_sums(draw):
    """A gac_fas grid of k points x k parts: losses (k, k), gradients
    (k, k, P), and a plain gradient g (P,), with P >= 2 as for every MlpSpec.
    k runs past 8, where numpy would sum the innermost axis pairwise."""
    k = draw(st.integers(1, 9))
    p = draw(st.integers(2, 4))
    values = draw(st.lists(SUM_ENTRIES, min_size=k * k * (p + 1) + p, max_size=k * k * (p + 1) + p))
    flat = np.array(values, dtype=np.float64)
    return flat[: k * k].reshape(k, k), flat[k * k : k * k * (p + 1)].reshape(k, k, p), flat[k * k * (p + 1) :]


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(grid_sums())
# All -0.0: the gradient sums stay -0.0 and the deviations from +0.0 become
# +0.0, so a start value of the wrong sign shows in either sum.
@example((np.full((3, 3), -0.0), np.full((3, 3, 2), -0.0), np.zeros(2)))
@example((np.full((1, 1), -0.0), np.full((1, 1, 2), -0.0), np.zeros(2)))
def test_single_call_grid_and_deviation_sums_equal_the_loops_bitwise(case):
    losses, grads, g = case
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the draw
        sums = [reference_sum_terms(losses[i].tolist(), grads[i]) for i in range(losses.shape[0])]
        assert bits([_loss_sum(row) for row in losses.tolist()]) == bits([loss for loss, _ in sums])
        adv_grads = _grad_sum(grads)
        assert bits(adv_grads) == bits(np.stack([grad for _, grad in sums]))
        assert bits(_grad_sum(grads[0])) == bits(reference_sum_terms(losses[0].tolist(), grads[0])[1])
        assert bits(_deviation_sum(adv_grads, g)) == bits(reference_deviation_sum(adv_grads, g))


def test_ascent_points_match_ascending_vector_then_axpy_bitwise():
    """Rows with a zero, a tiny, a NaN and ordinary gradients, against a
    base with signed zeros: each ascending point eps + base, with eps from
    the one ascent helper, is axpy(1.0, eps, base) for the eps written out
    here (rho * g / ||g||, or zeros at or under the guard), bit for bit,
    including the zero-gradient row's +0.0 + -0.0; ascending_vector is the
    helper's one-row case."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal(7)
    base[[1, 4]] = -0.0
    grads = rng.standard_normal((5, 7))
    grads[1] = 0.0
    grads[2] *= 1e-14
    grads[3, 2] = math.nan
    for rho in (0.0, 0.05, 0.3):
        eps = [grad * (rho / l2_norm(grad)) if l2_norm(grad) > 1e-12 else np.zeros(7) for grad in grads]
        want = np.stack([axpy(1.0, e, base) for e in eps])
        assert (_eps_rows(grads, rho, 1e-12) + base).tobytes() == want.tobytes()
        for grad, e in zip(grads, eps):
            assert ascending_vector(grad, rho, 1e-12).tobytes() == e.tobytes()
