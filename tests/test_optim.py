"""Optimizer-family contracts: ascending vectors, schedules, the five step
functions, their hand-computed scalar oracles, and exact reduction
identities."""

import math

import numpy as np
import pytest

from gacfas import model as model_mod
from gacfas.model import Batch
from gacfas.numerics import Prng, axpy, gaussian, l2_norm
from gacfas.optim import (
    MODES,
    OptimizerConfig,
    Schedule,
    ascending_vector,
    batch_loss,
    batch_loss_and_grad,
    erm_step,
    gac_fas_step,
    reg_domain_perturb_step,
    regularizer_grad,
    sam_domain_step,
    sam_whole_step,
    schedule_value,
    take_step,
)

from helpers import (
    MirrorLinear,
    ScalarQuadratic,
    k_domain_batch,
    mirror_batch,
    random_instance,
    scalar_params,
)


def cfg(mode="gac_fas", eta0=0.1, rho=0.1, gamma=0.0, weight_decay=0.0, schedule=None, **kw):
    return OptimizerConfig(
        mode=mode,
        eta0=eta0,
        rho=rho,
        gamma=gamma,
        weight_decay=weight_decay,
        schedule=schedule or Schedule(),
        **kw,
    )


# ---------------------------------------------------------------- config ----


def test_config_defaults_and_validation():
    c = OptimizerConfig()
    assert c.mode == "gac_fas" and c.gamma == 0.0002 and c.rho == 0.1 and c.eta0 == 0.005
    assert c.schedule.kind == "constant" and c.schedule.period_epochs == 40 and c.schedule.factor == 0.1
    assert c.zero_grad_eps == 1e-12
    with pytest.raises(ValueError):
        OptimizerConfig(mode="adam")
    with pytest.raises(ValueError):
        OptimizerConfig(eta0=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(rho=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(gamma=-1e-9)
    with pytest.raises(ValueError):
        OptimizerConfig(weight_decay=-1.0)
    with pytest.raises(ValueError):
        Schedule(kind="cosine")
    with pytest.raises(ValueError):
        Schedule(kind="step", factor=0.0)
    with pytest.raises(ValueError):
        Schedule(kind="step", period_epochs=0)


# ------------------------------------------------------- ascending vector ----


def test_ascending_vector_direct_example():
    asc = ascending_vector(np.array([3.0, 4.0]), 0.1)
    assert np.max(np.abs(asc.eps - np.array([0.06, 0.08]))) <= 1e-15


def test_ascending_vector_zero_gradient_guard():
    asc = ascending_vector(np.zeros(4), 0.3)
    assert np.all(asc.eps == 0.0)
    tiny = ascending_vector(np.full(4, 1e-14), 0.3)
    assert np.all(tiny.eps == 0.0)  # norm 2e-14 is within the 1e-12 guard
    just_above = ascending_vector(np.full(4, 1e-12), 0.3)
    assert abs(l2_norm(just_above.eps) - 0.3) <= 1e-12  # norm 2e-12 exceeds the guard


def test_ascending_vector_norm_equals_rho():
    prng = Prng(0, 0)
    for trial in range(200):
        dim = 1 + trial % 40
        g = gaussian(prng, dim)
        for rho in (0.005, 0.05, 0.1, 0.2, 0.4):
            asc = ascending_vector(g, rho)
            assert abs(l2_norm(asc.eps) - rho) <= 1e-12


def test_ascending_vector_rejects_negative_rho():
    with pytest.raises(ValueError):
        ascending_vector(np.ones(2), -0.1)


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
    const = Schedule()
    assert schedule_value(const, 0.3, 1) == 0.3
    assert schedule_value(const, 0.3, 999) == 0.3
    th = Schedule(kind="theorem1")
    assert schedule_value(th, 0.1, 1) == 0.1
    assert schedule_value(th, 0.1, 4) == 0.05
    step = Schedule(kind="step", period_epochs=2, factor=0.1, period_steps=10)
    assert schedule_value(step, 1.0, 10) == 1.0
    assert schedule_value(step, 1.0, 11) == pytest.approx(0.1)
    assert schedule_value(step, 1.0, 21) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        schedule_value(const, 0.1, 0)
    with pytest.raises(ValueError):
        schedule_value(Schedule(kind="step"), 0.1, 5)  # period not resolved to steps


def test_theorem1_schedule_coupling():
    c = OptimizerConfig(schedule=Schedule(kind="theorem1"), eta0=0.3, rho=0.1, gamma=0.0002)
    for t in (1, 2, 7, 100, 999):
        assert abs(schedule_value(c.schedule, c.eta0, t) * math.sqrt(t) - c.eta0) <= 1e-12
        assert abs(schedule_value(c.schedule, c.rho, t) * math.sqrt(t) - c.rho) <= 1e-12
        assert abs(schedule_value(c.schedule, c.gamma, t) * math.sqrt(t) - c.gamma) <= 1e-12


# -------------------------------------------------------------- erm_step ----


def test_erm_scalar_quadratic_example():
    params, diag = erm_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), cfg("erm"), t=1)
    assert abs(params.theta[0] - 0.9) <= 1e-15
    assert diag.loss_erm == 0.5 and diag.grad_norm == 1.0


def test_erm_eta_zero_leaves_params_unchanged():
    c = cfg("erm", eta0=0.0, weight_decay=0.3)
    spec, params, batch = random_instance(0)
    out, _ = erm_step(spec, params, batch, c, t=1)
    assert np.array_equal(out.theta, params.theta)


def test_erm_two_identical_domains_doubles_gradient():
    spec, params, batch1 = random_instance(1, k=1, per_domain=6)
    batch2 = Batch(
        np.concatenate([batch1.inputs, batch1.inputs]),
        np.concatenate([batch1.labels, batch1.labels]),
        np.concatenate([np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64)]),
    )
    c = cfg("erm", eta0=0.05)
    out1, diag1 = erm_step(spec, params, batch1, c, t=1)
    out2, diag2 = erm_step(spec, params, batch2, c, t=1)
    assert diag2.grad_norm == 2.0 * diag1.grad_norm  # doubling is exact
    delta1 = out1.theta - params.theta
    delta2 = out2.theta - params.theta
    assert np.allclose(delta2, 2.0 * delta1, rtol=1e-12, atol=1e-15)


def test_erm_weight_decay_pulls_toward_zero():
    spec, params, batch = random_instance(2)
    c_plain = cfg("erm", eta0=0.1, weight_decay=0.0)
    c_decay = cfg("erm", eta0=0.1, weight_decay=1.0)
    out_plain, _ = erm_step(spec, params, batch, c_plain, t=1)
    out_decay, _ = erm_step(spec, params, batch, c_decay, t=1)
    shrink = out_plain.theta - 0.1 * params.theta
    assert np.allclose(out_decay.theta, shrink, rtol=1e-12, atol=1e-15)


# -------------------------------------------------------- sam_whole_step ----


def test_sam_whole_rho_zero_matches_erm_exactly():
    spec, params, batch = random_instance(3)
    c_sam = cfg("sam_whole", rho=0.0, weight_decay=1e-3)
    c_erm = cfg("erm", rho=0.0, weight_decay=1e-3)
    out_sam, _ = sam_whole_step(spec, params, batch, c_sam, t=1)
    out_erm, _ = erm_step(spec, params, batch, c_erm, t=1)
    assert np.array_equal(out_sam.theta, out_erm.theta)


def test_sam_whole_scalar_quadratic_example():
    params, diag = sam_whole_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(1), cfg("sam_whole"), t=1)
    assert abs(params.theta[0] - 0.89) <= 1e-15
    assert diag.surrogate_gap >= 0.0
    assert abs(diag.surrogate_gap - (0.5 * 1.1**2 - 0.5)) <= 1e-15


def test_sam_whole_gap_nonnegative_on_convex_quadratic():
    for theta0 in (-2.0, 0.5, 3.0):
        _, diag = sam_whole_step(ScalarQuadratic(), scalar_params(theta0), k_domain_batch(2), cfg("sam_whole", rho=0.2), t=1)
        assert diag.surrogate_gap >= 0.0


# ------------------------------------------------------- sam_domain_step ----


def test_sam_domain_single_domain_collapses_to_sam_whole():
    spec, params, batch = random_instance(4, k=1, per_domain=10)
    out_d, diag_d = sam_domain_step(spec, params, batch, cfg("sam_domain"), t=1)
    out_w, diag_w = sam_whole_step(spec, params, batch, cfg("sam_whole"), t=1)
    assert np.array_equal(out_d.theta, out_w.theta)
    assert diag_d.surrogate_gap == pytest.approx(diag_w.surrogate_gap, abs=1e-15)


def test_sam_domain_rho_zero_descends_mean_of_domain_gradients():
    spec, params, batch = random_instance(5, k=3)
    c = cfg("sam_domain", rho=0.0, eta0=0.2, weight_decay=0.01)
    out, _ = sam_domain_step(spec, params, batch, c, t=1)
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
    out, diag = sam_domain_step(MirrorLinear(), params, mirror_batch(), cfg("sam_domain", rho=0.3), t=1)
    assert out.theta[0] == 1.0
    assert diag.adv_grad_norms == (1.0, 1.0)
    assert diag.grad_norm == 0.0  # summed gradient cancels exactly


def test_sam_domain_missing_domain_rejected():
    spec, params, batch = random_instance(6, k=2)
    with pytest.raises(ValueError):
        sam_domain_step(spec, params, batch, cfg("sam_domain"), t=1, n_domains=3)


# ----------------------------------------------------------- gac_fas_step ----


def test_gac_scalar_oracle_two_identical_domains():
    """k=2 quadratic domains, theta=1, rho=0.1, gamma=0.05, eta=0.1:
    g_i=1, g=2, eps_i=0.1, theta_adv=1+0.1-0.05*2=1, gp_i=2, so the update
    is -0.1*(2 + (2+2)/2) = -0.4 and theta' = 0.6."""
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05)
    params, diag = gac_fas_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(2), c, t=1)
    assert abs(params.theta[0] - 0.6) <= 1e-12
    assert diag.alignment_cos == (1.0, 1.0)
    assert diag.adv_grad_norms == (2.0, 2.0)


def test_gac_reduction_identity_is_bit_exact():
    """rho=0, gamma=0, lambda=0: every perturbed gradient equals g, so the
    step is ERM with a doubled gradient, bit-identical to ERM at 2*eta."""
    for seed in range(100):
        spec, params, batch = random_instance(700 + seed, k=(seed % 3) + 1, per_domain=4)
        eta = 0.01 + 0.001 * (seed % 7)
        out_gac, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=0.0, gamma=0.0), t=1)
        out_erm, _ = erm_step(spec, params, batch, cfg("erm", eta0=2.0 * eta), t=1)
        assert np.array_equal(out_gac.theta, out_erm.theta)


def test_gac_single_domain_matches_straight_line_reference():
    """k=1, gamma=0: independently recompute
    theta - eta*(g + grad L(theta + rho*g/||g||; B) + r)."""
    for seed in range(10):
        spec, params, batch = random_instance(800 + seed, k=1, per_domain=8)
        c = cfg("gac_fas", eta0=0.05, rho=0.1, gamma=0.0, weight_decay=1e-3)
        out, _ = gac_fas_step(spec, params, batch, c, t=1)
        _, g = batch_loss_and_grad(spec, params.theta, batch)
        theta_adv = params.theta + g * (0.1 / np.linalg.norm(g))
        _, gp = batch_loss_and_grad(spec, theta_adv, batch)
        want = params.theta - 0.05 * (g + gp + 1e-3 * params.theta)
        assert np.allclose(out.theta, want, rtol=1e-12, atol=1e-15)


def test_gac_gamma_offset_moves_ascending_point():
    spec, params, batch = random_instance(9, k=2)
    out_zero, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", gamma=0.0), t=1)
    out_gamma, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", gamma=0.05), t=1)
    assert not np.array_equal(out_zero.theta, out_gamma.theta)


def test_gac_missing_domain_rejected():
    spec, params, batch = random_instance(10, k=2)
    with pytest.raises(ValueError):
        gac_fas_step(spec, params, batch, cfg(), t=1, n_domains=4)


def test_gac_schedules_apply_to_eta_rho_gamma_together():
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05, schedule=Schedule(kind="theorem1"))
    params, _ = gac_fas_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(2), c, t=4)
    # hand recomputation at t=4: eta=rho=0.05, gamma=0.025
    # g=2, eps=0.05, theta_adv=1+0.05-0.05=1, gp=2, update=-0.05*4=-0.2
    assert abs(params.theta[0] - 0.8) <= 1e-12


# ------------------------------------------------ reg_domain_perturb_step ----


def test_reg_single_domain_identical_to_gac():
    spec, params, batch = random_instance(11, k=1, per_domain=10)
    c_args = dict(eta0=0.05, rho=0.1, gamma=0.01, weight_decay=1e-3)
    out_reg, _ = reg_domain_perturb_step(spec, params, batch, cfg("reg_domain_perturb", **c_args), t=1)
    out_gac, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", **c_args), t=1)
    assert np.array_equal(out_reg.theta, out_gac.theta)


def test_reg_identical_domains_matches_gac():
    spec, params, batch1 = random_instance(12, k=1, per_domain=6)
    batch2 = Batch(
        np.concatenate([batch1.inputs, batch1.inputs]),
        np.concatenate([batch1.labels, batch1.labels]),
        np.concatenate([np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64)]),
    )
    c_args = dict(eta0=0.05, rho=0.1, gamma=0.01)
    out_reg, _ = reg_domain_perturb_step(spec, params, batch2, cfg("reg_domain_perturb", **c_args), t=1)
    out_gac, _ = gac_fas_step(spec, params, batch2, cfg("gac_fas", **c_args), t=1)
    assert np.allclose(out_reg.theta, out_gac.theta, rtol=1e-12, atol=1e-15)


def test_reg_asymmetric_domains_differ_from_gac():
    spec, params, batch = random_instance(13, k=2, per_domain=8)
    out_reg, _ = reg_domain_perturb_step(spec, params, batch, cfg("reg_domain_perturb"), t=1)
    out_gac, _ = gac_fas_step(spec, params, batch, cfg("gac_fas"), t=1)
    dir_reg = out_reg.theta - params.theta
    dir_gac = out_gac.theta - params.theta
    assert np.linalg.norm(dir_reg - dir_gac) > 1e-8


# ------------------------------------------------------------ whole family ----


def test_take_step_dispatches_every_mode():
    spec, params, batch = random_instance(14, k=2)
    for mode in MODES:
        out, diag = take_step(spec, params, batch, cfg(mode), t=1, n_domains=2)
        assert out.theta.shape == params.theta.shape
        assert diag.step_index == 1 and diag.domain_ids == (0, 1)


def test_step_functions_never_mutate_input_params():
    spec, params, batch = random_instance(15, k=2)
    before = params.theta.copy()
    for mode in MODES:
        take_step(spec, params, batch, cfg(mode, weight_decay=1e-3), t=3, n_domains=2)
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
    _, diag = gac_fas_step(spec, params, batch, cfg(), t=1)
    assert sum(diag.per_domain_loss) == pytest.approx(diag.loss_erm, rel=1e-12)
    assert diag.loss_erm == pytest.approx(batch_loss(spec, params.theta, batch), rel=1e-12)


def test_taylor_first_order_error_shrinks_quadratically():
    """Moving the ascending point by -gamma*g changes the perturbed loss by
    -gamma*<grad L_p, g> to first order; halving gamma must shrink the
    remainder at least 3x (it is ~4x for a smooth model)."""
    from gacfas.optim import _domain_terms

    gammas = (1e-2, 5e-3, 2.5e-3)
    for seed in range(10):
        spec, params, batch = random_instance(900 + seed, sizes=(2, 8, 2), k=3, per_domain=6)
        theta = params.theta
        terms = _domain_terms(spec, theta, batch)
        _, g = batch_loss_and_grad(spec, theta, batch)
        i = seed % 3
        asc = ascending_vector(terms[i][2], 0.1)

        def phi(gamma):
            return batch_loss(spec, theta + asc.eps - gamma * g, batch)

        _, gp = batch_loss_and_grad(spec, theta + asc.eps, batch)
        ip = float(np.dot(gp, g))
        phi0 = phi(0.0)
        errs = [abs(phi(gm) - (phi0 - gm * ip)) for gm in gammas]
        assert errs[0] > 0 and errs[1] > 0
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0


# -------------------------------------------------------- stacked kernel ----


def balanced(batch: Batch, per_domain: int) -> Batch:
    """The same rows, marked with the balanced sampler's layout."""
    return Batch(batch.inputs, batch.labels, batch.domain_ids, per_domain=per_domain)


def count_kernel_calls(monkeypatch) -> list:
    """Record the inputs shape of every MLP kernel call the optimizers make."""
    shapes = []
    real = model_mod.mean_loss_and_grad

    def counting(spec, theta, inputs, labels):
        shapes.append(np.shape(inputs))
        return real(spec, theta, inputs, labels)

    monkeypatch.setattr(model_mod, "mean_loss_and_grad", counting)
    return shapes


class CountingQuadratic(ScalarQuadratic):
    def __init__(self):
        self.calls = 0

    def loss_and_grad(self, theta, inputs, labels):
        self.calls += 1
        return super().loss_and_grad(theta, inputs, labels)


@pytest.mark.parametrize("mode", MODES)
def test_stacked_and_looped_steps_are_bitwise_equal(mode):
    c = cfg(mode, rho=0.1, gamma=0.01, weight_decay=1e-3)
    for seed in range(20):
        k = (seed % 3) + 1
        spec, params, batch = random_instance(1000 + seed, sizes=(2, 6, 5, 2), k=k, per_domain=6)
        out_loop, diag_loop = take_step(spec, params, batch, c, t=3)
        out_stacked, diag_stacked = take_step(spec, params, balanced(batch, 6), c, t=3)
        assert np.array_equal(out_loop.theta, out_stacked.theta)
        assert diag_loop == diag_stacked


def test_gac_reduction_identity_is_bit_exact_on_stacked_batches():
    for seed in range(50):
        spec, params, batch = random_instance(700 + seed, k=(seed % 3) + 1, per_domain=4)
        batch = balanced(batch, 4)
        eta = 0.01 + 0.001 * (seed % 7)
        out_gac, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=0.0, gamma=0.0), t=1)
        out_erm, _ = erm_step(spec, params, batch, cfg("erm", eta0=2.0 * eta), t=1)
        assert np.array_equal(out_gac.theta, out_erm.theta)


@pytest.mark.parametrize(
    "mode,calls", [("erm", 1), ("sam_whole", 2), ("sam_domain", 2), ("gac_fas", 2), ("reg_domain_perturb", 2)]
)
def test_balanced_mlp_step_makes_stacked_kernel_calls(monkeypatch, mode, calls):
    spec, params, batch = random_instance(5, sizes=(2, 16, 16, 2), k=3, per_domain=32)
    shapes = count_kernel_calls(monkeypatch)
    take_step(spec, params, balanced(batch, 32), cfg(mode), t=1, n_domains=3)
    assert shapes == [(3, 32, 2)] * calls


def test_unequal_domain_batch_takes_the_loop_with_unchanged_results(monkeypatch):
    """Domains of 3 and 5 rows: k + k^2 = 6 per-pair calls, and the step
    equals a straight-line recomputation of the rule bit for bit."""
    spec, params, batch = random_instance(11, sizes=(2, 6, 2), k=1, per_domain=8)
    batch = Batch(batch.inputs, batch.labels, np.array([0, 0, 0, 1, 1, 1, 1, 1]))
    parts = [(batch.inputs[:3], batch.labels[:3]), (batch.inputs[3:], batch.labels[3:])]
    eta, rho, gamma, wd = 0.05, 0.1, 0.01, 1e-3
    shapes = count_kernel_calls(monkeypatch)
    out, _ = gac_fas_step(spec, params, batch, cfg("gac_fas", eta0=eta, rho=rho, gamma=gamma, weight_decay=wd), t=1)
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
        deviations += whole_grad(axpy(1.0, ascending_vector(g_i, rho).eps, offset)) - g
    want = axpy(-eta, (g + axpy(0.5, deviations, g)) + theta * wd, theta)
    assert np.array_equal(out.theta, want)


def test_oracle_models_take_the_loop_on_balanced_batches():
    model = CountingQuadratic()
    c = cfg("gac_fas", eta0=0.1, rho=0.1, gamma=0.05)
    params, _ = gac_fas_step(model, scalar_params(1.0), balanced(k_domain_batch(2), 2), c, t=1)
    assert model.calls == 2 + 4
    assert abs(params.theta[0] - 0.6) <= 1e-12
    mirror = mirror_batch()
    for mode in ("sam_domain", "gac_fas"):
        c = cfg(mode, eta0=0.1, rho=0.1)
        out_loop, diag_loop = take_step(MirrorLinear(), scalar_params(0.5), mirror, c, t=1)
        out_marked, diag_marked = take_step(MirrorLinear(), scalar_params(0.5), balanced(mirror, 2), c, t=1)
        assert np.array_equal(out_loop.theta, out_marked.theta) and diag_loop == diag_marked


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
    gac_fas_step(spec, params, balanced(batch, 2000), cfg("gac_fas"), t=1, n_domains=3)
    assert shapes == [(3, 2000, 2)] * 2


@pytest.mark.parametrize("mode", MODES)
def test_alignment_cos_is_nan_when_the_gradients_are(mode):
    """A diverged iterate reports NaN alignment, not a clamped -1.0."""
    spec, params, batch = random_instance(17, k=2)
    theta = params.theta.copy()
    theta[0] = math.nan
    _, diag = take_step(spec, model_mod.ParamVector(theta, params.layout), balanced(batch, 5), cfg(mode), t=1)
    assert all(math.isnan(c) for c in diag.alignment_cos)
