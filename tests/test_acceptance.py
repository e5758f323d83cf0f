"""Acceptance suite: one test per shipped guarantee, in contract order.

Each test prints exactly one ``PASS Cn: ...`` / ``FAIL Cn: ...`` line
(visible with ``pytest -s``), hands it to conftest.py, which prints every
such line again at the end of the run, and then asserts. Experiment-scale criteria
(C7-C10) use frozen configurations; all randomness is seeded, so reruns
reproduce the reported numbers bit-for-bit.
"""

import time

import numpy as np

from gacfas import cli, diagnostics, evalmetrics
from gacfas.datagen import DomainSpec, build_source_set
from gacfas.evalmetrics import ScoredSet
from gacfas.config import default_experiment
from gacfas.harness import (
    RUN_FILES,
    finite_difference_suite,
    run_convergence,
    run_leave_one_out,
    run_sweep,
)
from gacfas.model import MlpSpec, init_params, mean_loss_and_grad
from gacfas.numerics import Prng, gaussian, l2_norm
from gacfas.optim import (
    OptimizerConfig,
    ascending_vector,
    batch_loss,
    batch_loss_and_grad,
    take_step,
)

from conftest import CLAIM_LINES
from helpers import ScalarQuadratic, k_domain_batch, random_instance, scalar_params

_T0 = time.time()


def _report(criterion: int, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} C{criterion}: {detail}"
    print(line)
    CLAIM_LINES.append(line)
    assert passed, f"C{criterion}: {detail}"


# -------------------------------------------------------------------------
def test_c01_gradient_oracle():
    start = time.time()
    passed, worst, errors = finite_difference_suite(n_models=10, tol=1e-5, h=1e-6)
    elapsed = time.time() - start
    _report(
        1,
        passed and len(errors) == 10 and elapsed < 10.0,
        f"analytic vs central-difference gradients on 10 random MLPs, "
        f"max rel err {worst:.3e} <= 1e-5 in {elapsed:.1f}s",
    )


def test_c02_reduction_identity_bitwise():
    mismatches = 0
    for seed in range(100):
        k = (seed % 3) + 1
        spec, params, batch = random_instance(700 + seed, k=k)
        eta = 0.01 * (1 + seed % 5)
        gac = OptimizerConfig(mode="gac_fas", eta0=eta, rho=0.0, gamma=0.0, weight_decay=0.0)
        erm = OptimizerConfig(mode="erm", eta0=2.0 * eta, rho=0.0, gamma=0.0, weight_decay=0.0)
        theta_gac = take_step(spec, params, batch, gac, t=1)[0].theta
        theta_erm = take_step(spec, params, batch, erm, t=1)[0].theta
        if not np.array_equal(theta_gac, theta_erm):
            mismatches += 1
    _report(
        2,
        mismatches == 0,
        f"rho=0, gamma=0, lambda=0 step bit-identical to ERM at doubled "
        f"learning rate on 100/100 random instances ({mismatches} mismatches)",
    )


def test_c03_ascending_vector_contract():
    rhos = (0.005, 0.05, 0.1, 0.2, 0.4)
    worst = 0.0
    zero_ok = True
    for i in range(1000):
        grad = gaussian(Prng(10_000 + i, 0), (i % 16) + 1)
        for rho in rhos:
            norm = l2_norm(ascending_vector(grad, rho, 1e-12))
            worst = max(worst, abs(norm - rho))
    for rho in rhos:
        tiny = np.full(4, 1e-13)  # norm 2e-13, inside the 1e-12 dead zone
        zero_ok = zero_ok and not np.any(ascending_vector(tiny, rho, 1e-12))
    _report(
        3,
        worst <= 1e-12 and zero_ok,
        f"|eps| = rho within {worst:.2e} over 1000 gradients x 5 radii; "
        f"eps = 0 for norms <= 1e-12",
    )


def test_c04_scalar_oracle_step():
    # Two quadratic domains, loss theta^2/2 each: g_i = 1, g = 2,
    # eps_i = 0.1, theta_adv = 1 + 0.1 - 0.05*2 = 1, gp_i = 2,
    # direction = 2 + 2 = 4, theta' = 1 - 0.1*4 = 0.6.
    cfg = OptimizerConfig(mode="gac_fas", eta0=0.1, rho=0.1, gamma=0.05, weight_decay=0.0)
    out, _ = take_step(ScalarQuadratic(), scalar_params(1.0), k_domain_batch(2), cfg, t=1)
    err = abs(out.theta[0] - 0.6)
    _report(4, err <= 1e-12, f"hand-computed quadratic step theta'=0.6, |err|={err:.2e} <= 1e-12")


def test_c05_taylor_consistency():
    gammas = (1e-2, 5e-3, 2.5e-3)
    worst_ratio = float("inf")
    for seed in range(10):
        spec, params, batch = random_instance(900 + seed, sizes=(2, 8, 2), k=3, per_domain=6)
        theta = params.theta
        _, g = batch_loss_and_grad(spec, theta, batch)
        rows = batch.domain_ids == seed % 3
        eps = ascending_vector(mean_loss_and_grad(spec, theta, batch.inputs[rows], batch.labels[rows])[1], 0.1, 1e-12)
        _, gp = batch_loss_and_grad(spec, theta + eps, batch)
        ip = float(np.dot(gp, g))
        phi0 = batch_loss(spec, theta + eps, batch)
        errs = [
            abs(batch_loss(spec, theta + eps - gm * g, batch) - (phi0 - gm * ip))
            for gm in gammas
        ]
        worst_ratio = min(worst_ratio, errs[0] / errs[1], errs[1] / errs[2])
    _report(
        5,
        worst_ratio >= 3.0,
        f"first-order remainder shrinks >= 3x per gamma halving on 10 instances "
        f"(worst ratio {worst_ratio:.2f})",
    )


def test_c06_alignment_decomposition():
    worst = 0.0
    for seed in range(10):
        specs = [
            DomainSpec(rotation=0.3 * i, noise_sigma=0.1, n_samples=48, seed=seed * 10 + i)
            for i in range(3)
        ]
        source = build_source_set(specs)
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
        m = diagnostics.alignment_inner_products(spec, params, source, i, OptimizerConfig(rho=rho, gamma=gamma))
        worst = max(worst, abs(float(m.sum()) - want) / max(1.0, abs(want)))
    _report(
        6,
        worst <= 1e-9,
        f"sum of domain-pair inner products equals whole-set inner product, "
        f"worst rel err {worst:.2e} <= 1e-9 on 10 instances",
    )


def test_c07_convergence_theorem_schedule(tmp_path):
    start = time.time()
    cfg = default_experiment(
        "gac_fas",
        steps=20_000,
        eval_every=20_000,
        eval_window=1,
        optimizer={"eta0": 0.3, "rho": 0.1, "gamma": 0.0002},
        output_dir=str(tmp_path),
    )
    _, trace = run_convergence(cfg, window=40, trace_every=5)
    elapsed = time.time() - start

    def decile_ratio(series):
        arr = np.asarray(series)
        d = max(1, len(arr) // 10)
        return float(arr[-d:].mean() / arr[:d].mean())

    r_grad = decile_ratio(trace.grad_sq)
    r_adv = decile_ratio(trace.adv_grad_sq)
    ok = (
        trace.exceed_frac_grad <= 0.05
        and trace.exceed_frac_adv <= 0.05
        and r_grad < 0.5
        and r_adv < 0.5
        and elapsed < 180.0
    )
    _report(
        7,
        ok,
        f"T=20000 1/sqrt(t) schedules: windows above fitted C*log(t)/sqrt(t) bound "
        f"{trace.exceed_frac_grad:.1%}/{trace.exceed_frac_adv:.1%} (<=5%), "
        f"last/first decile {r_grad:.3f}/{r_adv:.3f} (<0.5), {elapsed:.0f}s < 180s",
    )


def _csv_rows(path) -> list[dict]:
    """The rows of a CSV the harness wrote, as floats: its floats are repr,
    so each reads back bit for bit."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def test_c08_alignment_effect(tmp_path):
    # One sweep trains the 20 runs on every CPU in the affinity mask.
    cfg = default_experiment(
        "gac_fas",
        steps=4000,
        eval_every=4000,
        eval_window=1,
        per_domain_batch=64,
        held_out=3,
        diagnostics_every=1,
        seeds=tuple(range(10)),
        output_dir=str(tmp_path),
        optimizer={"eta0": 0.3},
    )
    run_sweep(cfg, [0.0002, 0.0], [0.1])

    def mean_cos(gamma: float, seed: int) -> float:
        rows = _csv_rows(tmp_path / f"sweep_g{gamma!r}_r0.1" / f"seed{seed}" / "diagnostics.csv")
        return float(np.mean([np.mean([v for k, v in row.items() if k.startswith("align_cos_")]) for row in rows]))

    diffs = [mean_cos(0.0002, seed) - mean_cos(0.0, seed) for seed in range(10)]
    mean_diff = float(np.mean(diffs))
    wins_gamma0 = sum(1 for d in diffs if d < 0)
    # One-sided sign test, n=10, alpha=0.05: gamma=0 is favored only at >= 9 wins.
    _report(
        8,
        mean_diff >= 0.0 and wins_gamma0 <= 8,
        f"training-averaged alignment cosine, gamma=2e-4 minus gamma=0, paired over "
        f"10 seeds: mean diff {mean_diff:+.6f} >= 0, gamma=0 wins {wins_gamma0}/10 (<=8)",
    )


def _c9_gaps(mode: str, out) -> list[float]:
    """The final-checkpoint surrogate gap of seeds 0-9, from a one-cell
    sweep at the mode's default gamma and rho."""
    cfg = default_experiment(
        mode,
        steps=600,
        eval_every=600,
        eval_window=1,
        held_out=3,
        seeds=tuple(range(10)),
        output_dir=str(out),
        optimizer={"eta0": 0.1},
    )
    gamma, rho = cfg.optimizer.gamma, cfg.optimizer.rho
    run_sweep(cfg, [gamma], [rho])
    return [_csv_rows(out / f"sweep_g{gamma!r}_r{rho!r}" / f"seed{s}" / "metrics.csv")[-1]["surrogate_gap"] for s in range(10)]


def test_c09_sharpness_effect(tmp_path):
    gac = _c9_gaps("gac_fas", tmp_path / "gac_fas")
    erm = _c9_gaps("erm", tmp_path / "erm")
    mean_gac, mean_erm = float(np.mean(gac)), float(np.mean(erm))
    worse = sum(1 for a, b in zip(gac, erm) if a > b)
    _report(
        9,
        mean_gac < mean_erm,
        f"final-checkpoint surrogate gap (rho=0.1), 10 seeds: "
        f"{mean_gac:.5f} (gac_fas) < {mean_erm:.5f} (erm); worse on {worse}/10 seeds",
    )


def test_c10_leave_one_out_benefit(tmp_path):
    results = {}
    for mode in ("erm", "sam_domain", "gac_fas"):
        cfg = default_experiment(
            mode,
            steps=1000,
            eval_every=100,
            eval_window=10,
            seeds=tuple(range(10)),
            optimizer={"eta0": 0.1},
            output_dir=str(tmp_path / mode),
        )
        summary, rows = run_leave_one_out(cfg)
        results[mode] = (summary, rows)
        print(f"\n  {mode}: held-out rotation vs last-window metrics (10 seeds)")
        print("  held  auc(mean+/-std)      hter(mean+/-std)     tpr95(mean+/-std)")
        for s in summary:
            print(
                f"  {s['held_out']:>4}  {s['auc_mean']:.4f}+/-{s['auc_std']:.4f}"
                f"      {s['hter_mean']:.4f}+/-{s['hter_std']:.4f}"
                f"      {s['tpr95_mean']:.4f}+/-{s['tpr95_std']:.4f}"
            )
    means = {m: float(np.mean([r["auc"] for r in results[m][1]])) for m in results}
    auc = {m: {(r["held_out"], r["seed"]): r["auc"] for r in results[m][1]} for m in results}
    pairs = sorted(auc["gac_fas"])
    assert all(sorted(auc[m]) == pairs for m in auc)
    above = {m: sum(auc["gac_fas"][key] > auc[m][key] for key in pairs) for m in ("erm", "sam_domain")}
    ok = (
        means["gac_fas"] >= means["erm"] - 0.01
        and means["gac_fas"] >= means["sam_domain"] - 0.01
    )
    _report(
        10,
        ok,
        f"non-inferiority, margin 0.01: mean held-out AUC over 4 rotations x 10 seeds, gac_fas "
        f"{means['gac_fas']:.6f} >= erm {means['erm']:.6f} - 0.01 and >= sam_domain "
        f"{means['sam_domain']:.6f} - 0.01; gac_fas above erm on {above['erm']}/{len(pairs)} and above "
        f"sam_domain on {above['sam_domain']}/{len(pairs)} (held, seed) pairs",
    )


def test_c11_metrics_unit_suite():
    auc = evalmetrics.roc_auc(ScoredSet(np.array([0.9, 0.3, 0.5, 0.1]), np.array([1, 1, 0, 0])))
    hter, tau = evalmetrics.hter_at_eer(
        ScoredSet(np.array([0.9, 0.8, 0.7, 0.75, 0.2, 0.1]), np.array([1, 1, 1, 0, 0, 0]))
    )
    tpr_highcap = evalmetrics.tpr_at_fpr(
        ScoredSet(
            np.array([0.9, 0.6, 0.4, 0.5, 0.3, 0.2, 0.05]),
            np.array([1, 1, 1, 0, 0, 0, 0]),
        ),
        fpr_cap=0.25,
    )
    tpr_lowcap = evalmetrics.tpr_at_fpr(
        ScoredSet(
            np.array([0.9, 0.6, 0.4, 0.5, 0.3, 0.2, 0.05]),
            np.array([1, 1, 1, 0, 0, 0, 0]),
        ),
        fpr_cap=0.1,
    )
    examples_ok = (
        auc == 0.75
        and hter == 1.0 / 3.0
        and tau == 0.725
        and tpr_highcap == 1.0
        and tpr_lowcap == 2.0 / 3.0
    )

    invariant_ok = True
    for i in range(500):
        prng = Prng(40_000 + i, 0)
        n = 12 + (i % 30)
        scores = np.round(gaussian(prng, n), 1)  # coarse grid forces ties
        labels = (gaussian(prng, n) > 0).astype(np.int64)
        labels[0], labels[1] = 0, 1  # guarantee both classes
        base = evalmetrics.roc_auc(ScoredSet(scores, labels))
        for transform in (lambda s: 2.0 * s + 3.0, np.exp, np.arctan, lambda s: s**3 + s):
            if evalmetrics.roc_auc(ScoredSet(transform(scores), labels)) != base:
                invariant_ok = False
    _report(
        11,
        examples_ok and invariant_ok,
        f"brute-force threshold enumerations exact (auc={auc}, hter={hter:.4f}@tau={tau}, "
        f"tpr@0.25={tpr_highcap:.4f}, tpr@0.1={tpr_lowcap:.4f}); AUC invariant under 4 "
        f"monotone transforms x 500 score sets",
    )


def test_c12_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "run"
    cfg_path.write_text(
        """{
  "model": {"layer_sizes": [2, 8, 2], "activation": "tanh"},
  "domains": [
    {"rotation": 0.0, "noise_sigma": 0.15, "n_samples": 200, "seed": 0},
    {"rotation": 0.35, "noise_sigma": 0.15, "n_samples": 200, "seed": 1},
    {"rotation": 0.7, "noise_sigma": 0.15, "n_samples": 200, "seed": 2}
  ],
  "held_out": 2,
  "optimizer": {"mode": "gac_fas", "eta0": 0.1},
  "steps": 50,
  "per_domain_batch": 16,
  "eval_every": 25,
  "eval_window": 2,
  "diagnostics_every": 5,
  "seeds": [0],
  "output_dir": "%s"
}""" % out_dir
    )
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    first = {name: (out_dir / name).read_bytes() for name in RUN_FILES.values()}
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    same = all((out_dir / name).read_bytes() == first[name] for name in first)
    _report(
        12,
        same,
        f"train run twice with identical (config, seed): {', '.join(first)} byte-identical",
    )


def test_c13_suite_runtime():
    elapsed = time.time() - _T0
    _report(13, elapsed < 600.0, f"acceptance suite wall time {elapsed:.0f}s < 600s")
