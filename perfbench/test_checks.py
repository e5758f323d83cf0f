"""The benchmark's output checks pass on real CLI output and fail on corrupted
copies of it, one corruption per check.

    python3 -m pytest perfbench -q

Each workload runs once, shortened, through gacfas.cli.main; every test
corrupts its own copy of that output.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import shutil
import struct
import sys

import numpy as np
import pytest

import checks
import run
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from gacfas import cli  # noqa: E402

SEED = 3


def _run(workload, out, **fields):
    """Run the workload's first CLI call with config fields overridden."""
    call = workloads.calls_for(workload, SEED, str(out))[0]
    call = dataclasses.replace(call, config={**call.config, **fields})
    out.mkdir()
    argv = workloads.write_config(call, str(out / "config.json"))
    assert cli.main(argv) == 0
    return call


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    return {
        "train_gac_fas": (_run("train_gac_fas", base / "train", steps=600, eval_every=300), base / "train"),
        "loo_baselines": (_run("loo_baselines", base / "loo"), base / "loo"),
        "convergence_fullset": (_run("convergence_fullset", base / "conv", steps=400, eval_every=400), base / "conv"),
    }


@pytest.fixture
def copy_of(runs, tmp_path):
    """(call, output root) of a fresh copy of a workload's run output."""

    def copy(workload):
        call, src = runs[workload]
        dst = tmp_path / workload
        shutil.copytree(src, dst)
        moved = lambda path: str(dst / os.path.relpath(path, src))  # noqa: E731
        config = {**call.config, "output_dir": moved(call.config["output_dir"])}
        cells = tuple((moved(d), held, seed) for d, held, seed in call.cells)
        return dataclasses.replace(call, config=config, cells=cells), dst

    return copy


def fails(workload, call, pattern):
    """The benchmark's checks of the call report an error matching pattern."""
    errors = run.check_call(checks.Checker(), workload, call)
    assert any(re.search(pattern, err) for err in errors), errors


def edit_csv(path, row, column, fn):
    """Replace one cell of a CSV (row 0 is the first data row; -1 the last)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    col = header.index(column)
    body[row][col] = repr(fn(float(body[row][col])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r) for r in body]) + "\n")


def last_digit(x):
    return float(np.nextafter(x, math.inf))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_real_output_passes(copy_of, workload):
    call, _ = copy_of(workload)
    assert run.check_call(checks.Checker(), workload, call) == []


def test_auc_changed_in_last_digit_fails(copy_of):
    call, _ = copy_of("train_gac_fas")
    edit_csv(os.path.join(call.cells[0][0], "metrics.csv"), -1, "auc", last_digit)
    fails("train_gac_fas", call, "final auc")


def test_train_loss_off_by_1e9_fails(copy_of):
    call, _ = copy_of("loo_baselines")
    edit_csv(os.path.join(call.cells[5][0], "metrics.csv"), -1, "train_loss", lambda v: v * (1 + 1e-9))
    fails("loo_baselines", call, "final train_loss")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("cut", ["mid-value", "last-row"])
def test_truncated_metrics_csv_fails(copy_of, workload, cut):
    call, _ = copy_of(workload)
    path = os.path.join(call.cells[-1][0], "metrics.csv")
    with open(path, "rb") as fh:
        data = fh.read()
    end = len(data) - 9 if cut == "mid-value" else data.rindex(b"\n", 0, len(data) - 1) + 1
    with open(path, "wb") as fh:
        fh.write(data[:end])
    fails(workload, call, "metrics.csv")


def test_changed_parameter_fails(copy_of):
    call, _ = copy_of("train_gac_fas")
    path = os.path.join(call.cells[0][0], "params.bin")
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    (value,) = struct.unpack_from("<d", raw, 8 + 8 * 100)
    struct.pack_into("<d", raw, 8 + 8 * 100, value * (1 + 1e-6))
    with open(path, "wb") as fh:
        fh.write(raw)
    fails("train_gac_fas", call, "final (auc|train_loss)")


def test_auc_at_or_below_chance_fails(copy_of):
    """Negated scores with metrics.csv rewritten to match them: only the
    above-chance check is left to fail."""
    call, _ = copy_of("train_gac_fas")
    cell_dir = call.cells[0][0]
    theta, layout = checks.read_params(cell_dir)
    out_w, out_b = layout[-2], layout[-1]
    theta = theta.copy()
    for block in (out_w, out_b):
        size = math.prod(block["shape"])
        view = theta[block["offset"] : block["offset"] + size].reshape(block["shape"])
        view[...] = view[..., ::-1].copy()  # swap the two class columns
    with open(os.path.join(cell_dir, "params.bin"), "wb") as fh:
        fh.write(struct.pack("<Q", theta.shape[0]) + theta.astype("<f8").tobytes())
    test_x, test_y = checks.realize(call.config["domains"][3], 3, checks.TEST_SEED_OFFSET)
    z = checks.logits(theta, layout, test_x)
    auc = checks.auc_all_pairs(z[:, 1] - z[:, 0], test_y)
    parts = checks.Checker().training_parts(call.config["domains"], 3)
    loss = checks.summed_domain_loss(theta, layout, parts)
    metrics = os.path.join(cell_dir, "metrics.csv")
    edit_csv(metrics, -1, "auc", lambda _: auc)
    edit_csv(metrics, -1, "train_loss", lambda _: loss)
    assert auc < 0.5
    fails("train_gac_fas", call, "not above chance")


@pytest.mark.parametrize("column", ["auc", "surrogate_gap"])
def test_loo_runs_off_window_mean_fails(copy_of, column):
    call, _ = copy_of("loo_baselines")
    edit_csv(os.path.join(call.config["output_dir"], "loo_runs.csv"), 2, column, lambda v: v + 1e-6)
    fails("loo_baselines", call, "last-window mean")


@pytest.mark.parametrize("column", ["hter_mean", "auc_std", "tpr95_std"])
def test_loo_summary_off_runs_fails(copy_of, column):
    call, _ = copy_of("loo_baselines")
    edit_csv(os.path.join(call.config["output_dir"], "loo_summary.csv"), 1, column, lambda v: v * (1 + 1e-9) + 1e-9)
    fails("loo_baselines", call, "recomputed")


def test_wrong_grad_norm_fails(copy_of):
    call, _ = copy_of("convergence_fullset")
    edit_csv(os.path.join(call.cells[0][0], "diagnostics.csv"), -1, "grad_norm", lambda v: v * (1 + 1e-4))
    fails("convergence_fullset", call, "central differences")


@pytest.mark.parametrize("column", ["bound", "grad_sq_mean", "adv_grad_sq_mean"])
def test_convergence_csv_off_recomputation_fails(copy_of, column):
    call, root = copy_of("convergence_fullset")
    edit_csv(os.path.join(root, "convergence.csv"), 0, column, lambda v: v * (1 + 1e-9))
    fails("convergence_fullset", call, f"{column} .* recomputed")
