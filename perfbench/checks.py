"""Output checks made apart from the program.

Nothing here imports gacfas. The domains are realized again from their
documented recipe (two-moons on a PCG64 stream, rotated, then translated),
and the checks recompute, from the files a run wrote:

- the final held-out AUC, from a numpy forward pass over params.bin laid out
  by the manifest's param_layout and an all-pairs Mann-Whitney count; it must
  equal metrics.csv exactly, since both are the same ratio of integers;
- the final training loss, as the sum over training domains of the mean
  log(1 + exp(-margin)), to a relative 1e-12;
- the leave-one-out tables: loo_runs.csv from each cell's last-window means,
  loo_summary.csv from loo_runs.csv;
- the convergence run: the last full-set grad_norm from central differences
  (relative 1e-6), the windowed means, the fitted C and the bound column.

Every failed check raises CheckError naming the file and the value.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# datagen realizes a held-out domain's test rows with this seed offset.
TEST_SEED_OFFSET = 1_000_003
REL_TOL = 1e-12
ABS_TOL = 1e-15
GRAD_NORM_REL_TOL = 1e-6
FD_STEP = 1e-5


class CheckError(Exception):
    pass


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=ABS_TOL)


def realize(domain: dict, index: int, seed_offset: int = 0):
    """Inputs and labels of one domain: ceil(n/2) class-0 points
    (cos t, sin t), floor(n/2) class-1 points (1 - cos t, 0.5 - sin t),
    t ~ U[0, pi], gaussian noise, then rotation and translation."""
    ss = np.random.SeedSequence(entropy=domain["seed"] + seed_offset, spawn_key=(0,))
    gen = np.random.Generator(np.random.PCG64(ss))
    n = domain["n_samples"]
    n0 = (n + 1) // 2
    t0 = gen.uniform(0.0, math.pi, n0)
    t1 = gen.uniform(0.0, math.pi, n - n0)
    pts = np.empty((n, 2))
    pts[:n0, 0] = np.cos(t0)
    pts[:n0, 1] = np.sin(t0)
    pts[n0:, 0] = 1.0 - np.cos(t1)
    pts[n0:, 1] = 0.5 - np.sin(t1)
    if domain["noise_sigma"] > 0:
        pts = pts + domain["noise_sigma"] * gen.standard_normal((n, 2))
    c, s = math.cos(domain["rotation"]), math.sin(domain["rotation"])
    inputs = pts @ np.array([[c, -s], [s, c]]).T + np.asarray(domain["translation"], dtype=np.float64)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n - n0, dtype=np.int64)])
    return inputs, labels


def read_params(cell_dir: str):
    """(flat theta, layout) from params.bin and the manifest's param_layout."""
    with open(os.path.join(cell_dir, "manifest.json"), encoding="utf-8") as fh:
        layout = json.load(fh)["param_layout"]
    with open(os.path.join(cell_dir, "params.bin"), "rb") as fh:
        raw = fh.read()
    count = int.from_bytes(raw[:8], "little")
    if len(raw) != 8 + 8 * count:
        raise CheckError(f"{cell_dir}/params.bin: {len(raw)} bytes for {count} values")
    theta = np.frombuffer(raw, dtype="<f8", offset=8).astype(np.float64)
    covered = sum(math.prod(b["shape"]) for b in layout)
    if covered != count:
        raise CheckError(f"{cell_dir}: param_layout covers {covered} values, params.bin holds {count}")
    return theta, layout


def _layers(theta, layout):
    views = [theta[b["offset"] : b["offset"] + math.prod(b["shape"])].reshape(b["shape"]) for b in layout]
    return list(zip(views[0::2], views[1::2]))


def logits(theta, layout, inputs):
    """tanh MLP: hidden layers tanh(h W + b), raw logits at the output."""
    layers = _layers(theta, layout)
    h = inputs
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
    w, b = layers[-1]
    return h @ w + b


def auc_all_pairs(scores, labels) -> float:
    """P(score+ > score-) + 0.5 P(score+ = score-) over every pair."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = int(np.count_nonzero(pos[:, None] > neg[None, :]))
    equal = int(np.count_nonzero(pos[:, None] == neg[None, :]))
    return (greater + 0.5 * equal) / (pos.shape[0] * neg.shape[0])


def summed_domain_loss(theta, layout, parts) -> float:
    """Sum over domains of the mean two-class cross-entropy."""
    total = 0.0
    for inputs, labels in parts:
        z = logits(theta, layout, inputs)
        rows = np.arange(labels.shape[0])
        margin = z[rows, labels] - z[rows, 1 - labels]
        total += float(np.mean(np.logaddexp(0.0, -margin)))
    return total


def central_difference_grad(theta, layout, parts, h: float = FD_STEP):
    grad = np.empty_like(theta)
    bumped = theta.copy()
    for j in range(theta.shape[0]):
        bumped[j] = theta[j] + h
        up = summed_domain_loss(bumped, layout, parts)
        bumped[j] = theta[j] - h
        down = summed_domain_loss(bumped, layout, parts)
        bumped[j] = theta[j]
        grad[j] = (up - down) / (2.0 * h)
    return grad


def read_table(path: str, n_rows: int | None = None):
    """Rows of a CSV as dicts of floats; every row must fill every column,
    and the file must end its last row (a cut-off value still parses)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
            if not text.endswith("\n"):
                raise CheckError(f"{path}: last row is cut off")
            reader = csv.reader(text.splitlines())
            header = next(reader)
            rows = []
            for line in reader:
                if len(line) != len(header):
                    raise CheckError(f"{path}: row {len(rows) + 1} has {len(line)} of {len(header)} columns")
                rows.append(dict(zip(header, map(float, line))))
    except (OSError, StopIteration, ValueError) as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from exc
    if n_rows is not None and len(rows) != n_rows:
        raise CheckError(f"{path}: {len(rows)} rows, expected {n_rows}")
    return rows


class Checker:
    """Checks the outputs of one workload seed's calls; caches the realized
    domains, which depend on the seed alone."""

    def __init__(self):
        self._data = {}

    def _domain(self, domains, index, seed_offset=0):
        key = (domains[index]["seed"], index, seed_offset)
        if key not in self._data:
            self._data[key] = realize(domains[index], index, seed_offset)
        return self._data[key]

    def training_parts(self, domains, held):
        return [self._domain(domains, i) for i in range(len(domains)) if i != held]

    def check_cell(self, cfg: dict, cell_dir: str, held: int):
        """metrics.csv of one run: one row per evaluation; its final AUC and
        training loss recomputed from params.bin; AUC above chance."""
        steps, every = cfg["steps"], cfg["eval_every"]
        path = os.path.join(cell_dir, "metrics.csv")
        rows = read_table(path, steps // every)
        for i, row in enumerate(rows):
            if row["step"] != every * (i + 1):
                raise CheckError(f"{path}: row {i + 1} is step {row['step']:g}, expected {every * (i + 1)}")
        theta, layout = read_params(cell_dir)
        domains = cfg["domains"]
        test_x, test_y = self._domain(domains, held, TEST_SEED_OFFSET)
        z = logits(theta, layout, test_x)
        auc = auc_all_pairs(z[:, 1] - z[:, 0], test_y)
        final = rows[-1]
        if final["auc"] != auc:
            raise CheckError(f"{path}: final auc {final['auc']!r}, recomputed {auc!r}")
        if not auc > 0.5:
            raise CheckError(f"{path}: final held-out auc {auc!r} is not above chance")
        loss = summed_domain_loss(theta, layout, self.training_parts(domains, held))
        if not _close(final["train_loss"], loss):
            raise CheckError(f"{path}: final train_loss {final['train_loss']!r}, recomputed {loss!r}")
        return rows

    def check_loo(self, cfg: dict, cell_rows: dict):
        """loo_runs.csv against each cell's last-window means, and
        loo_summary.csv against loo_runs.csv. cell_rows maps (held, seed) to
        the cell's metrics.csv rows."""
        out = cfg["output_dir"]
        window = cfg["eval_window"]
        runs_path = os.path.join(out, "loo_runs.csv")
        runs = read_table(runs_path, len(cell_rows))
        for run in runs:
            key = (int(run["held_out"]), int(run["seed"]))
            if key not in cell_rows:
                raise CheckError(f"{runs_path}: unexpected cell {key}")
            tail = cell_rows[key][-window:]
            for col in ("hter", "auc", "tpr95", "train_loss", "surrogate_gap"):
                want = sum(r[col] for r in tail) / window
                if not _close(run[col], want):
                    raise CheckError(f"{runs_path}: {key} {col} {run[col]!r}, last-window mean {want!r}")
        n_held = len(cfg["domains"])
        sum_path = os.path.join(out, "loo_summary.csv")
        for row in read_table(sum_path, n_held):
            held = int(row["held_out"])
            group = [r for r in runs if int(r["held_out"]) == held]
            if row["n_seeds"] != len(group) or len(group) != len(cfg["seeds"]):
                raise CheckError(f"{sum_path}: held_out {held} n_seeds {row['n_seeds']:g}, runs {len(group)}")
            for col in ("hter", "auc", "tpr95"):
                values = [r[col] for r in group]
                mean = math.fsum(values) / len(values)
                std = 0.0
                if len(values) > 1:
                    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
                if not (_close(row[f"{col}_mean"], mean) and _close(row[f"{col}_std"], std)):
                    raise CheckError(
                        f"{sum_path}: held_out {held} {col} mean/std {row[f'{col}_mean']!r}/{row[f'{col}_std']!r}, "
                        f"recomputed {mean!r}/{std!r}"
                    )

    def check_convergence(self, cfg: dict, run_dir: str, held: int, window: int, trace_every: int):
        """diagnostics.csv holds the full-set stream; its last grad_norm is at
        the final parameters. convergence.csv is that stream's windowed means
        with the bound C log(t+1)/sqrt(t), C fitted on the first quartile of
        windows.

        Whether the windowed norm falls from the first window to the last is
        not checked: at these settings it rises on some seeds within 1,000
        steps (6 of seeds 0-31), so it is no property of a correct program."""
        steps = cfg["steps"]
        diag_path = os.path.join(run_dir, "diagnostics.csv")
        diags = read_table(diag_path, steps // trace_every)
        if diags[-1]["t"] != steps:
            raise CheckError(f"{diag_path}: last row is step {diags[-1]['t']:g}, expected {steps}")
        theta, layout = read_params(run_dir)
        grad = central_difference_grad(theta, layout, self.training_parts(cfg["domains"], held))
        norm = math.sqrt(float(np.dot(grad, grad)))
        if not _close(diags[-1]["grad_norm"], norm, GRAD_NORM_REL_TOL):
            raise CheckError(f"{diag_path}: last grad_norm {diags[-1]['grad_norm']!r}, central differences {norm!r}")

        n_windows = len(diags) // window
        chunks = [diags[w * window : (w + 1) * window] for w in range(n_windows)]
        t = [c[-1]["t"] for c in chunks]
        grad_sq = [math.fsum(r["grad_norm"] ** 2 for r in c) / window for c in chunks]
        adv_sq = [math.fsum(r["adv_grad_sq_mean"] for r in c) / window for c in chunks]
        n_fit = max(1, math.ceil(n_windows / 4))

        def fit(means):
            return math.fsum(means[w] * math.sqrt(t[w]) / math.log(t[w] + 1.0) for w in range(n_fit)) / n_fit

        fitted_c = max(fit(grad_sq), fit(adv_sq))
        conv_path = os.path.join(os.path.dirname(run_dir), "convergence.csv")
        rows = read_table(conv_path, n_windows)
        for w, row in enumerate(rows):
            bound = fitted_c * math.log(t[w] + 1.0) / math.sqrt(t[w])
            want = {"t": t[w], "grad_sq_mean": grad_sq[w], "adv_grad_sq_mean": adv_sq[w], "bound": bound}
            for col, value in want.items():
                if not _close(row[col], value):
                    raise CheckError(f"{conv_path}: window {w + 1} {col} {row[col]!r}, recomputed {value!r}")
