"""Synthetic multi-domain binary classification with controllable shift.

Each domain is a two-moons sample pushed through a rigid rotation and
translation, with its own noise scale and seed. The shift moves the marginal
input distribution while leaving the task itself intact, which is the
property the optimizers are supposed to exploit: same decision problem,
domain-specific presentation.

Balanced per-domain sampling is mandatory here. The step functions need
every domain's gradient on every step, so minibatches always contain exactly
`per_domain` rows from each domain, concatenated in ascending domain-index
order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import Batch
from .numerics import Prng

# Added to a domain's seed when realizing its held-out test split, so train
# and test draws come from disjoint streams.
TEST_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class DomainSpec:
    """Rigid-shift parameters and sampling seed for one synthetic domain."""

    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)
    noise_sigma: float = 0.0
    n_samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(float(v) for v in self.translation))
        if len(self.translation) != 2:
            raise ValueError(f"translation must be a 2-vector, got {self.translation}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2 (one per class), got {self.n_samples}")


@dataclass(frozen=True)
class SourceSet:
    """k realized domains; every batch carries its domain's index uniformly."""

    domains: tuple[tuple[DomainSpec, Batch], ...]
    k: int

    def __post_init__(self):
        if self.k != len(self.domains) or self.k < 1:
            raise ValueError(f"k={self.k} does not match {len(self.domains)} realized domains")
        for _, batch in self.domains:
            ids = np.unique(batch.domain_ids)
            if ids.shape[0] != 1:
                raise ValueError(f"realized domain batch mixes domain ids {ids}")

    def domain_indices(self) -> tuple[int, ...]:
        return tuple(int(batch.domain_ids[0]) for _, batch in self.domains)

    def concatenated(self) -> Batch:
        """All domains stacked into one batch, ascending domain-index order."""
        batches = [batch for _, batch in self.domains]
        return Batch(
            np.concatenate([b.inputs for b in batches]),
            np.concatenate([b.labels for b in batches]),
            np.concatenate([b.domain_ids for b in batches]),
        )


def gen_two_moons(n: int, sigma: float, prng: Prng) -> Batch:
    """Two interleaving arcs: ceil(n/2) class-0 points (cos t, sin t) and
    floor(n/2) class-1 points (1 - cos t, 0.5 - sin t), t ~ U[0, pi], plus
    isotropic gaussian noise of scale sigma. Domain ids start at 0."""
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = prng.generator.uniform(0.0, math.pi, n0)
    t1 = prng.generator.uniform(0.0, math.pi, n1)
    pts = np.empty((n, 2), dtype=np.float64)
    pts[:n0, 0] = np.cos(t0)
    pts[:n0, 1] = np.sin(t0)
    pts[n0:, 0] = 1.0 - np.cos(t1)
    pts[n0:, 1] = 0.5 - np.sin(t1)
    if sigma > 0:
        pts = pts + sigma * prng.generator.standard_normal((n, 2))
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Batch(pts, labels, np.zeros(n, dtype=np.int64))


def shift_domain(batch: Batch, spec: DomainSpec, domain_index: int = 0) -> Batch:
    """Rotate inputs by spec.rotation about the origin, then translate.

    Labels are untouched; domain_ids are overwritten with domain_index.
    """
    if batch.inputs.shape[1] != 2:
        raise ValueError(f"shift_domain needs 2-D inputs, got width {batch.inputs.shape[1]}")
    c, s = math.cos(spec.rotation), math.sin(spec.rotation)
    rot = np.array([[c, -s], [s, c]], dtype=np.float64)
    shifted = batch.inputs @ rot.T + np.asarray(spec.translation, dtype=np.float64)
    ids = np.full(batch.n, int(domain_index), dtype=np.int64)
    return Batch(shifted, batch.labels, ids)


def _realize(spec: DomainSpec, domain_index: int, seed_offset: int = 0) -> Batch:
    prng = Prng(spec.seed + seed_offset)
    moons = gen_two_moons(spec.n_samples, spec.noise_sigma, prng)
    return shift_domain(moons, spec, domain_index)


def build_source_set(specs, indices=None) -> SourceSet:
    """Realize every domain with its own seed.

    indices assigns each domain's id; by default domains are numbered by
    position. leave_one_out passes original positions so id sets stay
    disjoint from the held-out domain.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one domain spec")
    if indices is None:
        indices = tuple(range(len(specs)))
    else:
        indices = tuple(int(i) for i in indices)
        if len(indices) != len(specs):
            raise ValueError("indices and specs must have equal length")
    realized = tuple(
        (spec, _realize(spec, idx)) for spec, idx in zip(specs, indices)
    )
    return SourceSet(realized, len(realized))


def leave_one_out(specs, held: int) -> tuple[SourceSet, Batch]:
    """Train on all domains but `held`; test on the held domain realized
    with seed + TEST_SEED_OFFSET so no sample is shared with training.

    Training domains keep their original indices, so train and test
    domain-id sets are disjoint."""
    specs = tuple(specs)
    if len(specs) < 2:
        raise ValueError("leave-one-out needs at least two domains")
    if not 0 <= held < len(specs):
        raise ValueError(f"held-out index {held} out of range for {len(specs)} domains")
    train_specs = [s for i, s in enumerate(specs) if i != held]
    train_indices = [i for i in range(len(specs)) if i != held]
    train = build_source_set(train_specs, train_indices)
    test = _realize(specs[held], held, seed_offset=TEST_SEED_OFFSET)
    return train, test


def sample_minibatch(source: SourceSet, per_domain: int, prng: Prng) -> Batch:
    """Exactly per_domain rows drawn without replacement from each domain,
    concatenated in the source set's domain order (balanced sampler). When
    that order is strictly ascending in domain id, as leave_one_out and
    build_source_set make it, the batch records its layout as
    Batch.per_domain so the optimizers take the domain parts as views."""
    if per_domain < 1:
        raise ValueError(f"per_domain must be >= 1, got {per_domain}")
    smallest = min(batch.n for _, batch in source.domains)
    if per_domain > smallest:
        raise ValueError(f"per_domain={per_domain} exceeds smallest domain size {smallest}")
    picks = [
        (batch, prng.generator.choice(batch.n, size=per_domain, replace=False))
        for _, batch in source.domains
    ]
    return Batch(
        np.concatenate([batch.inputs[idx] for batch, idx in picks]),
        np.concatenate([batch.labels[idx] for batch, idx in picks]),
        np.concatenate([batch.domain_ids[idx] for batch, idx in picks]),
        per_domain=per_domain if _ascending(source.domain_indices()) else 0,
    )


def _ascending(ids) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))


CSV_HEADER = ["x0", "x1", "label", "domain_id"]


def dump_csv(batch: Batch, path) -> None:
    """Write `x0,x1,label,domain_id` rows with 17-significant-digit floats
    (round-trip exact)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(batch.n):
            writer.writerow(
                [
                    f"{batch.inputs[i, 0]:.17g}",
                    f"{batch.inputs[i, 1]:.17g}",
                    int(batch.labels[i]),
                    int(batch.domain_ids[i]),
                ]
            )


def load_csv(path) -> Batch:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"bad dataset header {header}, expected {CSV_HEADER}")
        inputs, labels, ids = [], [], []
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"bad dataset row {row}")
            inputs.append((float(row[0]), float(row[1])))
            labels.append(int(row[2]))
            ids.append(int(row[3]))
    if not inputs:
        raise ValueError("dataset file contains no samples")
    return Batch(np.array(inputs), np.array(labels), np.array(ids))
