"""Synthetic multi-domain binary classification with controllable shift.

Each domain is a two-moons sample pushed through a rigid rotation and
translation, with its own noise scale and seed. The shift moves the marginal
input distribution while leaving the task itself intact, which is the
property the optimizers are supposed to exploit: same decision problem,
domain-specific presentation.

Balanced per-domain sampling is mandatory here. A step needs every
domain's gradient, so minibatches always contain exactly `per_domain` rows
from each domain, concatenated in the source set's domain order, which
build_source_set and leave_one_out make ascending. A source set's domains
hold distinct ids, so a step's domain count k is the number of ids its batch
holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Batch
from .numerics import Prng, _as_float, _as_tuple, _expect, _is_int

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
        for name in ("rotation", "noise_sigma"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        translation = tuple(_as_float(v, "translation") for v in _as_tuple(self.translation, "translation"))
        object.__setattr__(self, "translation", translation)
        _expect(_is_int(self.n_samples) and self.n_samples >= 2, "n_samples", "an integer >= 2", self.n_samples)
        _expect(_is_int(self.seed) and self.seed >= 0, "seed", "a non-negative integer", self.seed)
        if len(self.translation) != 2:
            raise ValueError(f"translation must be a 2-vector, got {self.translation}")
        # A NaN passes every comparison below and would train on a domain
        # that is not the one specified; an infinity fails far from here.
        if not math.isfinite(self.rotation):
            raise ValueError(f"rotation must be finite, got {self.rotation}")
        if not all(math.isfinite(v) for v in self.translation):
            raise ValueError(f"translation must be finite, got {self.translation}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class SourceSet:
    """Realized domain batches, each carrying its domain's index uniformly.

    The set stacks its domains' rows once, on construction, and keeps each
    domain's batch as a read-only view of its block. It also keeps what the
    sampler needs: where each domain's rows start and the smallest domain
    size."""

    domains: tuple[Batch, ...]
    _rows: Batch = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _smallest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domains:
            raise ValueError("a source set needs at least one realized domain")
        for batch in self.domains:
            if batch.domain_ids.min() != batch.domain_ids.max():
                raise ValueError(f"realized domain batch mixes domain ids {sorted(set(batch.domain_ids.tolist()))}")
        ids = [int(batch.domain_ids[0]) for batch in self.domains]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ValueError(f"a source set's domains must hold distinct ids, got {ids} (repeated: {repeated})")
        rows = Batch(
            np.concatenate([b.inputs for b in self.domains]),
            np.concatenate([b.labels for b in self.domains]),
            np.concatenate([b.domain_ids for b in self.domains]),
        )
        # Every caller shares these rows; make a stray write fail loudly.
        for array in (rows.inputs, rows.labels, rows.domain_ids):
            array.flags.writeable = False
        sizes = tuple(b.n for b in self.domains)
        starts = np.cumsum((0,) + sizes[:-1], dtype=np.int64)
        # Hold the rows once: each domain's batch becomes a view of its block.
        views = tuple(
            Batch(rows.inputs[a : a + n], rows.labels[a : a + n], rows.domain_ids[a : a + n])
            for a, n in zip(starts.tolist(), sizes)
        )
        object.__setattr__(self, "domains", views)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_starts", starts[:, None])
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_smallest", min(sizes))

    def concatenated(self) -> Batch:
        """All domains stacked into one batch, in the set's domain order (the
        same read-only batch on every call)."""
        return self._rows


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

    Labels are untouched; domain_ids are overwritten with domain_index, an int.
    """
    _expect(_is_int(domain_index), "domain index", "an integer", domain_index)
    if batch.inputs.shape[1] != 2:
        raise ValueError(f"shift_domain needs 2-D inputs, got width {batch.inputs.shape[1]}")
    c, s = math.cos(spec.rotation), math.sin(spec.rotation)
    rot = np.array([[c, -s], [s, c]], dtype=np.float64)
    shifted = batch.inputs @ rot.T + np.asarray(spec.translation, dtype=np.float64)
    ids = np.full(batch.n, domain_index, dtype=np.int64)
    return Batch(shifted, batch.labels, ids)


def _realize(spec: DomainSpec, domain_index: int, seed_offset: int = 0) -> Batch:
    prng = Prng(spec.seed + seed_offset)
    moons = gen_two_moons(spec.n_samples, spec.noise_sigma, prng)
    return shift_domain(moons, spec, domain_index)


def build_source_set(specs, indices=None) -> SourceSet:
    """Realize every domain with its own seed.

    indices assigns each domain's id, an int (shift_domain refuses any
    other); by default domains are numbered by position. leave_one_out
    passes original positions so id sets stay disjoint from the held-out
    domain.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one domain spec")
    indices = tuple(range(len(specs)) if indices is None else indices)
    if len(indices) != len(specs):
        raise ValueError("indices and specs must have equal length")
    return SourceSet(tuple(_realize(spec, idx) for spec, idx in zip(specs, indices)))


def leave_one_out(specs, held: int) -> tuple[SourceSet, Batch]:
    """Train on all domains but `held`; test on the held domain realized
    with seed + TEST_SEED_OFFSET so no sample is shared with training.

    Training domains keep their original indices, so train and test
    domain-id sets are disjoint."""
    specs = tuple(specs)
    if len(specs) < 2:
        raise ValueError("leave-one-out needs at least two domains")
    _expect(_is_int(held), "held-out index", "an integer", held)
    if not 0 <= held < len(specs):
        raise ValueError(f"held-out index {held} out of range for {len(specs)} domains")
    train_indices = [i for i in range(len(specs)) if i != held]
    train = build_source_set([specs[i] for i in train_indices], train_indices)
    test = _realize(specs[held], held, seed_offset=TEST_SEED_OFFSET)
    return train, test


def sample_minibatch(source: SourceSet, per_domain: int, prng: Prng) -> Batch:
    """Exactly per_domain rows drawn without replacement from each domain,
    concatenated in the source set's domain order (balanced sampler).

    Each domain's rows come from one Generator.choice call, in domain order.
    The draws, shifted by the row where each domain starts, index the
    source set's stacked rows, and one take per array gathers the batch."""
    if per_domain < 1:
        raise ValueError(f"per_domain must be >= 1, got {per_domain}")
    if per_domain > source._smallest:
        raise ValueError(f"per_domain={per_domain} exceeds smallest domain size {source._smallest}")
    choice = prng.generator.choice
    idx = np.concatenate([choice(n, size=per_domain, replace=False) for n in source._sizes])
    blocks = idx.reshape(len(source.domains), per_domain)
    blocks += source._starts
    rows = source._rows
    return Batch(
        rows.inputs.take(idx, axis=0),
        rows.labels.take(idx),
        rows.domain_ids.take(idx),
    )

