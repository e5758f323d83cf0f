"""Synthetic domain generation: two-moons geometry, rigid shifts, source
sets, the leave-one-out split, and the balanced sampler."""

import math

import numpy as np
import pytest

from gacfas.datagen import (
    TEST_SEED_OFFSET,
    DomainSpec,
    SourceSet,
    build_source_set,
    gen_two_moons,
    leave_one_out,
    sample_minibatch,
    shift_domain,
)
from gacfas.model import Batch
from gacfas.numerics import Prng
from gacfas.optim import _block_size

from helpers import arc_distance, reference_sample_minibatch


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        DomainSpec(n_samples=1)
    with pytest.raises(ValueError):
        DomainSpec(translation=(1.0, 2.0, 3.0))


def test_domain_spec_refuses_a_negative_seed_by_name():
    # Built in code, past the config reader's check: numpy's own refusal
    # would name neither the seed nor the domain.
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -5"):
        DomainSpec(seed=-5)


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"noise_sigma": math.nan}, "noise_sigma must be finite and >= 0, got nan"),
        ({"noise_sigma": math.inf}, "noise_sigma must be finite and >= 0, got inf"),
        ({"noise_sigma": -0.1}, "noise_sigma must be finite and >= 0, got -0.1"),
        ({"rotation": math.inf}, "rotation must be finite, got inf"),
        ({"rotation": -math.nan}, "rotation must be finite, got nan"),
        ({"translation": (math.nan, 0)}, r"translation must be finite, got \(nan, 0.0\)"),
        ({"translation": (0.0, -math.inf)}, r"translation must be finite, got \(0.0, -inf\)"),
    ],
)
def test_domain_spec_refuses_a_non_finite_shift_or_noise_by_name(fields, named):
    # Built in code, past the config reader's check: a NaN noise_sigma used to
    # train on a noise-free domain, and the others failed without a name.
    with pytest.raises(ValueError, match=named):
        DomainSpec(**fields)


def test_two_moons_noiseless_class0_on_unit_circle():
    batch = gen_two_moons(400, 0.0, Prng(0, 0))
    class0 = batch.inputs[batch.labels == 0]
    radii = np.hypot(class0[:, 0], class0[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-12


def test_two_moons_class_counts_near_balanced():
    for n in (5, 6, 401):
        batch = gen_two_moons(n, 0.1, Prng(1, 0))
        n0 = int(np.sum(batch.labels == 0))
        n1 = int(np.sum(batch.labels == 1))
        assert n0 + n1 == n and abs(n0 - n1) <= 1
    with pytest.raises(ValueError):
        gen_two_moons(1, 0.0, Prng(0, 0))


def test_two_moons_noise_arc_distance_matches_resampled_oracle():
    sigma, n = 0.1, 10_000
    sample = gen_two_moons(n, sigma, Prng(7, 0))
    observed = arc_distance(sample.inputs[sample.labels == 0]).mean()
    # Monte Carlo oracle: same process, independently seeded realizations
    oracle_vals = []
    for seed in (1001, 1002, 1003):
        ref = gen_two_moons(n, sigma, Prng(seed, 0))
        oracle_vals.append(arc_distance(ref.inputs[ref.labels == 0]).mean())
    oracle = float(np.mean(oracle_vals))
    assert abs(observed - oracle) <= 0.05 * oracle


def test_shift_identity_and_involution_and_isometry():
    base = gen_two_moons(50, 0.05, Prng(2, 0))
    same = shift_domain(base, DomainSpec(rotation=0.0, translation=(0.0, 0.0)))
    assert np.array_equal(same.inputs, base.inputs)

    spun = shift_domain(shift_domain(base, DomainSpec(rotation=math.pi)), DomainSpec(rotation=math.pi))
    assert np.max(np.abs(spun.inputs - base.inputs)) <= 1e-12

    rot = shift_domain(base, DomainSpec(rotation=0.7, translation=(3.0, -1.0)))
    d_before = np.linalg.norm(base.inputs[:10, None, :] - base.inputs[None, :10, :], axis=-1)
    d_after = np.linalg.norm(rot.inputs[:10, None, :] - rot.inputs[None, :10, :], axis=-1)
    assert np.max(np.abs(d_before - d_after)) <= 1e-12


def test_shift_preserves_labels_and_sets_domain_ids():
    base = gen_two_moons(20, 0.0, Prng(3, 0))
    out = shift_domain(base, DomainSpec(rotation=1.0), domain_index=5)
    assert np.array_equal(out.labels, base.labels)
    assert np.all(out.domain_ids == 5)


def test_build_source_set_single_and_seed_sensitivity():
    single = build_source_set([DomainSpec(n_samples=10, seed=0)])
    assert len(single.domains) == 1
    a = build_source_set([DomainSpec(n_samples=40, seed=0), DomainSpec(n_samples=40, seed=1)])
    assert not np.array_equal(a.domains[0].inputs, a.domains[1].inputs)
    b = build_source_set([DomainSpec(n_samples=40, seed=0), DomainSpec(n_samples=40, seed=1)])
    for ba, bb in zip(a.domains, b.domains):
        assert np.array_equal(ba.inputs, bb.inputs)


def test_rotated_domains_have_rotated_class_means():
    degs = (0.0, 15.0, 30.0)
    specs = [
        DomainSpec(rotation=math.radians(d), noise_sigma=0.1, n_samples=4000, seed=i)
        for i, d in enumerate(degs)
    ]
    source = build_source_set(specs)
    base_mean = None
    for spec, batch in zip(specs, source.domains):
        class0 = batch.inputs[batch.labels == 0]
        mean = class0.mean(axis=0)
        c, s = math.cos(-spec.rotation), math.sin(-spec.rotation)
        unrotated = np.array([c * mean[0] - s * mean[1], s * mean[0] + c * mean[1]])
        if base_mean is None:
            base_mean = unrotated
        else:
            assert np.max(np.abs(unrotated - base_mean)) <= 0.05  # sampling noise only
    # and the rotations genuinely moved the raw means
    m0 = source.domains[0].inputs[source.domains[0].labels == 0].mean(axis=0)
    m2 = source.domains[2].inputs[source.domains[2].labels == 0].mean(axis=0)
    assert np.linalg.norm(m0 - m2) > 0.1


def test_source_set_rejects_mixed_ids_and_bad_k():
    base = gen_two_moons(4, 0.0, Prng(0, 0))
    mixed = Batch(base.inputs, base.labels, np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="mixes domain ids"):
        SourceSet((mixed,))
    # k is the number of domains, so the one k to refuse is 0.
    with pytest.raises(ValueError, match="at least one realized domain"):
        SourceSet(())


@pytest.mark.parametrize("indices", [(0.5, 1.7), (True, 1), ("0", 1)])
def test_build_source_set_refuses_a_domain_index_that_is_not_an_int_by_name(indices):
    specs = [DomainSpec(n_samples=4, seed=0), DomainSpec(n_samples=4, seed=1)]
    with pytest.raises(ValueError, match=f"domain index must be an integer, got {indices[0]!r}"):
        build_source_set(specs, indices=indices)


@pytest.mark.parametrize("index", [1.7, True])
def test_shift_domain_refuses_a_domain_index_that_is_not_an_int_by_name(index):
    with pytest.raises(ValueError, match=f"^domain index must be an integer, got {index!r}$"):
        shift_domain(gen_two_moons(4, 0.0, Prng(0)), DomainSpec(), index)


@pytest.mark.parametrize("held", [True, 1.5])
def test_leave_one_out_refuses_a_held_out_index_that_is_not_an_int_by_name(held):
    specs = [DomainSpec(n_samples=4, seed=i) for i in range(3)]
    with pytest.raises(ValueError, match=f"^held-out index must be an integer, got {held!r}$"):
        leave_one_out(specs, held)


def test_source_set_refuses_two_domains_with_one_id():
    specs = [DomainSpec(n_samples=4, seed=0), DomainSpec(n_samples=4, seed=1)]
    with pytest.raises(ValueError, match=r"distinct ids, got \[1, 1\] \(repeated: \[1\]\)"):
        build_source_set(specs, indices=(1, 1))
    realized = build_source_set(specs + [DomainSpec(n_samples=4, seed=2)]).domains
    with pytest.raises(ValueError, match=r"distinct ids, got \[0, 1, 2, 0\] \(repeated: \[0\]\)"):
        SourceSet(realized + realized[:1])


def test_leave_one_out_partition_and_disjoint_samples():
    specs = [DomainSpec(rotation=0.1 * i, noise_sigma=0.05, n_samples=60, seed=i) for i in range(4)]
    train, test = leave_one_out(specs, held=3)
    train_ids = tuple(int(b.domain_ids[0]) for b in train.domains)
    assert train_ids == (0, 1, 2)
    assert np.all(test.domain_ids == 3)
    # train-domain ids and the held-out id are disjoint
    assert 3 not in train_ids
    # exhaustive membership scan: no test row appears in any train domain
    train_rows = {row.tobytes() for b in train.domains for row in b.inputs}
    assert all(row.tobytes() not in train_rows for row in test.inputs)
    # the held-out test realization differs from its training realization
    full = build_source_set(specs)
    assert not np.array_equal(full.domains[3].inputs, test.inputs)
    assert TEST_SEED_OFFSET >= 1_000_000


def test_leave_one_out_validation():
    specs = [DomainSpec(n_samples=10, seed=i) for i in range(2)]
    with pytest.raises(ValueError):
        leave_one_out(specs, held=2)
    with pytest.raises(ValueError):
        leave_one_out(specs[:1], held=0)


def test_sample_minibatch_balanced_and_within_domain():
    specs = [DomainSpec(rotation=0.2 * i, n_samples=30, seed=i) for i in range(3)]
    source = build_source_set(specs)
    batch = sample_minibatch(source, 4, Prng(0, 1))
    assert batch.n == 12
    ids, counts = np.unique(batch.domain_ids, return_counts=True)
    assert ids.tolist() == [0, 1, 2] and counts.tolist() == [4, 4, 4]
    # ascending domain order in the concatenation
    assert np.all(np.diff(batch.domain_ids) >= 0)
    with pytest.raises(ValueError):
        sample_minibatch(source, 31, Prng(0, 1))
    with pytest.raises(ValueError):
        sample_minibatch(source, 0, Prng(0, 1))


def test_sample_minibatch_full_domain_is_complete_pass():
    specs = [DomainSpec(n_samples=8, seed=5)]
    source = build_source_set(specs)
    batch = sample_minibatch(source, 8, Prng(1, 1))
    want = {row.tobytes() for row in source.domains[0].inputs}
    got = {row.tobytes() for row in batch.inputs}
    assert got == want  # without replacement: a full pass visits every sample


def test_sample_minibatch_no_replacement_within_draw():
    specs = [DomainSpec(n_samples=20, seed=2)]
    source = build_source_set(specs)
    for trial in range(50):
        batch = sample_minibatch(source, 10, Prng(trial, 1))
        rows = [row.tobytes() for row in batch.inputs]
        assert len(set(rows)) == len(rows)


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + repr(array.shape).encode() + array.tobytes()


@pytest.mark.parametrize("order", ["ascending", "descending", "mixed"])
@pytest.mark.parametrize("per_domain", [1, 3, 7])
def test_sampler_matches_the_per_domain_fancy_index_reference(order, per_domain):
    """Unequal domain sizes (7, 12, 30); 7 is the smallest domain, so one
    case draws every row of it. Five draws in a row from one stream each
    give the reference's batch bit for bit, and the stream ends where the
    reference leaves it."""
    specs = [DomainSpec(rotation=0.4 * i, noise_sigma=0.1, n_samples=n, seed=i) for i, n in enumerate((7, 12, 30))]
    realized = build_source_set(specs).domains
    positions = {"ascending": (0, 1, 2), "descending": (2, 1, 0), "mixed": (1, 2, 0)}[order]
    source = SourceSet(tuple(realized[i] for i in positions))
    ours, theirs = Prng(11, 1), Prng(11, 1)
    for _ in range(5):
        got = sample_minibatch(source, per_domain, ours)
        want = reference_sample_minibatch(source, per_domain, theirs)
        assert _bits(got.inputs) == _bits(want.inputs)
        assert _bits(got.labels) == _bits(want.labels)
        assert _bits(got.domain_ids) == _bits(want.domain_ids)
        # The optimizers stack the parts of a batch laid out in ascending blocks.
        assert _block_size(got.domain_ids) == (per_domain if order == "ascending" else 0)
    assert ours.generator.integers(0, 2**62) == theirs.generator.integers(0, 2**62)


def test_source_set_holds_one_read_only_stack_of_its_rows():
    source = build_source_set([DomainSpec(n_samples=5, seed=i) for i in range(2)])
    rows = source.concatenated()
    assert source.concatenated() is rows
    assert rows.domain_ids.tolist() == [0] * 5 + [1] * 5
    with pytest.raises(ValueError):
        rows.inputs[0, 0] = 1.0
    for batch, start in zip(source.domains, (0, 5)):
        assert batch.inputs.base is rows.inputs and np.array_equal(batch.inputs, rows.inputs[start : start + 5])


def test_sampler_frequencies_within_three_sigma_of_uniform():
    specs = [DomainSpec(n_samples=20, seed=0), DomainSpec(n_samples=20, seed=1)]
    source = build_source_set(specs)
    draws, per_domain = 10_000, 5
    counts = np.zeros((2, 20))
    prng = Prng(321, 1)
    lookup = [
        {row.tobytes(): i for i, row in enumerate(b.inputs)} for b in source.domains
    ]
    for _ in range(draws):
        batch = sample_minibatch(source, per_domain, prng)
        for row, dom in zip(batch.inputs, batch.domain_ids):
            counts[int(dom), lookup[int(dom)][row.tobytes()]] += 1
    p = per_domain / 20
    expected = draws * p
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.max(np.abs(counts - expected)) <= 3 * sigma

