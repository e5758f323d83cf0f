"""Threshold-metric exactness against brute-force enumeration oracles."""

import math

import numpy as np
import pytest

from gacfas.evalmetrics import ScoredSet, hter_at_eer, roc_auc, tpr_at_fpr

from helpers import (
    oracle_auc_pairs,
    oracle_auc_rank_loop,
    oracle_candidate_thresholds,
    oracle_far_frr,
    oracle_hter_at_eer,
    oracle_tpr_at_fpr,
    reference_hter_tpr,
    reference_roc_auc,
    reference_sweep,
)


def scored(pos, neg) -> ScoredSet:
    return ScoredSet(
        np.array(list(pos) + list(neg), dtype=np.float64),
        np.array([1] * len(pos) + [0] * len(neg), dtype=np.int64),
    )


def random_scored(seed: int) -> ScoredSet:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    # quantized scores so ties actually occur
    scores = np.round(rng.normal(size=n), 1)
    labels = np.zeros(n, dtype=np.int64)
    labels[: max(1, int(rng.integers(1, n)))] = 1
    rng.shuffle(labels)
    if labels.min() == labels.max():  # need both classes
        labels[0] = 1 - labels[0]
    return ScoredSet(scores, labels)


def test_scored_set_validation():
    with pytest.raises(ValueError):
        ScoredSet(np.array([0.1, 0.2]), np.array([0, 2]))
    with pytest.raises(ValueError):
        ScoredSet(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        ScoredSet(np.array([0.1]), np.array([0.1, 0.2]))
    single = ScoredSet(np.array([0.5, 0.6]), np.array([1, 1]))
    with pytest.raises(ValueError):
        roc_auc(single)
    with pytest.raises(ValueError):
        hter_at_eer(single)


def test_scored_set_refuses_labels_that_are_not_whole_numbers():
    """0.6 was truncated to 0, and the set read AUC 0.5."""
    with pytest.raises(ValueError, match=r"^labels must be whole numbers, got 0\.6$"):
        ScoredSet([0.1, 0.2, 0.3], [0.0, 1.0, 0.6])
    assert ScoredSet([0.1, 0.2, 0.3], [0.0, 1.0, 1.0]).labels.tolist() == [0, 1, 1]


def test_scored_set_rejects_non_finite_scores():
    labels = np.array([1, 0, 1, 0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ScoredSet(np.array([0.9, bad, 0.4, 0.1]), labels)
    # A diverged model scores every sample NaN; that is an error, not hter=0.
    with pytest.raises(ValueError, match="4 NaN/inf of 4"):
        ScoredSet(np.full(4, math.nan), labels)


def test_auc_perfect_separation():
    assert roc_auc(scored([0.9, 0.8], [0.2, 0.1])) == 1.0


def test_auc_all_equal_is_half():
    assert roc_auc(scored([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5


def test_auc_brute_force_example():
    assert roc_auc(scored([0.9, 0.3], [0.5, 0.1])) == 0.75


def test_auc_matches_all_pairs_oracle():
    for seed in range(100):
        s = random_scored(seed)
        pos = s.scores[s.labels == 1]
        neg = s.scores[s.labels == 0]
        assert roc_auc(s) == pytest.approx(oracle_auc_pairs(pos, neg), abs=1e-12)


def test_auc_equals_rank_loop_reference():
    for seed in range(100):
        s = random_scored(seed)
        assert roc_auc(s) == oracle_auc_rank_loop(s.scores, s.labels)


def test_metrics_match_oracles_on_untied_scores():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(40, 120))
        scores = rng.normal(size=n)
        labels = (rng.random(n) < 0.4).astype(np.int64)
        labels[0], labels[1] = 0, 1
        s = ScoredSet(scores, labels)
        pos, neg = list(scores[labels == 1]), list(scores[labels == 0])
        assert hter_at_eer(s) == oracle_hter_at_eer(pos, neg)
        assert tpr_at_fpr(s, 0.05) == oracle_tpr_at_fpr(pos, neg, 0.05)
        assert roc_auc(s) == oracle_auc_rank_loop(scores, labels)
        assert roc_auc(s) == pytest.approx(oracle_auc_pairs(pos, neg), abs=1e-12)


def test_auc_monotone_transform_invariance():
    transforms = (np.exp, lambda x: 2.0 * x + 3.0, lambda x: x**3, np.arctan)
    for seed in range(100):
        s = random_scored(seed)
        base = roc_auc(s)
        for f in transforms:
            assert roc_auc(ScoredSet(f(s.scores), s.labels)) == base


def test_auc_reversal_sums_to_one_without_ties():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 30))
        scores = rng.permutation(np.arange(n, dtype=np.float64))  # all distinct
        labels = np.zeros(n, dtype=np.int64)
        labels[: n // 2] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        s = ScoredSet(scores, labels)
        flipped = ScoredSet(-scores, labels)
        assert roc_auc(s) + roc_auc(flipped) == pytest.approx(1.0, abs=1e-12)


def test_hter_perfect_separation_zero():
    hter, tau = hter_at_eer(scored([0.9, 0.8], [0.2, 0.1]))
    assert hter == 0.0
    assert 0.2 < tau < 0.8


def test_hter_interleaved_alternating_is_half():
    # scores alternate pos/neg: no threshold separates anything; FAR ~ FRR ~ 0.5
    pos = [0.8, 0.6, 0.4, 0.2]
    neg = [0.9, 0.7, 0.5, 0.3]
    hter, tau = hter_at_eer(scored(pos, neg))
    oracle_hter, oracle_tau = oracle_hter_at_eer(pos, neg)
    assert hter == oracle_hter == 0.5
    assert tau == oracle_tau


def test_hter_brute_force_enumeration_example():
    """pos {0.9, 0.8, 0.7}, neg {0.75, 0.2, 0.1}: the exhaustive sweep over
    all 7 candidate thresholds puts the EER point at tau = 0.725 where
    FAR = FRR = 1/3, so HTER = 1/3."""
    pos, neg = [0.9, 0.8, 0.7], [0.75, 0.2, 0.1]
    assert len(oracle_candidate_thresholds(pos + neg)) == 7
    oracle_hter, oracle_tau = oracle_hter_at_eer(pos, neg)
    assert oracle_hter == 1.0 / 3.0 and oracle_tau == 0.725
    hter, tau = hter_at_eer(scored(pos, neg))
    assert hter == oracle_hter
    assert tau == oracle_tau
    far, frr = oracle_far_frr(pos, neg, tau)
    assert far == frr == 1.0 / 3.0


def test_hter_matches_oracle_and_minimizes_diff():
    for seed in range(100):
        s = random_scored(seed)
        pos = list(s.scores[s.labels == 1])
        neg = list(s.scores[s.labels == 0])
        hter, tau = hter_at_eer(s)
        o_hter, o_tau = oracle_hter_at_eer(pos, neg)
        assert hter == o_hter and tau == o_tau
        # at the returned threshold, |FAR - FRR| is the sweep minimum
        far, frr = oracle_far_frr(pos, neg, tau)
        sweep_min = min(
            abs(f - r)
            for f, r in (oracle_far_frr(pos, neg, c) for c in oracle_candidate_thresholds(pos + neg))
        )
        assert abs(far - frr) == sweep_min
        assert 0.0 <= hter <= 1.0


def test_tpr_perfect_separation_any_cap():
    s = scored([0.9, 0.8], [0.2, 0.1])
    for cap in (0.0, 0.05, 0.5, 1.0):
        assert tpr_at_fpr(s, cap) == 1.0


def test_tpr_cap_one_is_always_one():
    for seed in range(20):
        assert tpr_at_fpr(random_scored(seed), 1.0) == 1.0


def test_tpr_brute_force_enumeration_example():
    """pos {0.9, 0.6, 0.4}, neg {0.5, 0.3, 0.2, 0.05}, cap 0.25: a threshold
    between 0.3 and 0.4 admits one false positive of four (FPR = 0.25) while
    accepting every positive, so the exhaustive sweep reaches TPR = 1.0."""
    pos, neg = [0.9, 0.6, 0.4], [0.5, 0.3, 0.2, 0.05]
    oracle = oracle_tpr_at_fpr(pos, neg, 0.25)
    assert oracle == 1.0
    assert tpr_at_fpr(scored(pos, neg), 0.25) == oracle
    # with a tighter cap that excludes the 0.5 negative, only two positives clear
    assert tpr_at_fpr(scored(pos, neg), 0.1) == oracle_tpr_at_fpr(pos, neg, 0.1) == 2.0 / 3.0


def test_tpr_matches_oracle_and_monotone_in_cap():
    caps = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)
    for seed in range(100):
        s = random_scored(seed)
        pos = list(s.scores[s.labels == 1])
        neg = list(s.scores[s.labels == 0])
        values = []
        for cap in caps:
            v = tpr_at_fpr(s, cap)
            assert v == oracle_tpr_at_fpr(pos, neg, cap)
            values.append(v)
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_tpr_rejects_bad_cap():
    with pytest.raises(ValueError):
        tpr_at_fpr(scored([1.0], [0.0]), -0.1)
    with pytest.raises(ValueError):
        tpr_at_fpr(scored([1.0], [0.0]), 1.5)


def _hard_scores(rng) -> np.ndarray:
    """Scores that stress the one-sort metrics: quantized values (ties),
    signed zeros, and runs of adjacent doubles, some of whose midpoints
    round onto one of the pair (the midpoint of 1.0 and the next double up
    is 1.0 itself)."""
    n = int(rng.integers(2, 300))
    kind = rng.integers(0, 4, size=n)
    scores = rng.standard_normal(n)
    scores[kind == 0] = np.round(scores[kind == 0], 1)
    scores[kind == 1] = rng.choice([0.0, -0.0], size=int(np.count_nonzero(kind == 1)))
    near = np.flatnonzero(kind == 2)
    base = rng.choice([1.0, -1.0, 0.5, 3.0, 1e-300], size=near.shape[0])
    step = np.where(rng.random(near.shape[0]) < 0.5, np.inf, -np.inf)
    scores[near] = np.where(rng.random(near.shape[0]) < 0.5, base, np.nextafter(base, step))
    return scores


def _random_hard_set(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(9000 + seed)
    scores = _hard_scores(rng)
    labels = (rng.random(scores.shape[0]) < rng.uniform(0.1, 0.9)).astype(np.int64)
    labels[0], labels[-1] = 0, 1
    return scores, labels


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_adjacent_doubles_can_have_a_midpoint_equal_to_one_of_them():
    # The case the sweep's counts guard: counting run by run would put the
    # midpoint above 1.0, but it is 1.0, so 1.0 itself scores >= tau.
    up = np.nextafter(1.0, 2.0)
    assert 0.5 * (1.0 + up) == 1.0
    s = scored([up, 1.0], [1.0, 0.5])
    taus, pos_hits, neg_hits, _, _ = s._sweep
    assert taus.tolist() == [-math.inf, 0.75, 1.0, math.inf]
    assert pos_hits.tolist() == [2, 2, 2, 0] and neg_hits.tolist() == [2, 1, 1, 0]
    assert hter_at_eer(s) == oracle_hter_at_eer([up, 1.0], [1.0, 0.5])


def test_one_sort_metrics_are_bit_equal_to_the_per_call_sorts():
    rounded_onto_a_score = 0
    for seed in range(300):
        scores, labels = _random_hard_set(seed)
        s = ScoredSet(scores, labels)
        taus, pos_hits, neg_hits, n_pos, n_neg = s._sweep
        rounded_onto_a_score += int(np.isin(taus[1:-1], scores).any())
        want = reference_sweep(scores, labels)
        assert [_bits(t) for t in taus] == [_bits(t) for t in want[0]]
        assert np.array_equal(pos_hits, want[1]) and np.array_equal(neg_hits, want[2])
        assert (n_pos, n_neg) == want[3:]
        auc = roc_auc(s)
        assert type(auc) is float and _bits(auc) == _bits(reference_roc_auc(scores, labels))
        hter, tau = hter_at_eer(s)
        want_hter, want_tau, want_tpr = reference_hter_tpr(scores, labels)
        assert _bits(hter) == _bits(want_hter) and _bits(tau) == _bits(want_tau)
        assert _bits(tpr_at_fpr(s, 0.05)) == _bits(want_tpr)
    assert rounded_onto_a_score > 0


def test_one_sort_metrics_match_the_reference_on_evaluation_sized_sets():
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        scores = rng.standard_normal(2000) * rng.uniform(0.1, 10.0)
        labels = (rng.random(2000) < 0.5).astype(np.int64)
        s = ScoredSet(scores, labels)
        hter, tau = hter_at_eer(s)
        want_hter, want_tau, want_tpr = reference_hter_tpr(scores, labels)
        assert _bits(roc_auc(s)) == _bits(reference_roc_auc(scores, labels))
        assert (_bits(hter), _bits(tau), _bits(tpr_at_fpr(s, 0.05))) == (
            _bits(want_hter), _bits(want_tau), _bits(want_tpr)
        )
