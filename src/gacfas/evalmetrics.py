"""Binary-classification evaluation: AUC, HTER at the EER point, TPR@FPR.

Scores are oriented so higher means more positive ("live"). Classification
at a threshold tau predicts positive when score >= tau. Threshold sweeps
enumerate the midpoints between consecutive distinct scores plus -inf and
+inf, which covers every achievable confusion matrix; the ROC is a step
function and nothing is interpolated. A ScoredSet sorts its scores once,
and all three metrics read their counts off that one sort.

Scores must be finite: NaN has no place in the ordering (a diverged model
would otherwise rank as a perfect classifier), so ScoredSet rejects it.

The EER thresholding convention (pick the threshold on the evaluation set
itself that minimizes |FAR - FRR|, ties resolved toward the lower threshold)
is an artifact convention: callers get the threshold back so they can layer
a different policy on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = ["ScoredSet", "hter_at_eer", "roc_auc", "tpr_at_fpr"]


@dataclass(frozen=True)
class ScoredSet:
    """Finite scores (higher = more positive) with binary labels (1 = positive).

    The set sorts its scores once, on construction, and keeps what the
    metrics read: the distinct scores in ascending order and each class's
    scores in ascending order. The metrics read only values and counts, so
    the order of equal scores does not matter and the sort need not be
    stable (a stable argsort costs about 3x as much)."""

    scores: np.ndarray
    labels: np.ndarray
    _distinct: np.ndarray = field(init=False, repr=False, compare=False)
    _pos: np.ndarray = field(init=False, repr=False, compare=False)
    _neg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        labels = np.ascontiguousarray(numerics._as_ints(self.labels, "labels"))
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ValueError(
                f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}"
            )
        if scores.shape[0] < 1:
            raise ValueError("need at least one scored sample")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be binary 0/1")
        if not np.all(np.isfinite(scores)):
            bad = int(np.count_nonzero(~np.isfinite(scores)))
            raise ValueError(f"scores must be finite, got {bad} NaN/inf of {scores.shape[0]}")
        order = np.argsort(scores)
        ordered = scores[order]
        positive = labels[order] == 1
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        # The first score of each run of equal sorted scores.
        object.__setattr__(self, "_distinct", ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))])
        object.__setattr__(self, "_pos", ordered[positive])
        object.__setattr__(self, "_neg", ordered[~positive])

    def split(self):
        """(positive scores, negative scores), each in ascending order."""
        if self._pos.shape[0] == 0 or self._neg.shape[0] == 0:
            raise ValueError("threshold metrics need at least one positive and one negative")
        return self._pos, self._neg

    @functools.cached_property
    def _sweep(self):
        """Candidate thresholds and the per-threshold counts of positives and
        negatives scoring >= tau, built once for hter_at_eer and tpr_at_fpr.

        The thresholds are the midpoints of consecutive distinct scores plus
        -inf and +inf. A midpoint of two adjacent doubles can round onto one
        of them, so the counts come from searchsorted against the midpoints
        themselves: side="left" counts the scores < tau, the same integer
        confusion counts as a count_nonzero pass per threshold."""
        pos, neg = self.split()
        taus = np.concatenate(([-math.inf], 0.5 * (self._distinct[:-1] + self._distinct[1:]), [math.inf]))
        pos_at_or_above = pos.shape[0] - np.searchsorted(pos, taus, side="left")
        neg_at_or_above = neg.shape[0] - np.searchsorted(neg, taus, side="left")
        return taus, pos_at_or_above, neg_at_or_above, pos.shape[0], neg.shape[0]


def roc_auc(s: ScoredSet) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 P(score+ = score-).

    Counts, over the positives, the negatives below (lo) and at or below
    (hi) each one, so 2U = sum(lo) + sum(hi) in integers. U is a multiple of
    0.5 below 2**52 for any set under 2**26 rows, so U is exact and equals
    the average-rank formula's rank sum - n_pos (n_pos + 1) / 2 bit for bit.
    """
    pos, neg = s.split()
    lo = int(np.searchsorted(neg, pos, side="left").sum())
    hi = int(np.searchsorted(neg, pos, side="right").sum())
    return ((lo + hi) / 2.0) / (pos.shape[0] * neg.shape[0])


def hter_at_eer(s: ScoredSet) -> tuple[float, float]:
    """HTER = (FAR + FRR)/2 at the threshold minimizing |FAR - FRR|.

    The sweep runs over midpoints between consecutive distinct scores plus
    +-inf; ties on |FAR - FRR| resolve to the lower threshold.
    """
    taus, pos_hits, neg_hits, n_pos, n_neg = s._sweep
    far = neg_hits / n_neg
    frr = (n_pos - pos_hits) / n_pos
    best = int(np.argmin(np.abs(far - frr)))  # first minimum = lowest threshold
    return float((far[best] + frr[best]) / 2.0), taus[best]


def tpr_at_fpr(s: ScoredSet, fpr_cap: float = 0.05) -> float:
    """Maximum TPR over thresholds whose FPR <= fpr_cap (step ROC)."""
    if not 0.0 <= fpr_cap <= 1.0:
        raise ValueError(f"fpr_cap must be in [0, 1], got {fpr_cap}")
    _, pos_hits, neg_hits, n_pos, n_neg = s._sweep
    # tau = +inf always qualifies (FPR 0), so the selection is never empty.
    return float(np.max(pos_hits[neg_hits / n_neg <= fpr_cap] / n_pos))
