"""Regression and ranking metrics for affinity prediction.

Implements mean squared error, the concordance index with 0.5 credit for
prediction ties, the QSAR rm^2 index (correlation with and without
intercept), and area under the precision-recall curve after threshold
binarization of the true affinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DAVIS_THRESHOLD = 7.0    # binding when transformed dissociation score >= 7
KIBA_THRESHOLD = 12.1    # binding when composite bioactivity score >= 12.1

MODE_THRESHOLDS = {"davis": DAVIS_THRESHOLD, "kiba": KIBA_THRESHOLD}


def _as_arrays(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError(f"expected two 1-d arrays of equal length, got {y.shape} and {y_hat.shape}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise ValueError("metrics require finite values")
    return y, y_hat


def mse(y, y_hat) -> float:
    y, y_hat = _as_arrays(y, y_hat)
    if y.size == 0:
        raise ValueError("mse of empty input")
    d = y_hat - y
    return float(np.mean(d * d))


def concordance_index(y, y_hat) -> float:
    """Probability that predictions order a strictly-ordered true pair correctly.

    Over all pairs with y_i > y_j, credit 1 when y_hat_i > y_hat_j, 0.5 on a
    prediction tie, 0 otherwise. O(n log n) time, O(n) memory: rows are
    visited in ascending y, and a Fenwick tree over the dense ranks of y_hat
    counts the earlier rows each one beats. A group of equal y is queried
    in full before any of it is inserted, so true ties never form a pair.
    Every count is an exact integer, so the result does not depend on the
    order in which pairs are visited.
    """
    y, y_hat = _as_arrays(y, y_hat)
    order = np.lexsort((y_hat, y))
    y_sorted = y[order]
    values, ranks = np.unique(y_hat[order], return_inverse=True)
    ranks = (ranks + 1).tolist()           # 1-based Fenwick indices
    size = values.size
    tree = [0] * (size + 1)                # Fenwick tree of inserted ranks
    inserted_at = [0] * (size + 1)         # inserted rows per rank
    bounds = [0, *(np.flatnonzero(np.diff(y_sorted)) + 1).tolist(), len(ranks)]
    concordant = tied = pairs = inserted = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        group = ranks[start:stop]
        for r in group:
            i = r - 1
            while i:                       # inserted rows ranked below r
                concordant += tree[i]
                i &= i - 1
            tied += inserted_at[r]
        pairs += inserted * len(group)
        for r in group:
            inserted_at[r] += 1
            i = r
            while i <= size:
                tree[i] += 1
                i += i & -i
        inserted += len(group)
    if pairs == 0:
        raise ValueError("CI undefined: all true values tied")
    return (concordant + 0.5 * tied) / pairs


def rm2_details(y, y_hat):
    """rm^2 with its ingredients: (rm2, r2, r02, clamped).

    r2 is the squared intercept-ful correlation of predictions with truths;
    r02 comes from the through-origin regression of observed on predicted
    (slope k = sum(y*y_hat)/sum(y_hat^2)). The radicand r2 - r02 is clamped
    at zero when negative; `clamped` reports that this happened.
    """
    y, y_hat = _as_arrays(y, y_hat)
    if y.size < 2:
        raise ValueError("rm2 needs at least two points")
    vy = y - y.mean()
    vf = y_hat - y_hat.mean()
    ss_y = float(vy @ vy)
    ss_f = float(vf @ vf)
    if ss_y == 0.0 or ss_f == 0.0:
        raise ValueError("rm2 undefined: zero variance")
    cov = float(vf @ vy)
    r2 = cov * cov / (ss_f * ss_y)
    k = float(y @ y_hat) / float(y_hat @ y_hat)
    resid = y - k * y_hat
    r02 = 1.0 - float(resid @ resid) / ss_y
    radicand = r2 - r02
    clamped = radicand < 0.0
    rm2 = r2 * (1.0 - math.sqrt(max(radicand, 0.0)))
    return rm2, r2, r02, clamped


def rm2_index(y, y_hat) -> float:
    return rm2_details(y, y_hat)[0]


def binarize(y, threshold: float) -> np.ndarray:
    """Label 1 where y >= threshold, else 0 (strict boundary: below stays 0)."""
    y = np.asarray(y, dtype=np.float64)
    return (y >= threshold).astype(np.int64)


def aupr(labels, scores) -> float:
    """Area under the precision-recall curve, step (average-precision) form.

    Scores are swept from high to low; tied scores are grouped into a single
    sweep point. Area = sum over sweep points of (R_i - R_{i-1}) * P_i.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be 1-d and aligned")
    positives = int(labels.sum())
    if positives == 0 or positives == labels.size:
        raise ValueError("AUPR undefined: needs at least one positive and one negative")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    # last index of each tied-score group
    boundary = np.nonzero(np.diff(s))[0]
    ends = np.concatenate([boundary, [s.size - 1]])
    tp = np.cumsum(l)[ends]
    seen = ends + 1
    precision = tp / seen
    recall = tp / positives
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


@dataclass
class MetricsReport:
    """One evaluation's worth of metrics; failed metrics carry an error note."""

    n: int
    threshold: float
    mse: Optional[float] = None
    ci: Optional[float] = None
    rm2: Optional[float] = None
    aupr: Optional[float] = None
    errors: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"n = {self.n}", f"threshold = {self.threshold!r}"]
        for name in ("mse", "ci", "rm2", "aupr"):
            value = getattr(self, name)
            if value is None:
                lines.append(f"{name} = error: {self.errors.get(name, 'unavailable')}")
            else:
                lines.append(f"{name} = {float(value)!r}")
        return "\n".join(lines) + "\n"


def evaluate(y, y_hat, dataset_mode: str) -> MetricsReport:
    """Fill a MetricsReport with all four metrics at the mode's threshold.

    Individual metric failures (ties, zero variance, single-class labels) are
    recorded per field instead of aborting the whole report.
    """
    if dataset_mode not in MODE_THRESHOLDS:
        raise ValueError(f"unknown dataset mode {dataset_mode!r}")
    y, y_hat = _as_arrays(y, y_hat)
    threshold = MODE_THRESHOLDS[dataset_mode]
    report = MetricsReport(n=int(y.size), threshold=threshold)
    for name, fn in (
        ("mse", lambda: mse(y, y_hat)),
        ("ci", lambda: concordance_index(y, y_hat)),
        ("rm2", lambda: rm2_index(y, y_hat)),
        ("aupr", lambda: aupr(binarize(y, threshold), y_hat)),
    ):
        try:
            setattr(report, name, fn())
        except ValueError as exc:
            report.errors[name] = str(exc)
    return report

