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
    prediction tie, 0 otherwise. O(n^2) time, O(n) memory.
    """
    y, y_hat = _as_arrays(y, y_hat)
    num = 0.0
    den = 0
    for i in range(1, y.size):
        gt = y[:i] < y[i]      # pairs where y[i] is the strictly larger truth
        lt = y[:i] > y[i]
        if gt.any():
            d = y_hat[i] - y_hat[:i][gt]
            num += int(np.count_nonzero(d > 0)) + 0.5 * int(np.count_nonzero(d == 0))
            den += int(gt.sum())
        if lt.any():
            d = y_hat[:i][lt] - y_hat[i]
            num += int(np.count_nonzero(d > 0)) + 0.5 * int(np.count_nonzero(d == 0))
            den += int(lt.sum())
    if den == 0:
        raise ValueError("CI undefined: all true values tied")
    return num / den


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

