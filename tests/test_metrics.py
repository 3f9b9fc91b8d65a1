"""Metric implementations against independent brute-force oracles.

The oracles here are deliberately naive: a pure-Python double loop for the
concordance index, an exhaustive threshold sweep for AUPR, and Fraction
arithmetic for rm^2 ingredients. The library code must match them to 1e-9.
The O(n log n) concordance index must also equal, with ==, the O(n^2) row
loop it replaced (`ci_reference`), since both count pairs in exact integers.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta.metrics import (MetricsReport, aupr, binarize, concordance_index,
                            evaluate, mse, rm2_details, rm2_index)

# frozen from a 50-digit scalar computation of the documented formulas
RM2_136_346 = 0.70762790394060589


def ci_oracle(y, f):
    num = 0.0
    den = 0
    for i in range(len(y)):
        for j in range(len(y)):
            if y[i] > y[j]:
                den += 1
                d = f[i] - f[j]
                num += 1.0 if d > 0 else (0.5 if d == 0 else 0.0)
    return num / den


def ci_reference(y, y_hat):
    """The O(n^2) concordance index that moldta.metrics used before, one
    vectorised row per i against all earlier rows."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
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


def aupr_oracle(labels, scores):
    """Exhaustive sweep over distinct scores, ties grouped, step area."""
    order = sorted(range(len(labels)), key=lambda i: -scores[i])
    positives = sum(labels)
    area = Fraction(0)
    tp = 0
    seen = 0
    prev_recall = Fraction(0)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            tp += labels[order[j]]
            seen += 1
            j += 1
        recall = Fraction(tp, positives)
        area += (recall - prev_recall) * Fraction(tp, seen)
        prev_recall = recall
        i = j
    return float(area)


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([2.0], [0.0]) == 4.0
    assert mse([0.0, 0.0], [1.0, 3.0]) == 5.0  # (1 + 9) / 2


def test_mse_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


# ---------------------------------------------------------------------------
# concordance index
# ---------------------------------------------------------------------------

def test_ci_perfect_order():
    assert concordance_index([1, 2, 3, 4], [0.1, 0.5, 0.7, 2.0]) == 1.0


def test_ci_constant_predictions():
    assert concordance_index([1, 2, 3], [5.0, 5.0, 5.0]) == 0.5


def test_ci_hand_example():
    assert abs(concordance_index([1, 2, 3], [1, 3, 2]) - 2 / 3) < 1e-12


def test_ci_all_ties_undefined():
    with pytest.raises(ValueError, match="CI undefined"):
        concordance_index([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_ci_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 6, size=n).astype(float)   # deliberate truth ties
        f = np.round(rng.normal(size=n), 1)            # deliberate score ties
        if np.all(y == y[0]):
            continue
        assert abs(concordance_index(y, f) - ci_oracle(y, f)) < 1e-9


def test_ci_equals_reference_on_tie_heavy_kiba_sized_sample():
    # labels rounded to 0.1 and predictions to 0.01, as the screening
    # benchmark scores them: both sides carry heavy ties
    rng = np.random.default_rng(2024)
    y = np.round(rng.normal(11.8, 0.9, 3000), 1)
    f = np.round(y + rng.normal(0.0, 0.6, 3000), 2)
    got = concordance_index(y, f)
    assert type(got) is float
    assert got == ci_reference(y, f)


small_ints = st.lists(st.integers(-4, 4), min_size=1, max_size=200)


@st.composite
def tied_pairs(draw):
    """Aligned small-integer truths and predictions: heavy ties on both."""
    y = draw(small_ints)
    f = draw(st.lists(st.integers(-4, 4), min_size=len(y), max_size=len(y)))
    return np.array(y, dtype=float), np.array(f, dtype=float)


def _increasing_map(draw, values):
    """A random strictly increasing map on the distinct values."""
    steps = draw(st.lists(st.floats(0.01, 100.0), min_size=values.size,
                          max_size=values.size))
    image = np.cumsum(steps) - 50.0
    return image[np.searchsorted(np.unique(values), values)]


@settings(max_examples=200, deadline=None)
@given(tied_pairs())
def test_ci_equals_reference_on_small_integer_inputs(pair):
    y, f = pair
    if np.all(y == y[0]):
        with pytest.raises(ValueError, match="CI undefined"):
            concordance_index(y, f)
        with pytest.raises(ValueError, match="CI undefined"):
            ci_reference(y, f)
    else:
        assert concordance_index(y, f) == ci_reference(y, f)


@settings(max_examples=200, deadline=None)
@given(tied_pairs(), st.data())
def test_ci_invariant_under_strictly_increasing_maps(pair, data):
    y, f = pair
    if np.all(y == y[0]):
        return
    base = concordance_index(y, f)
    assert concordance_index(y, _increasing_map(data.draw, f)) == base
    assert concordance_index(_increasing_map(data.draw, y), f) == base


@settings(max_examples=200, deadline=None)
@given(small_ints, st.randoms())
def test_ci_of_negated_predictions_is_complement_without_prediction_ties(y, rnd):
    y = np.array(y, dtype=float)
    if np.all(y == y[0]):
        return
    f = np.arange(y.size, dtype=float)
    rnd.shuffle(f)
    # (pairs - concordant) / pairs and 1 - concordant / pairs may round to
    # neighbouring floats (1 - 1/3 != 2/3), hence the tolerance
    assert concordance_index(y, -f) == pytest.approx(1 - concordance_index(y, f), abs=1e-12)


def test_metrics_return_builtin_float():
    # report text prints values with repr, which under numpy 2 spells a numpy
    # scalar as np.float64(...); every metric must hand back a plain float
    y = [1.0, 2.0, 3.0, 4.0]
    distinct = [0.1, 0.5, 0.7, 2.0]
    tied = [0.5, 0.5, 0.7, 0.7]            # exercises the 0.5 tie credit
    for f in (distinct, tied):
        assert type(mse(y, f)) is float
        assert type(concordance_index(y, f)) is float
        assert type(rm2_index(y, f)) is float
        assert type(aupr(binarize(y, 2.5), f)) is float
    assert concordance_index(y, tied) == 5 / 6   # two of six pairs tie


def test_ci_invariant_under_monotone_transforms():
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    f = rng.normal(size=40)
    base = concordance_index(y, f)
    assert concordance_index(y, 2 * f + 1) == base
    assert concordance_index(y, f ** 3) == base


# ---------------------------------------------------------------------------
# rm^2
# ---------------------------------------------------------------------------

def test_rm2_perfect_fit():
    assert rm2_index([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)


def test_rm2_proportional_predictions():
    # through-origin fit y = 0.5 * f is exact, so r2 = r02 = 1
    rm2, r2, r02, clamped = rm2_details([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert r02 == pytest.approx(1.0, abs=1e-12)
    assert rm2 == pytest.approx(1.0, abs=1e-12)
    assert not clamped


def test_rm2_frozen_oracle_value():
    assert rm2_index([1.0, 2.0, 3.0], [3.0, 4.0, 6.0]) == pytest.approx(RM2_136_346, abs=1e-9)


def test_rm2_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        rm2_index([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="zero variance"):
        rm2_index([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


def test_rm2_never_exceeds_r2():
    # with y regressed on predictions, the through-origin model is nested in
    # the intercept model, so r02 <= r2 up to floating-point jitter
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(3, 40))
        y = rng.normal(size=n)
        f = rng.normal(size=n) + 0.3 * y
        rm2, r2, r02, clamped = rm2_details(y, f)
        assert r2 - r02 > -1e-12
        assert rm2 <= r2 + 1e-12
        if clamped:
            assert rm2 == pytest.approx(r2, abs=1e-12)


def test_rm2_clamp_guards_float_jitter_on_proportional_data():
    # exactly proportional truths/predictions make the radicand a float zero
    # that often lands at -1e-16; the clamp must keep rm2 = r2 there
    rng = np.random.default_rng(0)
    saw_clamp = False
    for _ in range(500):
        n = int(rng.integers(3, 8))
        f = rng.normal(size=n)
        y = rng.normal() * f
        if np.all(y == y[0]) or np.all(f == f[0]):
            continue
        rm2, r2, r02, clamped = rm2_details(y, f)
        saw_clamp = saw_clamp or clamped
        if clamped:
            assert rm2 == r2  # clamped radicand contributes exactly nothing
        else:
            # positive jitter of ~1e-16 under the sqrt allows ~1e-8 deviation
            assert rm2 == pytest.approx(r2, abs=1e-7)
    assert saw_clamp, "expected at least one jitter-clamped instance"


def test_rm2_matches_fraction_oracle_on_random_instances():
    rng = np.random.default_rng(321)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        y = rng.integers(-20, 20, size=n).astype(float)
        f = rng.integers(1, 20, size=n).astype(float)
        if np.all(y == y[0]) or np.all(f == f[0]):
            continue
        yF = [Fraction(v).limit_denominator() for v in y]
        fF = [Fraction(v).limit_denominator() for v in f]
        nn = len(yF)
        ybar = sum(yF) / nn
        fbar = sum(fF) / nn
        cov = sum((a - fbar) * (b - ybar) for a, b in zip(fF, yF))
        ssf = sum((a - fbar) ** 2 for a in fF)
        ssy = sum((b - ybar) ** 2 for b in yF)
        r2 = cov * cov / (ssf * ssy)
        k = sum(a * b for a, b in zip(yF, fF)) / sum(a * a for a in fF)
        r02 = 1 - sum((b - k * a) ** 2 for a, b in zip(fF, yF)) / ssy
        expect = float(r2) * (1.0 - float(max(r2 - r02, Fraction(0))) ** 0.5)
        assert rm2_index(y, f) == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# binarize / aupr
# ---------------------------------------------------------------------------

def test_binarize_thresholds():
    assert binarize([7.0], 7.0).tolist() == [1]       # davis boundary binds
    assert binarize([12.09], 12.1).tolist() == [0]    # kiba just below
    assert binarize([12.1, 12.2], 12.1).tolist() == [1, 1]
    eps = 1e-12
    assert binarize([7.0 - eps], 7.0).tolist() == [0]


def test_binarize_idempotent_on_labels():
    labels = binarize([5.0, 8.0, 7.0], 7.0)
    assert np.array_equal(binarize(labels, 1.0), labels)


def test_aupr_perfect_separation():
    assert aupr([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(1.0)


def test_aupr_worst_order_two_points():
    assert aupr([1, 0], [0.2, 0.9]) == pytest.approx(0.5, abs=1e-12)


def test_aupr_three_point_sweep_value():
    assert aupr([1, 0, 1], [0.9, 0.8, 0.7]) == pytest.approx(5 / 6, abs=1e-9)


def test_aupr_single_class_errors():
    with pytest.raises(ValueError, match="AUPR undefined"):
        aupr([1, 1], [0.5, 0.6])
    with pytest.raises(ValueError, match="AUPR undefined"):
        aupr([0, 0], [0.5, 0.6])


def test_aupr_matches_sweep_oracle_on_random_instances():
    rng = np.random.default_rng(999)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)  # ties likely
        assert aupr(labels, scores) == pytest.approx(
            aupr_oracle(labels.tolist(), scores.tolist()), abs=1e-9)


def test_aupr_invariant_under_monotone_transforms():
    rng = np.random.default_rng(31)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    scores = rng.normal(size=60)
    base = aupr(labels, scores)
    assert aupr(labels, 2 * scores + 1) == base
    assert aupr(labels, scores ** 3) == base


# ---------------------------------------------------------------------------
# evaluate / reports
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictions():
    y = np.array([5.0, 6.5, 7.0, 8.0, 11.9, 13.0])
    report = evaluate(y, y.copy(), "davis")
    assert report.mse == 0.0
    assert report.ci == 1.0
    assert report.rm2 == pytest.approx(1.0, abs=1e-12)
    assert report.aupr == pytest.approx(1.0)
    assert report.threshold == 7.0
    assert report.errors == {}
    for name in ("mse", "ci", "rm2", "aupr"):
        assert type(getattr(report, name)) is float, name


def test_evaluate_constant_predictions_reports_per_field():
    y = np.array([5.0, 7.5, 8.0])
    report = evaluate(y, np.full(3, 6.0), "davis")
    assert report.ci == 0.5
    assert "rm2" in report.errors and report.rm2 is None
    assert report.mse == pytest.approx(float(np.mean((y - 6.0) ** 2)))


def test_evaluate_kiba_threshold_and_text():
    y = np.array([11.0, 12.0, 12.1, 13.0])
    report = evaluate(y, np.array([10.0, 12.5, 12.0, 14.0]), "kiba")
    assert report.threshold == 12.1
    text = report.to_text()
    assert "mse = " in text and "ci = " in text
    # full-precision round trip of at least one value
    line = [ln for ln in text.splitlines() if ln.startswith("mse")][0]
    assert float(line.split("=")[1]) == report.mse
    # ... and of every metric line
    values = dict(ln.split(" = ", 1) for ln in text.splitlines())
    for name in ("mse", "ci", "rm2", "aupr"):
        assert float(values[name]) == getattr(report, name), values[name]


def test_report_text_is_plain_for_numpy_scalar_fields():
    plain = MetricsReport(n=3, threshold=7.0, mse=0.25, ci=0.75, rm2=0.5, aupr=1.0)
    numpy = MetricsReport(n=3, threshold=7.0, mse=np.float64(0.25), ci=np.float64(0.75),
                          rm2=np.float64(0.5), aupr=np.float64(1.0))
    assert numpy.to_text() == plain.to_text()
    assert "ci = 0.75\n" in plain.to_text()


def test_evaluate_matches_oracles_on_random_sets():
    rng = np.random.default_rng(2468)
    for _ in range(50):
        n = int(rng.integers(5, 50))
        y = np.round(rng.normal(7, 1.5, size=n), 2)
        f = np.round(y + rng.normal(0, 1, size=n), 2)
        report = evaluate(y, f, "davis")
        labels = binarize(y, 7.0)
        if report.ci is not None:
            assert report.ci == pytest.approx(ci_oracle(y, f), abs=1e-9)
        if report.aupr is not None:
            assert report.aupr == pytest.approx(
                aupr_oracle(labels.tolist(), f.tolist()), abs=1e-9)
        assert report.mse == pytest.approx(float(np.mean((f - y) ** 2)), abs=1e-12)


def test_evaluate_unknown_mode():
    with pytest.raises(ValueError, match="unknown dataset mode"):
        evaluate([1.0, 2.0], [1.0, 2.0], "chembl")
