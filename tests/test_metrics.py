import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ4d.evaluation import _both_classes, _ranked, _summary, _sweep, average_precision, recall_at_precision, soft_iou

from oracles import (
    average_precision_bruteforce,
    pr_sweep_stable,
    recall_and_ap_stable,
    recall_at_precision_bruteforce,
    soft_iou_loop,
)


def pr_sweep(scores, labels):
    """The package's sweep of scores and labels in any order."""
    return _sweep(*_ranked(scores, labels)[1:])


def recall_and_ap(scores, labels, precision_target=0.7):
    """The package's (recall, threshold, AP) of scores and labels in any
    order, from one sort and one sweep; ValueError unless both classes occur."""
    return _summary(*_ranked(scores, _both_classes(labels))[1:], precision_target)


def random_instance(rng, n=None, ties=False):
    n = n or int(rng.integers(5, 80))
    if ties:
        scores = rng.integers(0, 6, size=n) / 5.0
    else:
        scores = rng.uniform(0, 1, size=n)
    labels = (rng.uniform(size=n) < 0.4).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return scores, labels


class TestRecallAtPrecision:
    def test_perfect_ranking(self):
        r, thr = recall_at_precision([0.9, 0.8, 0.1], [1, 1, 0], 0.7)
        assert r == 1.0
        assert thr == 0.8

    def test_uninformative_scores(self):
        r, thr = recall_at_precision([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0], 0.7)
        assert r == 0.0
        assert thr == math.inf

    def test_degenerate_labels_error(self):
        with pytest.raises(ValueError):
            recall_at_precision([0.5, 0.6], [1, 1], 0.7)
        with pytest.raises(ValueError):
            recall_at_precision([0.5, 0.6], [0, 0], 0.7)

    def test_matches_bruteforce_sweep(self):
        rng = np.random.default_rng(0)
        for i in range(200):
            scores, labels = random_instance(rng, ties=(i % 3 == 0))
            target = float(rng.uniform(0.3, 0.95))
            got_r, got_t = recall_at_precision(scores, labels, target)
            exp_r, exp_t = recall_at_precision_bruteforce(scores, labels, target)
            assert got_r == pytest.approx(exp_r, abs=0.0)
            if exp_r > 0:
                assert got_t == pytest.approx(exp_t, abs=0.0)


class TestAveragePrecision:
    def test_positive_ranked_first(self):
        assert average_precision([0.9, 0.4], [1, 0]) == 1.0

    def test_positive_ranked_second(self):
        # thresholds desc: 0.9 -> P=0, R=0; 0.4 -> P=0.5, R=1 => AP=0.5
        assert average_precision([0.4, 0.9], [1, 0]) == 0.5

    def test_needs_positive(self):
        with pytest.raises(ValueError):
            average_precision([0.4, 0.9], [0, 0])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for i in range(200):
            scores, labels = random_instance(rng, ties=(i % 4 == 0))
            got = average_precision(scores, labels)
            exp = average_precision_bruteforce(scores, labels)
            assert got == pytest.approx(exp, abs=1e-12)

    def test_bounds(self):
        # pointwise AP lies in (0, 1]; relative to the base rate the bound
        # holds in expectation (the step-sum can dip below it for
        # adversarial rankings, so it is checked statistically)
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(300):
            scores, labels = random_instance(rng)
            ap = average_precision(scores, labels)
            assert 0.0 < ap <= 1.0 + 1e-12
            gaps.append(ap - labels.mean())
        assert np.mean(gaps) > -0.01


class TestSoftIou:
    def test_perfect_binary_prediction(self):
        y = [1, 0, 1, 1, 0]
        assert soft_iou(y, y) == 1.0

    def test_hand_arithmetic(self):
        assert soft_iou([1.0, 1.0, 0.0], [1, 0, 0]) == pytest.approx(0.5, abs=1e-15)

    def test_empty_both_sides(self):
        assert soft_iou([0.0, 0.0], [0, 0]) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            soft_iou([1.5], [1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            soft_iou([0.2, math.nan], [1, 0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            p = rng.uniform(size=n)
            y = (rng.uniform(size=n) < 0.5).astype(int)
            assert soft_iou(p, y) == pytest.approx(soft_iou_loop(p, y), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=40),
    st.integers(0, 2**31 - 1),
)
def test_metric_oracles_property(scores, seed):
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=len(scores)) < 0.5).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == len(labels):
        labels[0] = 0
    got = average_precision(scores, labels)
    assert got == pytest.approx(average_precision_bruteforce(scores, labels), abs=1e-12)
    r_got, _ = recall_at_precision(scores, labels, 0.7)
    r_exp, _ = recall_at_precision_bruteforce(scores, labels, 0.7)
    assert r_got == pytest.approx(r_exp, abs=0.0)
    assert 0.0 <= r_got <= 1.0


def test_one_sweep_equals_the_two_public_metrics():
    rng = np.random.default_rng(11)
    cases = [random_instance(rng, ties=bool(i % 2)) for i in range(200)]
    cases.append(random_instance(rng, n=200_000, ties=True))
    cases.append(random_instance(rng, n=200_000))
    for scores, labels in cases:
        for target in (0.7, 0.3, 0.99):
            r, thr, ap = recall_and_ap(scores, labels, target)
            assert (r, thr) == recall_at_precision(scores, labels, target)
            assert ap == average_precision(scores, labels)
    with pytest.raises(ValueError):
        recall_and_ap([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError):
        recall_and_ap([0.5, 0.6], [0, 0])


def test_average_precision_adds_terms_in_order():
    rng = np.random.default_rng(12)
    scores, labels = random_instance(rng, n=300_000)
    _, precision, recall = pr_sweep(scores, labels)
    terms = (recall - np.concatenate([[0.0], recall[:-1]])) * precision
    ap = 0.0
    for t in terms:
        ap += float(t)
    assert average_precision(scores, labels) == ap


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 50),
    st.lists(st.tuples(st.integers(0, 49), st.booleans()), min_size=2, max_size=300),
    st.integers(0, 2**31 - 1),
)
def test_sweep_does_not_depend_on_tie_order(levels, rows, seed):
    """Heavily tied scores in a random order: the unstable sort and integer
    counts give the bits of the stable-sort sweep."""
    scores = np.array([k % levels for k, _ in rows]) / levels
    labels = np.array([y for _, y in rows], dtype=np.int8)
    perm = np.random.default_rng(seed).permutation(len(rows))
    want = pr_sweep_stable(scores, labels)
    for s, y in ((scores, labels), (scores[perm], labels[perm])):
        assert all(np.array_equal(g, w) for g, w in zip(pr_sweep(s, y), want))
        if 0 < labels.sum() < len(labels):
            for target in (0.3, 0.7, 0.99):
                assert recall_and_ap(s, y, target) == recall_and_ap_stable(scores, labels, target)


def test_nan_scores_rejected():
    scores, labels = [0.9, math.nan, 0.2, 0.8], [1, 0, 1, 0]
    with pytest.raises(ValueError, match="NaN"):
        recall_and_ap(scores, labels)
    with pytest.raises(ValueError, match="NaN"):
        average_precision(scores, labels)
    with pytest.raises(ValueError, match="NaN"):
        recall_at_precision(scores, labels, 0.7)
