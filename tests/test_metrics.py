import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genret.metrics import (EvalRecord, MetricError, dice, diversity,
                            hit_ratio, ltrr, ndcg)


def rec(uid, retrieved, truth, cats=None, labels=None):
    return EvalRecord(user_id=uid, retrieved=retrieved, truth=truth,
                      categories=cats or {}, ltr_labels=labels)


def test_hit_ratio_hand_case():
    records = [rec("u1", ["a", "b", "c"], "b"),
               rec("u2", ["a", "b", "c"], "z")]
    assert hit_ratio(records, 2) == pytest.approx(0.5)
    assert hit_ratio(records, 1) == pytest.approx(0.0)
    assert hit_ratio(records, 3) == pytest.approx(0.5)


def test_ndcg_closed_form_ranks():
    # a single user with truth at rank r gives exactly 1/log2(r+1)
    retrieved = [f"a{i}" for i in range(10)]
    for r in range(1, 11):
        records = [rec("u", retrieved, f"a{r - 1}")]
        assert ndcg(records, 10) == pytest.approx(1.0 / math.log2(r + 1),
                                                  abs=1e-12)


def test_ndcg_rank1_is_one_and_miss_is_zero():
    assert ndcg([rec("u", ["a", "b"], "a")], 2) == pytest.approx(1.0)
    assert ndcg([rec("u", ["a", "b"], "z")], 2) == 0.0
    # truth beyond k scores zero
    assert ndcg([rec("u", ["a", "b", "c"], "c")], 2) == 0.0


def test_empty_records_rejected():
    for fn in (lambda: hit_ratio([], 1), lambda: ndcg([], 1),
               lambda: diversity([], 2), lambda: ltrr([], 1)):
        with pytest.raises(MetricError):
            fn()
    with pytest.raises(MetricError):
        hit_ratio([rec("u", ["a"], "a")], 0)


def test_duplicate_retrieved_rejected():
    with pytest.raises(MetricError, match="duplicate"):
        rec("u", ["a", "a"], "a")


def test_dice_hand_cases():
    assert dice(["a", "b"], ["b", "c"]) == pytest.approx(0.5)
    assert dice(["a"], ["a"]) == 1.0
    assert dice(["a"], ["b"]) == 0.0
    assert dice([], ["a"]) == 0.0
    assert dice([], []) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=6),
       st.lists(st.integers(0, 8), max_size=6))
def test_dice_properties(a, b):
    d = dice(a, b)
    assert 0.0 <= d <= 1.0
    assert d == dice(b, a)
    if set(a) == set(b):
        assert d == 1.0


def test_diversity_hand_cases():
    cats = {"a": "x", "b": "x", "c": "y", "d": "z"}
    # all same category in top-2 -> conc 1, abund 1, score 0
    r1 = [rec("u", ["a", "b"], "a", cats)]
    conc, abund, score = diversity(r1, 2)
    assert (conc, abund, score) == (1.0, 1.0, 0.0)
    # all distinct in top-3 -> conc 1/3, abund 3, score ((2/3)+(2/2))/2
    r2 = [rec("u", ["a", "c", "d"], "a", cats)]
    conc, abund, score = diversity(r2, 3)
    assert conc == pytest.approx(1 / 3)
    assert abund == 3.0
    assert score == pytest.approx(((1 - 1 / 3) + 1.0) / 2)


def test_diversity_concentration_over_list_length():
    # four same-category ads at k=8: the user got four ads, all category x
    cats = {a: "x" for a in "abcd"}
    conc, abund, _ = diversity([rec("u", list("abcd"), "a", cats)], 8)
    assert (conc, abund) == (1.0, 1.0)


def test_diversity_k1_undefined_score():
    cats = {"a": "x"}
    conc, abund, score = diversity([rec("u", ["a"], "a", cats)], 1)
    assert conc == 1.0 and abund == 1.0 and score is None


def test_diversity_score_bounds_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(100)  :
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 10))
        ads = [f"a{i}" for i in range(n)]
        cats = {a: f"c{int(rng.integers(1, 4))}" for a in ads}
        records = [rec("u", ads, ads[0], cats)]
        _, _, score = diversity(records, k)
        assert 0.0 <= score <= 1.0 + 1e-12


def test_ltrr_hand_case_and_exclusion():
    records = [
        rec("u1", ["a", "b", "c"], "a", labels={"a", "c", "z"}),
        rec("u2", ["a", "b"], "a", labels=set()),
        rec("u3", ["x"], "x", labels={"x"}),
    ]
    mean, excluded = ltrr(records, 2)
    # u1: |{a,b} ∩ {a,c,z}| / 3 = 1/3; u3: 1/1; u2 excluded
    assert mean == pytest.approx((1 / 3 + 1.0) / 2)
    assert excluded == 1
    with pytest.raises(MetricError, match="no user"):
        ltrr([rec("u", ["a"], "a", labels=set())], 1)


def test_hr_and_ndcg_monotone_in_k():
    rng = np.random.default_rng(1)
    records = []
    pool = [f"a{i}" for i in range(12)]
    for u in range(30):
        perm = list(rng.permutation(pool))
        records.append(rec(f"u{u}", perm[:8], pool[int(rng.integers(12))]))
    for k in range(1, 8):
        assert hit_ratio(records, k) <= hit_ratio(records, k + 1) + 1e-12
        assert ndcg(records, k) <= ndcg(records, k + 1) + 1e-12


def test_ndcg_le_hit_ratio_random():
    rng = np.random.default_rng(2)
    pool = [f"a{i}" for i in range(15)]
    records = []
    for u in range(1000):
        perm = list(rng.permutation(pool))
        records.append(rec(f"u{u}", perm[:6], pool[int(rng.integers(15))]))
    for k in (1, 3, 6):
        assert ndcg(records, k) <= hit_ratio(records, k) + 1e-12

