"""Unit tests of the benchmark's output checks on tiny hand-computed inputs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math

import numpy as np
import pytest

from checks import (
    average_ranks,
    check_matrix,
    check_topk,
    cosine_scores,
    dot_scores,
    mann_whitney_auc,
)


def test_average_ranks_share_ties():
    assert average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


def test_auc_perfect_inverted_and_tied():
    assert mann_whitney_auc([3.0, 4.0], [1.0, 2.0]) == 1.0
    assert mann_whitney_auc([1.0, 2.0], [3.0, 4.0]) == 0.0
    assert mann_whitney_auc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_counts_pairs():
    # Pairs (pos, neg): (2,1) win, (2,3) loss, (4,1) win, (4,3) win -> 3/4.
    assert mann_whitney_auc([2.0, 4.0], [1.0, 3.0]) == 0.75
    # One tie counts a half: (2,1) win, (2,2) tie -> 1.5/2.
    assert mann_whitney_auc([2.0], [1.0, 2.0]) == 0.75


def test_auc_rejects_empty_side():
    with pytest.raises(ValueError):
        mann_whitney_auc([], [1.0])


def test_dot_scores():
    m = np.array([[1.0, 0.0], [2.0, 3.0], [-1.0, 1.0]])
    assert dot_scores(m, np.array([[0, 1], [1, 2]])).tolist() == [2.0, 1.0]


def test_check_matrix():
    good = np.zeros((3, 2), dtype=np.float32)
    assert check_matrix(good, 3, 2) == []
    assert "shape" in check_matrix(good, 4, 2)[0]
    bad = good.copy()
    bad[1, 1] = np.nan
    assert "non-finite" in check_matrix(bad, 3, 2)[0]


def test_cosine_scores():
    m = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
    s = cosine_scores(m, np.array([[3.0, 0.0]]))[0]
    assert s[0] == 1.0 and s[1] == 0.0 and s[3] == 0.0
    assert math.isclose(s[2], 1 / math.sqrt(2))


# Reference scores of five candidates; ids 1 and 3 tie for second place.
REF = np.array([0.9, 0.5, 0.1, 0.5, 0.7])


def test_topk_exact_answer_passes():
    assert check_topk(REF, [0, 4, 1], [0.9, 0.7, 0.5], 3) is None


def test_topk_tie_may_pick_either_id():
    assert check_topk(REF, [0, 4, 3], [0.9, 0.7, 0.5], 3) is None


def test_topk_scores_within_tolerance():
    assert check_topk(REF, [0, 4], [0.9 + 5e-6, 0.7 - 5e-6], 2) is None
    assert "off by" in check_topk(REF, [0, 4], [0.9, 0.69], 2)


def test_topk_rejects_wrong_member():
    assert "served although" in check_topk(REF, [0, 4, 2], [0.9, 0.7, 0.1], 3)


def test_topk_rejects_wrong_count_duplicates_and_order():
    assert "expected 3" in check_topk(REF, [0, 4], [0.9, 0.7], 3)
    assert "duplicate" in check_topk(REF, [0, 0], [0.9, 0.9], 2)
    assert "descending" in check_topk(REF, [4, 0], [0.7, 0.9], 2)


def test_topk_exclude_self():
    # Excluding id 0, the best two are 4 then one of the tied 1/3.
    assert check_topk(REF, [4, 1], [0.7, 0.5], 2, exclude=0) is None
    assert "own neighbour" in check_topk(REF, [0, 4], [0.9, 0.7], 2, exclude=0)


def test_topk_k_larger_than_candidates():
    assert check_topk(REF[:2], [0, 1], [0.9, 0.5], 10) is None
