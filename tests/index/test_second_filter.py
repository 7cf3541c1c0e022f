"""Tests for the two-stage filter cascade (paper Section 5.2).

The paper runs the full-dimension envelope bound LB as "a second
filter after the indexing scheme ... returns a superset of answer".
In range queries that filter is the engine's ``lb_keogh`` stage after
the New_PAA feature stage; in the R*-tree multi-step k-NN it screens
each candidate before its exact DTW.  These tests verify the cascade
is sound (no answers lost), actually prunes, and saves exact-DTW
computations in k-NN too.
"""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex


@pytest.fixture(scope="module")
def index():
    walks = list(random_walks(300, 96, seed=50))
    return WarpingIndex(walks, delta=0.1, normal_form=NormalForm(length=64))


@pytest.fixture(scope="module")
def queries():
    return random_walks(5, 96, seed=51)


WITH_LB = ("new_paa", "lb_keogh")
WITHOUT_LB = ("new_paa",)


class TestRangeSecondFilter:
    def test_same_answers_with_and_without(self, index, queries):
        for q in queries:
            with_filter, _ = index.range_query(q, 6.0, stages=WITH_LB)
            without, _ = index.range_query(q, 6.0, stages=WITHOUT_LB)
            assert with_filter == without

    def test_prunes_and_saves_dtw(self, index, queries):
        total_pruned = 0
        for q in queries:
            _, s_on = index.range_query(q, 6.0, stages=WITH_LB)
            _, s_off = index.range_query(q, 6.0, stages=WITHOUT_LB)
            pruned = s_on.stages[1].pruned
            total_pruned += pruned
            assert s_on.dtw_computations == s_off.dtw_computations - pruned
            assert s_on.stages[0].survivors == s_off.exact_candidates
        assert total_pruned > 0

    def test_matches_ground_truth(self, index, queries):
        for q in queries:
            results, _ = index.range_query(q, 8.0)
            truth = index.ground_truth_range(q, 8.0)
            assert [i for i, _ in results] == [i for i, _ in truth]


class TestKnnSecondFilter:
    def test_knn_still_exact(self, index, queries):
        for q in queries:
            got, _ = index.multistep_knn(q, 10)
            truth = index.ground_truth_knn(q, 10)
            assert np.allclose([d for _, d in got], [d for _, d in truth])

    def test_knn_prunes_dtw_computations(self, index, queries):
        """With the cascade, refined count + pruned count = candidates."""
        for q in queries:
            _, stats = index.multistep_knn(q, 5)
            pruned = stats.extra.get("second_filter_pruned", 0)
            assert stats.dtw_computations + pruned == stats.candidates
