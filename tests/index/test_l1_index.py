"""End-to-end tests for the Manhattan-metric warping index.

The paper: "Other distance metrics are also possible in our framework
with some modifications."  The modifications: L1-scaled PAA features
(frame sums), L1 rectangle geometry in the backends, and L1 DTW in the
refine step.  These tests verify the whole cascade stays exact.
"""

import numpy as np
import pytest

from repro.core.envelope import k_envelope
from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform, PAATransform
from repro.datasets.generators import random_walks
from repro.dtw.distance import ldtw_distance
from repro.index.gemini import WarpingIndex


class TestL1Paa:
    def test_l1_features_are_frame_sums(self, rng):
        t = PAATransform(8, 2, norm="l1")
        x = np.arange(8, dtype=float)
        assert t.transform(x).tolist() == [0 + 1 + 2 + 3, 4 + 5 + 6 + 7]

    def test_l1_feature_distance_lower_bounds_l1(self, rng):
        t = PAATransform(64, 8, norm="l1")
        for _ in range(20):
            x = rng.normal(size=64)
            y = rng.normal(size=64)
            feat = np.abs(t(x) - t(y)).sum()
            true = np.abs(x - y).sum()
            assert feat <= true + 1e-9

    def test_metrics_attribute(self):
        assert PAATransform(8, 2).metrics == ("euclidean",)
        assert PAATransform(8, 2, norm="l1").metrics == ("manhattan",)
        assert NewPAAEnvelopeTransform(8, 2, metric="manhattan").metrics == (
            "manhattan",
        )

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PAATransform(8, 2, norm="l3")

    def test_l1_envelope_bound_sound(self, rng):
        env_t = NewPAAEnvelopeTransform(64, 8, metric="manhattan")
        for _ in range(20):
            x = np.cumsum(rng.normal(size=64))
            y = np.cumsum(rng.normal(size=64))
            env = k_envelope(y, 5)
            feats = env_t.transform_series(x)
            fe = env_t.reduce(env)
            above = np.maximum(feats - fe.upper, 0.0)
            below = np.maximum(fe.lower - feats, 0.0)
            lb = float(np.sum(above + below))
            true = ldtw_distance(x, y, 5, metric="manhattan")
            assert lb <= true + 1e-9

    def test_keogh_l1_looser_than_new_l1(self, rng):
        new = NewPAAEnvelopeTransform(64, 8, metric="manhattan")
        keogh = KeoghPAAEnvelopeTransform(64, 8, metric="manhattan")
        y = np.cumsum(rng.normal(size=64))
        env = k_envelope(y, 5)
        assert new.reduce(env).width().sum() <= keogh.reduce(env).width().sum()


class TestL1WarpingIndex:
    @pytest.fixture(scope="class")
    def walks(self):
        return list(random_walks(150, 96, seed=81))

    @pytest.fixture(scope="class")
    def l1_index(self, walks):
        return WarpingIndex(
            walks, delta=0.1, metric="manhattan",
            normal_form=NormalForm(length=64),
        )

    @pytest.mark.parametrize("kind", ["rstar", "grid", "linear"])
    def test_exact_range_queries(self, walks, kind):
        index = WarpingIndex(
            walks, delta=0.1, metric="manhattan", index_kind=kind,
            normal_form=NormalForm(length=64),
        )
        query = random_walks(1, 96, seed=82)[0]
        for eps in (10.0, 30.0):
            results, stats = index.range_query(query, eps)
            truth = index.ground_truth_range(query, eps)
            assert [i for i, _ in results] == [i for i, _ in truth]

    def test_knn_exact(self, l1_index):
        query = random_walks(1, 96, seed=83)[0]
        got, _ = l1_index.knn_query(query, 8)
        truth = l1_index.ground_truth_knn(query, 8)
        assert np.allclose([d for _, d in got], [d for _, d in truth])

    def test_distances_are_l1(self, l1_index, walks):
        results, _ = l1_index.range_query(walks[0], 1e-9)
        assert results[0][0] == 0

    def test_mismatched_transform_rejected(self, walks):
        with pytest.raises(ValueError, match="does not lower-bound"):
            WarpingIndex(
                walks, delta=0.1, metric="manhattan",
                env_transform=SignSplitEnvelopeTransform(DFTTransform(64, 8)),
                normal_form=NormalForm(length=64),
            )
        with pytest.raises(ValueError, match="does not lower-bound"):
            WarpingIndex(
                walks, delta=0.1, metric="euclidean",
                env_transform=NewPAAEnvelopeTransform(64, 8, metric="manhattan"),
                normal_form=NormalForm(length=64),
            )

    def test_rejects_unknown_metric(self, walks):
        with pytest.raises(ValueError, match="metric"):
            WarpingIndex(walks, delta=0.1, metric="cosine",
                         normal_form=NormalForm(length=64))

    def test_second_filter_consistent_l1(self, l1_index):
        query = random_walks(1, 96, seed=84)[0]
        with_filter, _ = l1_index.range_query(
            query, 25.0, stages=("new_paa", "lb_keogh"))
        without, _ = l1_index.range_query(query, 25.0, stages=("new_paa",))
        assert with_filter == without
