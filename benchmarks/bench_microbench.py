"""Micro-benchmarks of the core operations.

Unlike the experiment benches (one-shot, pedantic), these use
pytest-benchmark's normal repeated-measurement mode to time the hot
primitives: envelope computation, feature transforms, scalar vs batch
DTW, index construction, and a single (engine-backed) range query.
Useful to catch performance regressions when modifying the core.
"""

import numpy as np
import pytest

from repro.core.envelope import k_envelope
from repro.core.envelope_transforms import NewPAAEnvelopeTransform
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform, PAATransform
from repro.datasets.generators import random_walks
from repro.dtw.distance import ldtw_distance, ldtw_distance_batch
from repro.index.gemini import WarpingIndex
from repro.index.rstartree import RStarTree

LENGTH = 128
K = 6

rng = np.random.default_rng(123)
SERIES_A = np.cumsum(rng.normal(size=LENGTH))
SERIES_B = np.cumsum(rng.normal(size=LENGTH))
BATCH = np.cumsum(rng.normal(size=(500, LENGTH)), axis=1)
POINTS = rng.normal(size=(5000, 8))


@pytest.mark.benchmark(group="micro-core")
def test_micro_envelope(benchmark):
    benchmark(k_envelope, SERIES_A, K)


@pytest.mark.benchmark(group="micro-core")
def test_micro_paa_transform(benchmark):
    t = PAATransform(LENGTH, 8)
    benchmark(t.transform, SERIES_A)


@pytest.mark.benchmark(group="micro-core")
def test_micro_dft_transform(benchmark):
    t = DFTTransform(LENGTH, 8)
    benchmark(t.transform, SERIES_A)


@pytest.mark.benchmark(group="micro-core")
def test_micro_envelope_reduce(benchmark):
    env_t = NewPAAEnvelopeTransform(LENGTH, 8)
    env = k_envelope(SERIES_A, K)
    benchmark(env_t.reduce, env)


@pytest.mark.benchmark(group="micro-dtw")
def test_micro_dtw_scalar(benchmark):
    benchmark(ldtw_distance, SERIES_A, SERIES_B, K)


@pytest.mark.benchmark(group="micro-dtw")
def test_micro_dtw_batch_500(benchmark):
    benchmark(ldtw_distance_batch, SERIES_A, BATCH, K)


@pytest.mark.benchmark(group="micro-index")
def test_micro_rstar_bulk_load(benchmark):
    benchmark(RStarTree.bulk_load, POINTS, capacity=50)


@pytest.mark.benchmark(group="micro-index")
def test_micro_rstar_range_query(benchmark):
    tree = RStarTree.bulk_load(POINTS, capacity=50)
    q = np.zeros(8)

    def run():
        tree.reset_stats()
        return tree.range_search(q, q, 1.5)

    benchmark(run)


@pytest.mark.benchmark(group="micro-index")
def test_micro_warping_index_query(benchmark):
    index = WarpingIndex(
        list(BATCH), delta=0.1, normal_form=NormalForm(length=64)
    )
    query = SERIES_A

    def run():
        return index.range_query(query, 4.0)

    benchmark(run)
