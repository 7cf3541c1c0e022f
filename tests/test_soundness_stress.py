"""Randomised cross-configuration soundness stress test.

One test to rule them out: across random combinations of envelope
transform, feature dimensionality, backend, warping width, metric, and
dataset family, the warping index must return exactly the ground-truth
answer.  Catches any interaction bug the per-module tests might miss.
"""

import numpy as np
import pytest

from repro.core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from repro.core.normal_form import NormalForm
from repro.core.transforms import DFTTransform, HaarTransform
from repro.datasets.generators import make_dataset
from repro.index.gemini import WarpingIndex

LENGTH = 64
FAMILIES = ("Random_Walk", "Shuttle", "EEG", "Tide", "Burst")


def build_transform(kind: str, n_features: int, metric: str):
    if kind == "new_paa":
        return NewPAAEnvelopeTransform(LENGTH, n_features, metric=metric)
    if kind == "keogh_paa":
        return KeoghPAAEnvelopeTransform(LENGTH, n_features, metric=metric)
    if kind == "dft":
        return SignSplitEnvelopeTransform(DFTTransform(LENGTH, n_features))
    if kind == "haar":
        return SignSplitEnvelopeTransform(HaarTransform(LENGTH, n_features))
    raise AssertionError(kind)


def random_config(rng):
    metric = rng.choice(["euclidean", "euclidean", "manhattan"])
    if metric == "manhattan":
        kind = rng.choice(["new_paa", "keogh_paa"])
    else:
        kind = rng.choice(["new_paa", "keogh_paa", "dft", "haar"])
    return {
        "kind": str(kind),
        "metric": str(metric),
        "n_features": int(rng.choice([4, 8, 16])),
        "backend": str(rng.choice(["rstar", "grid", "linear"])),
        "delta": float(rng.choice([0.0, 0.05, 0.1, 0.25])),
        "family": str(rng.choice(FAMILIES)),
        "capacity": int(rng.choice([8, 50])),
    }


@pytest.mark.parametrize("trial", range(12))
def test_random_configuration_is_exact(trial):
    rng = np.random.default_rng(1000 + trial)
    config = random_config(rng)
    data = make_dataset(config["family"], 80, 90, seed=trial)
    env_t = build_transform(config["kind"], config["n_features"],
                            config["metric"])
    index = WarpingIndex(
        list(data),
        delta=config["delta"],
        env_transform=env_t,
        normal_form=NormalForm(length=LENGTH),
        index_kind=config["backend"],
        capacity=config["capacity"],
        metric=config["metric"],
    )
    queries = [
        data[int(rng.integers(80))] + rng.normal(0, 0.2, size=90),
        make_dataset(config["family"], 1, 90, seed=999 + trial)[0],
    ]
    for query in queries:
        truth_all = index.ground_truth_range(query, np.inf)
        # Pick epsilon at the 10th closest so answers are non-trivial.
        epsilon = truth_all[min(9, len(truth_all) - 1)][1] * 1.001
        results, stats = index.range_query(query, epsilon)
        truth = index.ground_truth_range(query, epsilon)
        assert [i for i, _ in results] == [i for i, _ in truth], config
        assert stats.exact_candidates >= stats.results
        candidates, _ = index.filter_query(query, epsilon)
        assert {i for i, _ in truth} <= set(candidates), config

        knn_truth = index.ground_truth_knn(query, 5)
        for knn, _ in (index.knn_query(query, 5),
                       index.multistep_knn(query, 5)):
            assert np.allclose(
                [d for _, d in knn], [d for _, d in knn_truth]
            ), config
