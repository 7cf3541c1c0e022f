"""Live serving across ingest-triggered generation swaps.

The zero-downtime acceptance contract: a :class:`QBHService` over a
store-backed index keeps serving byte-identical answers across at
least three generation swaps, the versioned result cache is
invalidated exactly once per swap, and no request is dropped.
"""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.index.gemini import WarpingIndex
from repro.ingest import IngestCoordinator, IngestQueue, StreamingIndexBuilder
from repro.serve import QBHService
from repro.shard import RouterClosed
from repro.store import CorpusStore


def _walk(seed, length=110):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=length))


def test_three_swaps_byte_identical_cache_invalidated_once(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(20)],
                             [f"m{i}" for i in range(20)])
    live = WarpingIndex.from_store(store)
    queue = IngestQueue()
    service = QBHService.from_index(live, max_batch=4)
    coordinator = IngestCoordinator(live, queue, min_batch=100)
    service.attach_ingest(coordinator)
    hums = [_walk(1000 + i) for i in range(3)]
    try:
        for swap in range(3):
            # warm the cache: second identical request must hit
            before = service.saturation()
            for hum in hums:
                assert service.knn(hum, 3).ok
            warm = [service.knn(hum, 3) for hum in hums]
            assert all(outcome.from_cache for outcome in warm), (
                "repeat requests must be served from the cache"
            )
            mutations = live.mutations
            for j in range(2):
                queue.add(f"s{swap}_{j}", _walk(2000 + 10 * swap + j))
            assert coordinator.rebuild_now() is not None
            assert live.mutations == mutations + 1, (
                "one swap must bump the version exactly once"
            )
            # first post-swap request recomputes (stale version evicted),
            # and is byte-identical to a fresh index on the new generation
            reference = WarpingIndex.from_store(CorpusStore.open(root))
            for hum in hums:
                outcome = service.knn(hum, 3)
                assert outcome.ok and not outcome.from_cache, (
                    "the swap must invalidate cached answers"
                )
                expected, _ = reference.knn_query(hum, 3)
                assert outcome.results == tuple(
                    (item, float(dist)) for item, dist in expected
                )
                # ...and exactly once: the recomputed answer caches again
                assert service.knn(hum, 3).from_cache
            after = service.saturation()
            assert after["error"] == before["error"] == 0
            assert after["shed"] == 0
            snapshot = after["ingest"]
            assert snapshot["rebuilds_total"] == swap + 1
            assert snapshot["failures_total"] == 0
    finally:
        service.close()
    assert not coordinator.running


def test_router_closed_is_retried_exactly_once():
    """The serve layer refetches the engine when a swap closed its router."""

    class GoodEngine:
        def knn(self, query, k, should_abort=None):
            return ((("m0", 1.0),), None)

    class ClosingEngine:
        def __init__(self):
            self.calls = 0

        def knn(self, query, k, should_abort=None):
            self.calls += 1
            raise RouterClosed("router is closed")

    closing = ClosingEngine()
    engines = [closing, GoodEngine()]
    versions = iter(range(100))
    service = QBHService(lambda: engines.pop(0),
                         version_fn=lambda: next(versions))
    try:
        outcome = service.knn(np.zeros(8), 1)
        assert outcome.ok
        assert outcome.results == (("m0", 1.0),)
        assert closing.calls == 1
    finally:
        service.close()


def test_router_closed_twice_is_an_error():
    class AlwaysClosed:
        def knn(self, query, k, should_abort=None):
            raise RouterClosed("router is closed")

    service = QBHService(lambda: AlwaysClosed(),
                         version_fn=lambda: 0)
    try:
        outcome = service.knn(np.zeros(8), 1)
        assert outcome.status == "error"
        assert "RouterClosed" in outcome.error
    finally:
        service.close()


def test_attach_ingest_rejects_double_attach(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build([_walk(i) for i in range(5)],
                             [f"m{i}" for i in range(5)])
    live = WarpingIndex.from_store(store)
    service = QBHService.from_index(live)
    coordinator = IngestCoordinator(live, IngestQueue())
    try:
        service.attach_ingest(coordinator)
        with pytest.raises(RuntimeError, match="already attached"):
            service.attach_ingest(IngestCoordinator(live, IngestQueue()))
        assert "ingest" in service.saturation()
    finally:
        service.close()
