"""Streaming-ingest benchmark — columnar store build at corpus scale.

Three phases over the PR's new store/ingest subsystem:

1. **Bulk load** — one streaming pass builds a subsequence-kind store
   generation (10^4 windows at smoke scale, 10^5 at full) under a
   fixed staging-memory budget.  Gated: the builder's deterministic
   ``peak_buffer_bytes`` account must stay within the budget, the row
   count must match the window arithmetic exactly, and the sealed
   generation must pass ``CorpusStore.verify()`` (per-file SHA-256,
   shape, and envelope-bound checks).  ``ru_maxrss`` is recorded as
   informational context (it includes the interpreter + test harness).
2. **Query check** — the store-backed :class:`SubsequenceIndex` answers
   range queries over the float32 columns; a random sample of windows
   is re-scored with the exact banded-DTW kernel and every sampled
   window within epsilon must appear in the index answer — the
   zero-false-negative contract, gated at 0.
3. **Live swaps** — a :class:`QBHService` over a melody-kind store
   serves while an :class:`IngestCoordinator` performs three
   ingest-triggered generation swaps; after each swap the served
   answers must be byte-identical to a fresh index opened on the new
   generation, with ``mutations`` bumped exactly once per swap.

Writes ``BENCH_ingest.json`` (with an ``ingest`` section validated by
``tools/check_bench_schema.py --section ingest``) and appends one entry
to ``BENCH_history.jsonl`` for the ``repro perf check`` gate.
"""

import json
import os
import resource
from pathlib import Path

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.dtw.distance import ldtw_distance_batch
from repro.index.gemini import WarpingIndex
from repro.index.subsequence import SubsequenceIndex
from repro.ingest import IngestCoordinator, IngestQueue, StreamingIndexBuilder
from repro.obs.clock import monotonic_s
from repro.serve import QBHService
from repro.store import CorpusStore

from _harness import print_series, record_history

WINDOW_LENGTH = 64
STRIDE = 4
SEQ_LEN = 460            # (460 - 64) / 4 + 1 = 100 windows per sequence
BUDGET_MB = 32.0
EPS_QUANTILE = 0.6
SAMPLE_WINDOWS = 400
SWAPS = 3

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


def _sequences(count, seed):
    """Deterministic lazy random walks — the streaming input."""
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        yield np.cumsum(rng.normal(0.0, 1.0, size=SEQ_LEN))


@pytest.mark.benchmark(group="ingest")
def test_streaming_build_query_and_swaps(benchmark, scale, tmp_path):
    n_sequences = 100 if scale.name == "smoke" else 1000
    expected_rows = n_sequences * ((SEQ_LEN - WINDOW_LENGTH) // STRIDE + 1)

    # --- phase 1: bulk load under a memory ceiling ------------------
    sub_root = str(tmp_path / "sub-store")
    builder = StreamingIndexBuilder(
        sub_root, kind="subsequence", delta=0.1,
        normal_form=NormalForm(length=WINDOW_LENGTH),
        window_lengths=(WINDOW_LENGTH,), stride=STRIDE,
        memory_budget_mb=BUDGET_MB,
    )

    def build():
        import shutil

        shutil.rmtree(sub_root, ignore_errors=True)
        return builder.build(_sequences(n_sequences, seed=17),
                             [f"seq{i:05d}" for i in range(n_sequences)])

    store, report = benchmark.pedantic(build, rounds=1, iterations=1)
    assert report.rows == expected_rows, (report.rows, expected_rows)
    assert report.peak_buffer_bytes <= report.budget_bytes, (
        f"staging peak {report.peak_buffer_bytes} exceeds the "
        f"{report.budget_bytes}-byte budget"
    )
    store.verify()  # checksums, shapes, envelope bounds
    ru_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # --- phase 2: sampled zero-false-negative query check -----------
    query_started = monotonic_s()
    index = SubsequenceIndex.from_store(store)
    rng = np.random.default_rng(91)
    sample = rng.choice(report.rows, size=min(SAMPLE_WINDOWS, report.rows),
                        replace=False)
    false_negatives = 0
    queries = 4
    for q_i in range(queries):
        base = np.asarray(index._normalized[int(rng.integers(report.rows))],
                          dtype=np.float64)
        query = base + 0.1 * rng.normal(size=base.size)
        q = index.normal_form.apply(query)
        sampled_dists = ldtw_distance_batch(
            q, index._normalized[np.sort(sample)], index.band
        )
        epsilon = float(np.quantile(sampled_dists, EPS_QUANTILE))
        matches, stats = index.range_query(query, epsilon,
                                           best_per_sequence=False)
        got = {(m.sequence_id, m.start) for m in matches}
        for row, dist in zip(np.sort(sample), sampled_dists):
            if dist <= epsilon:
                seq_row, start, _ = index._windows[int(row)]
                if (index.ids[seq_row], start) not in got:
                    false_negatives += 1
        assert stats.candidates >= len(matches)
    query_wall_s = monotonic_s() - query_started
    assert false_negatives == 0, (
        f"{false_negatives} sampled windows within epsilon missing from "
        f"the store-backed answer"
    )

    # --- phase 3: live serving across ingest-triggered swaps --------
    swap_started = monotonic_s()
    mel_root = str(tmp_path / "mel-store")
    mel_rng = np.random.default_rng(23)
    mel_builder = StreamingIndexBuilder(
        mel_root, kind="melody", delta=0.1,
        normal_form=NormalForm(length=WINDOW_LENGTH),
        memory_budget_mb=BUDGET_MB,
    )
    mel_store, _ = mel_builder.build(
        [np.cumsum(mel_rng.normal(size=120)) for _ in range(60)],
        [f"m{i:04d}" for i in range(60)],
    )
    live = WarpingIndex.from_store(mel_store)
    queue = IngestQueue()
    service = QBHService.from_index(live, max_batch=4)
    coordinator = IngestCoordinator(live, queue, min_batch=5,
                                    memory_budget_mb=BUDGET_MB)
    service.attach_ingest(coordinator)
    hums = [np.cumsum(mel_rng.normal(size=110)) for _ in range(4)]
    parity_mismatches = 0
    rebuild_s = []
    try:
        for swap in range(SWAPS):
            generation = live.store.generation
            mutations = live.mutations
            for j in range(5):
                queue.add(f"swap{swap}_{j}",
                          np.cumsum(mel_rng.normal(size=120)))
            deadline = monotonic_s() + 60.0
            while live.store.generation == generation:
                assert monotonic_s() < deadline, f"swap {swap} timed out"
            assert live.mutations == mutations + 1, (
                "a generation swap must bump mutations exactly once"
            )
            reference = WarpingIndex.from_store(CorpusStore.open(mel_root))
            for hum in hums:
                outcome = service.knn(hum, 3)
                assert outcome.ok, outcome
                expected, _ = reference.knn_query(hum, 3)
                expected = tuple((i, float(d)) for i, d in expected)
                if outcome.results != expected:
                    parity_mismatches += 1
            rebuild_s.append(
                coordinator.snapshot()["last_rebuild_s"] or 0.0
            )
    finally:
        service.close()
    swap_wall_s = monotonic_s() - swap_started
    assert parity_mismatches == 0, (
        f"{parity_mismatches} served answers diverged from a fresh index "
        f"on the swapped generation"
    )

    # --- report ------------------------------------------------------
    print_series(
        f"Streaming ingest at {report.rows} windows "
        f"({n_sequences} sequences, budget {BUDGET_MB:.0f} MiB, "
        f"{os.cpu_count()} cores)",
        {
            "phase": ["build", "query", "swaps"],
            "wall_s": [round(report.build_s, 3), round(query_wall_s, 3),
                       round(swap_wall_s, 3)],
            "detail": [
                f"{report.rows_per_s:.0f} rows/s, {report.flushes} flushes",
                f"{queries} queries, 0 false negatives",
                f"{SWAPS} swaps, 0 mismatches",
            ],
        },
    )

    payload = {
        "workload": {
            "corpus_size": report.rows,
            "sequences": n_sequences,
            "window_length": WINDOW_LENGTH,
            "stride": STRIDE,
            "memory_budget_mb": BUDGET_MB,
            "cpu_count": os.cpu_count(),
            "scale": scale.name,
        },
        "timings_ms": {
            "build_wall": round(report.build_s * 1e3, 3),
            "query_wall": round(query_wall_s * 1e3, 3),
            "swap_wall": round(swap_wall_s * 1e3, 3),
        },
        "ingest": {
            "rows": report.rows,
            "rows_per_s": round(report.rows_per_s, 1),
            "flushes": report.flushes,
            "chunk_rows": report.chunk_rows,
            "peak_buffer_bytes": report.peak_buffer_bytes,
            "budget_bytes": report.budget_bytes,
            "ru_maxrss_kb": ru_maxrss_kb,
            "feature_margin": report.feature_margin,
            "swaps": SWAPS,
            "swap_rebuild_s": [round(s, 4) for s in rebuild_s],
            "parity_mismatches": parity_mismatches,
            "false_negatives": false_negatives,
        },
        "checks": {
            "budget_respected": True,
            "store_verified": True,
            "rows_expected": expected_rows,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    record_history("ingest", payload)
    print(f"\nwrote {OUT_PATH.name}")
