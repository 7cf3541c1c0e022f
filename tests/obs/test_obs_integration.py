"""End-to-end observability: engine spans, stats projection, wiring.

These tests pin the acceptance criteria of the observability layer:
the span tree a traced query exports reconciles *exactly* with the
``CascadeStats`` the query returned, the slow-query gate fires only
past its threshold, and the facade propagates through
``WarpingIndex`` / ``QueryByHummingSystem`` without rebuilding.
"""

import json

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import CascadeStats, QueryEngine
from repro.index import WarpingIndex
from repro.music import Melody
from repro.obs import OBS_DISABLED, Observability
from repro.qbh import QueryByHummingSystem


@pytest.fixture(scope="module")
def corpus():
    return random_walks(120, 64, seed=11)


@pytest.fixture(scope="module")
def query(corpus):
    rng = np.random.default_rng(12)
    return corpus[7] + 0.2 * rng.normal(size=64)


def _traced_query(corpus, query, run):
    obs, sink = Observability.in_memory()
    engine = QueryEngine(corpus, band=4, obs=obs)
    results, stats = run(engine, query)
    assert len(sink.traces) == 1
    return results, stats, sink.traces[0]


def _by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


class TestSpanTree:
    def test_knn_span_tree_nests_query_stage_refine_kernel(
        self, corpus, query
    ):
        _, stats, trace = _traced_query(
            corpus, query, lambda e, q: e.knn(q, 5)
        )
        spans = _by_name(trace)
        (root,) = spans["query"]
        assert root.parent_id is None
        assert root.attrs["kind"] == "knn"
        assert root.attrs["k"] == 5
        # Every stage and refine span hangs off the query root; every
        # kernel span hangs off a refine span.
        stage_spans = [
            s for name, group in spans.items() if name.startswith("stage:")
            for s in group
        ]
        assert len(stage_spans) == len(stats.stages)
        for span in stage_spans + spans["refine"]:
            assert span.parent_id == root.span_id
        refine_ids = {s.span_id for s in spans["refine"]}
        assert spans["kernel"], "refinement ran, kernel span expected"
        for span in spans["kernel"]:
            assert span.parent_id in refine_ids
            assert span.attrs["calls"] >= 0
        assert all(s.trace_id == root.trace_id for s in trace)
        assert trace[-1] is root  # root is delivered last

    def test_stage_span_attrs_reconcile_with_stats(self, corpus, query):
        _, stats, trace = _traced_query(
            corpus, query, lambda e, q: e.range_search(q, 5.0)
        )
        stage_spans = sorted(
            (s for s in trace if s.name.startswith("stage:")),
            key=lambda s: s.start_s,
        )
        assert [s.attrs["name"] for s in stage_spans] == [
            stage.name for stage in stats.stages
        ]
        for span, stage in zip(stage_spans, stats.stages):
            assert span.attrs["candidates_in"] == stage.candidates_in
            assert span.attrs["pruned"] == stage.pruned
            assert span.attrs["survivors"] == stage.survivors
        kernel_cells = sum(
            s.attrs["cells"] for s in trace if s.name == "kernel"
        )
        assert (kernel_cells > 0) == (stats.dtw_computations > 0)

    def test_from_trace_round_trips_exactly(self, corpus, query):
        for run in (lambda e, q: e.knn(q, 3),
                    lambda e, q: e.range_search(q, 5.0)):
            _, stats, trace = _traced_query(corpus, query, run)
            # Lossless from live Span objects and from their exported
            # JSONL form alike — the acceptance criterion.
            assert CascadeStats.from_trace(trace) == stats
            dicts = [json.loads(json.dumps(s.to_dict())) for s in trace]
            assert CascadeStats.from_trace(dicts) == stats

    def test_from_trace_rejects_bad_span_sets(self, corpus, query):
        _, _, trace = _traced_query(corpus, query, lambda e, q: e.knn(q, 3))
        with pytest.raises(ValueError, match="no root"):
            CascadeStats.from_trace(
                [s for s in trace if s.name != "query"]
            )
        with pytest.raises(ValueError, match="more than one"):
            CascadeStats.from_trace(list(trace) + list(trace))


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_query(self, corpus, query):
        seen = []
        obs = Observability(slow_query_s=0.0, on_slow=seen.append)
        engine = QueryEngine(corpus, band=4, obs=obs)
        engine.knn(query, 3)
        engine.range_search(query, 5.0)
        assert len(obs.slow_queries) == 2
        assert seen == list(obs.slow_queries)
        record = seen[0]
        assert record["kind"] == "knn"
        assert record["duration_ms"] >= 0
        assert record["corpus_size"] == len(corpus)

    def test_huge_threshold_logs_and_exports_nothing(self, corpus, query):
        obs, sink = Observability.in_memory(
            slow_query_s=1e9, gate_traces=True
        )
        engine = QueryEngine(corpus, band=4, obs=obs)
        results, _ = engine.knn(query, 3)
        assert results  # the query itself is unaffected
        assert list(obs.slow_queries) == []
        assert sink.traces == []  # gated: fast traces are dropped

    def test_gated_tracing_keeps_slow_traces(self, corpus, query):
        obs, sink = Observability.in_memory(
            slow_query_s=0.0, gate_traces=True
        )
        engine = QueryEngine(corpus, band=4, obs=obs)
        engine.knn(query, 3)
        assert len(sink.traces) == 1
        assert len(obs.slow_queries) == 1


class TestFacadeWiring:
    def test_disabled_facade_records_nothing(self, corpus, query):
        engine = QueryEngine(corpus, band=4)  # default: OBS_DISABLED
        assert engine.obs is OBS_DISABLED
        assert not engine.obs.enabled
        results, stats = engine.knn(query, 3)
        assert results and stats.results == 3
        assert OBS_DISABLED.metrics.snapshot()["counters"] == {}
        assert list(OBS_DISABLED.slow_queries) == []

    def test_to_files_writes_trace_and_metrics(self, corpus, query,
                                               tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        obs = Observability.to_files(
            trace_out=trace_path, metrics_out=metrics_path
        )
        engine = QueryEngine(corpus, band=4, obs=obs)
        _, stats = engine.knn(query, 3)
        obs.close()

        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        assert CascadeStats.from_trace(spans) == stats
        snap = json.loads(metrics_path.read_text())
        assert snap["counters"]["engine.queries_total{kind=knn}"] == 1

    def test_index_set_observability_reaches_cached_engine(self, corpus):
        index = WarpingIndex(corpus, delta=0.1)
        engine = index.engine()  # cached before the facade exists
        assert engine.obs is OBS_DISABLED

        obs = Observability()
        index.set_observability(obs)
        assert index.obs is obs
        assert engine.obs is obs  # propagated, not rebuilt

        results, stats = index.knn_query(corpus[3], k=2)
        assert results
        m = obs.metrics
        assert m.counter("engine.queries_total", kind="knn").value == 1
        assert (m.counter("engine.candidates_refined_total").value
                == stats.dtw_computations)
        assert m.histogram("engine.query_seconds", kind="knn").count == 1

        results, stats = index.multistep_knn(corpus[3], k=2)
        assert results
        assert m.counter("index.queries_total", kind="knn").value == 1
        assert (m.counter("index.dtw_computations_total").value
                == stats.dtw_computations)
        assert m.histogram("index.query_seconds", kind="knn").count == 1

        index.set_observability(None)
        assert index.obs is OBS_DISABLED
        assert engine.obs is OBS_DISABLED

    def test_qbh_system_passes_facade_through(self):
        melodies = [
            Melody([(60 + i, 1.0), (64 - i, 1.0), (62, 2.0)],
                   name=f"tune{i}")
            for i in range(6)
        ]
        obs = Observability()
        system = QueryByHummingSystem(melodies, obs=obs)
        assert system.obs is obs

        hum = melodies[2].to_time_series(system.samples_per_beat)
        results, _ = system.query(hum, k=2)
        assert results[0][0] == "tune2"
        assert obs.metrics.counter("index.queries_total",
                                   kind="knn").value >= 1

        system.set_observability(None)
        assert system.obs is OBS_DISABLED
