"""Hum-to-answer benchmark of the query-by-humming stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload knn_serve --seed 1 --seconds 20

``--workload`` is one of ``knn_serve``, ``range_store``, ``knn_library``
and ``zipf_ingest`` (see ``perfbench/workloads.py`` for what each one
sends and why).  ``--trace 0`` sets the program up several times,
measures with tracing off and prints the end-to-end metrics;
``--trace 1`` measures once untraced and once traced (spans around the
public functions of each layer, see ``perfbench/tracing.py``) and
prints the per-layer metrics, with the traced/untraced latency ratio
as ``trace.overhead_ratio``.  Spans are written to
``.bench_work/trace-<workload>-<seed>.jsonl`` when the run ends.

Every run checks a seeded sample of its answers against brute-force
ground truth.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's context (CPU count, corpus sizes, sample counts,
request outcomes).  The exit code is 1 when any answer was wrong and
2 when the program's sources are missing.  The numbers come from
whatever machine runs this, typically a small sandbox: read them as
relative, not as capacity figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("knn_serve", "range_store", "knn_library", "zipf_ingest")
STAGES = ("first_last", "keogh_paa", "new_paa", "lb_keogh")
#: Layers whose spans' self time is reported per query (the dtw layer's
#: is ``dtw.kernel_ms_per_query``).
SELF_TIME_LAYERS = ("serve", "qbh", "core", "engine", "index")


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(run, setup, recall):
    """The metrics a user sees, from one untraced measurement."""
    samples = run.samples
    ok = [s for s in samples if s.status == "ok"]
    # A request that failed missed every latency limit.
    worst = run.elapsed_s
    lat = [s.latency_s if s.status == "ok" else worst for s in samples]
    return {
        "setup_s": (statistics.median(setup.times_s), "s"),
        "rss_setup_mb": (setup.rss_mb, "MB"),
        "throughput_qps": (len(ok) / run.elapsed_s, "1/s"),
        "latency_p50_ms": (_percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(lat, 90) * 1e3, "ms"),
        "recall_at_10": (recall, "ratio"),
    }


def per_layer(dep, run, tracer, failed, untraced_p50_s):
    """Per-layer metrics from the traced measurement's spans, the public
    return values captured by the wrappers and the service's counters."""
    spans = [s for s in tracer.spans if s.end is not None]
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    samples = run.samples
    n = max(1, len(samples))
    m = {}

    def per_query(total):
        return total / n

    request_spans = [s for s in spans if s.request_id is not None]
    layer_self = defaultdict(float)
    for s in request_spans:
        layer_self[s.layer] += own[s.span_id]
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_ms_per_query"] = (
            per_query(layer_self[layer]) * 1e3, "ms")

    # serve
    served = samples if dep.service is not None else []
    executed = [s for s in served if s.status == "ok" and not s.from_cache]
    hits = [s for s in served if s.status == "ok" and s.from_cache]
    m["serve.queue_wait_ms_p50"] = (
        _percentile([s.queue_wait_s for s in executed], 50) * 1e3, "ms")
    m["serve.batch_size_mean"] = (
        sum(s.batch_size for s in executed) / max(1, len(executed)), "count")
    sat = run.context["saturation"]
    m["serve.cache_hit_rate"] = (sat.get("cache_hit_rate", 0.0), "ratio")
    m["serve.hit_latency_ms_p50"] = (
        _percentile([s.latency_s for s in hits], 50) * 1e3, "ms")
    m["serve.miss_latency_ms_p50"] = (
        _percentile([s.latency_s for s in executed], 50) * 1e3, "ms")
    m["serve.shed"] = (sat.get("shed", 0), "count")

    # core
    m["core.normalize_ms_p50"] = (_percentile(
        [s.end - s.start for s in request_spans
         if s.name == "core.normalize"], 50) * 1e3, "ms")

    # engine (CascadeStats returned by QueryEngine.knn / range_search)
    cascades = tracer.returns["cascade"]
    for name in STAGES:
        stages = [st for c in cascades for st in c.stages if st.name == name]
        m[f"engine.stage.{name}.ms_per_query"] = (
            sum(st.wall_time_s for st in stages) / max(1, len(cascades))
            * 1e3, "ms")
        entering = sum(st.candidates_in for st in stages)
        m[f"engine.stage.{name}.prune_rate"] = (
            sum(st.pruned for st in stages) / entering if entering else 0.0,
            "ratio")
    dtws = sum(c.dtw_computations for c in cascades)
    m["engine.candidates_refined_per_query"] = (
        dtws / max(1, len(cascades)), "count")
    m["engine.refine_yield"] = (
        sum(c.results for c in cascades) / dtws if dtws else 0.0, "ratio")

    # dtw (KernelStats collected by the kernel wrappers)
    kernels = [s for s in request_spans if s.layer == "dtw"]
    calls = sum(s.attrs.get("calls", 0) for s in kernels)
    rows = sum(s.attrs.get("rows", 0) for s in kernels)
    computations = sum(s.attrs.get("computations", 0) for s in kernels)
    m["dtw.kernel_ms_per_query"] = (per_query(layer_self["dtw"]) * 1e3, "ms")
    m["dtw.calls_per_query"] = (per_query(calls), "count")
    m["dtw.rows_per_call"] = (rows / calls if calls else 0.0, "count")
    m["dtw.cells_per_query"] = (
        per_query(sum(s.attrs.get("cells", 0) for s in kernels)), "count")
    m["dtw.abandon_rate"] = (
        sum(s.attrs.get("abandoned", 0) for s in kernels) / computations
        if computations else 0.0, "ratio")

    # index (QueryStats returned by QueryByHummingSystem.query)
    qstats = tracer.returns["query_stats"]
    nq = max(1, len(qstats))
    m["index.tree_ms_per_query"] = (per_query(sum(
        s.end - s.start for s in request_spans
        if s.name == "index.nearest")) * 1e3, "ms")
    m["index.page_accesses_per_query"] = (
        sum(q.page_accesses for q in qstats) / nq, "count")
    m["index.candidates_per_query"] = (
        sum(q.candidates for q in qstats) / nq, "count")
    m["index.second_filter_pruned_per_query"] = (
        sum(q.extra.get("second_filter_pruned", 0) for q in qstats) / nq,
        "count")

    # set-up spans: the last set-up of the traced phase
    def under_setup(span):
        parent = by_id.get(span.parent_id)
        return parent is not None and parent.layer == "setup"

    m["index.bulk_load_s"] = (sum(
        s.end - s.start for s in spans
        if s.name == "index.bulk_load" and _in_setup(s, by_id)), "s")
    builds = [s for s in spans if s.name == "store.build"]
    m["store.build_s"] = (sum(s.end - s.start for s in builds), "s")
    m["store.open_s"] = (sum(
        own[s.span_id] for s in spans
        if s.name in ("store.open", "store.from_store") and under_setup(s)),
        "s")
    m["store.bytes_per_row"] = (_store_bytes_per_row(dep), "B")

    # ingest
    rebuilds = [s for s in spans if s.name == "ingest.build"]
    swaps = [s for s in spans if s.name == "ingest.swap"]
    snap = sat.get("ingest", {})
    m["ingest.rebuild_s_p50"] = (
        _percentile([s.end - s.start for s in rebuilds], 50), "s")
    m["ingest.swap_s_p50"] = (
        _percentile([s.end - s.start for s in swaps], 50), "s")
    m["ingest.rebuilds"] = (snap.get("rebuilds_total", 0), "count")
    m["ingest.failures"] = (snap.get("failures_total", 0), "count")
    visible = [v for v in run.context.get("visible_s", []) if v is not None]
    m["ingest_visible_p50_s"] = (_percentile(visible, 50), "s")
    build_time = sum(s.end - s.start for s in rebuilds)
    m["ingest_rows_per_s"] = (
        sum(s.attrs.get("new_rows", 0) for s in rebuilds) / build_time
        if build_time else 0.0, "rows/s")

    m["error_rate"] = (failed / n, "ratio")
    traced_p50 = _percentile([s.latency_s for s in samples], 50)
    m["trace.overhead_ratio"] = (
        traced_p50 / untraced_p50_s if untraced_p50_s else 0.0, "ratio")
    return m


def _in_setup(span, by_id) -> bool:
    while span is not None:
        if span.layer == "setup":
            return True
        span = by_id.get(span.parent_id)
    return False


def _store_bytes_per_row(dep) -> float:
    store = getattr(dep.index, "store", None)
    if store is None:
        return 0.0
    directory = Path(store.directory)
    size = sum(f.stat().st_size for f in directory.iterdir() if f.is_file())
    return size / store.rows


def _context(spec, inputs, run, checks, setup, trace):
    samples = run.samples
    lat = np.array([s.latency_s for s in samples])
    statuses = defaultdict(int)
    for s in samples:
        statuses[s.status] += 1
    return {
        "label": f"sandbox numbers: {os.cpu_count()}-CPU machine, one "
                 "process, shared host",
        "nproc": os.cpu_count(),
        "workload": spec.name,
        "loop": "open" if spec.entry == "open_loop" else "closed",
        "clients": None if spec.entry == "open_loop" else 1,
        "corpus_rows": len(inputs.series),
        "distinct_hums": len(inputs.hums),
        "k": 10 if spec.kind == "knn" else None,
        "epsilon": spec.epsilon if spec.kind == "range" else None,
        "requests": {"sent": len(samples), "ok": statuses.pop("ok", 0),
                     "failed": dict(statuses)},
        "latency_ms": {
            "latency_p50_ms": _percentile(lat, 50) * 1e3,
            "latency_p90_ms": _percentile(lat, 90) * 1e3,
            "latency_mean_ms": float(lat.mean()) * 1e3 if len(lat) else 0.0,
            "samples": len(lat),
        },
        "results_per_request_mean": float(np.mean(
            [len(s.results) for s in samples if s.results is not None]
            or [0])),
        "measured_s": run.elapsed_s,
        "setup_runs_s": setup.times_s,
        "store_build_s": setup.build_s,
        "checks": checks,
        "traced": bool(trace),
        **{k: v for k, v in run.context.items()
           if k not in ("visible_s", "saturation")},
        "ingest_visible_samples": len(run.context.get("visible_s", [])),
        "p90_tail_samples": int(np.sum(lat > np.percentile(lat, 90)))
        if len(lat) else 0,
    }


def run_benchmark(workload, seed, seconds, trace, *, max_requests=None,
                  delays=None, untraced_phase=True):
    """One benchmark run; returns (final_record, context, exit_code).

    *max_requests* caps the requests sent (the self-test compares runs
    of equal length), *delays* adds sleeps to named spans and
    *untraced_phase* (traced runs only) measures an untraced baseline
    first, for ``trace.overhead_ratio``.
    """
    import workloads as wl  # needs the program's sources on sys.path

    spec = wl.SPECS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    phases = {}
    clock = time.perf_counter()

    def lap(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - clock
        clock = now

    try:
        inputs = wl.make_inputs(spec, seed, seconds, max_requests)
        lap("inputs")
        untraced_p50 = None
        if trace and untraced_phase:
            dep = wl.timed_setups(spec, inputs, str(workdir), 1).dep
            try:
                base = wl.drive(spec, dep, inputs, seconds)
            finally:
                dep.close()
            untraced_p50 = _percentile([s.latency_s for s in base.samples],
                                       50)
            lap("untraced_phase")
        if trace:
            tracer = Tracer()
            tracer.delays.update(delays or {})
            tracer.install()
            tracer.recording = True
        repeats = 1 if trace else wl.SETUP_REPEATS
        setup = wl.timed_setups(spec, inputs, str(workdir), repeats, tracer)
        dep = setup.dep
        lap("setup")
        try:
            run = wl.drive(spec, dep, inputs, seconds, tracer)
            lap("measure")
            if tracer is not None:
                tracer.recording = False
            checks = wl.check_answers(spec, dep, inputs, run.samples, seed)
            lap("checks")
            failed = (sum(s.status != "ok" for s in run.samples)
                      + checks["wrong"])
            recall = wl.recall_at_10(spec, dep, inputs, run.samples)
            if trace:
                metrics = per_layer(dep, run, tracer, failed, untraced_p50)
                tracer.write(ROOT / ".bench_work"
                             / f"trace-{workload}-{seed}.jsonl")
            else:
                metrics = end_to_end(run, setup, recall)
        finally:
            dep.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "correct": checks["wrong"] == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    context = _context(spec, inputs, run, checks, setup, trace)
    context["recall_at_10"] = recall
    context["phase_s"] = phases
    if tracer is not None:
        counts = defaultdict(int)
        for span in tracer.spans:
            if span.request_id is not None:
                counts[span.name] += 1
        context["spans_per_query"] = {
            name: count / max(1, len(run.samples))
            for name, count in sorted(counts.items())}
    return record, context, 0 if record["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    record, context, code = run_benchmark(
        args.workload, args.seed, args.seconds, args.trace)
    context["run_wall_s"] = time.perf_counter() - started
    print(json.dumps({"context": context}))
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
