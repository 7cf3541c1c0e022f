"""Layer-attribution self-test of the benchmark's tracing.

Run from the root of a checkout::

    python3 perfbench/attribution.py [--seed 5]

Each case injects a fixed delay into one layer's public function —
``lb_first_last_batch`` (engine), the DTW batch kernel
``ldtw_distance_batch`` (dtw) and ``ResultCache.get`` (serve) — and
runs the workload that layer works hardest on traced, without, with
and again without the delay, on the same seed and a fixed number of
requests.  The two runs without it are averaged, so drift of the
machine's speed during the test cancels.  A case passes when

* the injected layer's self time per query grows by at least half the
  delay it received per query;
* every other layer's self time per query stays within
  ``max(REL_TOL × baseline, ABS_TOL_MS)`` of its baseline;
* the workload's mean end-to-end latency grows by at least half the
  injected delay per query (the mean, because the delay a query gets
  varies with how often it calls the function);
* the mean latency of a workload that does not call the function
  (``knn_library``, which takes the R*-tree path and no service) stays
  within ``REL_TOL`` of its baseline.

The process exits 0 when every case passes and prints one JSON line
per case.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, run_benchmark

#: (span name, layer, self-time metric of the layer, workload the
#:  layer does the work on, delay in seconds)
CASES = (
    ("engine.first_last", "engine", "engine.self_ms_per_query",
     "range_store", 0.010),
    ("dtw.batch", "dtw", "dtw.kernel_ms_per_query", "knn_serve", 0.001),
    ("serve.cache_get", "serve", "serve.self_ms_per_query",
     "zipf_ingest", 0.005),
)
PREDICTED = "latency_mean_ms"
CONTROL = "knn_library"
#: Self-time metrics of every layer on the query path.
LAYER_METRICS = ("serve.self_ms_per_query", "qbh.self_ms_per_query",
                 "core.self_ms_per_query", "engine.self_ms_per_query",
                 "dtw.kernel_ms_per_query", "index.self_ms_per_query")
REQUESTS = {"range_store": 80, "knn_serve": 60, "zipf_ingest": 120,
            CONTROL: 60}
REL_TOL = 0.25
ABS_TOL_MS = 1.5


def traced(workload, seed, delays=None):
    record, context, code = run_benchmark(
        workload, seed, 1e9, 1, max_requests=REQUESTS[workload],
        delays=delays, untraced_phase=False)
    if code != 0:
        raise SystemExit(f"{workload}: wrong answers during the self-test")
    values = {k: v["value"] for k, v in record["metrics"].items()}
    values.update(context["latency_ms"])
    values["injected_calls_per_query"] = context["spans_per_query"]
    return values


def with_and_without(workload, seed, delays):
    """(mean of the runs before and after, run with *delays*)."""
    before = traced(workload, seed)
    hit = traced(workload, seed, delays)
    after = traced(workload, seed)
    base = {m: (before[m] + after[m]) / 2
            for m in before if isinstance(before[m], float)}
    return base, hit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    passed = True
    for span, layer, own_metric, workload, delay in CASES:
        base, hit = with_and_without(workload, args.seed, {span: delay})
        control_base, control = with_and_without(CONTROL, args.seed,
                                                 {span: delay})
        injected_ms = delay * 1e3 * hit["injected_calls_per_query"].get(
            span, 0.0)
        moved = {m: hit[m] - base[m] for m in LAYER_METRICS}
        others = {m: d for m, d in moved.items() if m != own_metric
                  and abs(d) > max(REL_TOL * base[m], ABS_TOL_MS)}
        control_shift = control[PREDICTED] / control_base[PREDICTED] - 1.0
        checks = {
            "injected_layer_moved":
                injected_ms > 0 and moved[own_metric] >= 0.5 * injected_ms,
            "other_layers_still": not others,
            "predicted_metric_moved":
                hit[PREDICTED] - base[PREDICTED] >= 0.5 * injected_ms,
            "bypassing_workload_still": abs(control_shift) <= REL_TOL,
        }
        ok = all(checks.values())
        passed &= ok
        print(json.dumps({
            "injected": span, "layer": layer, "workload": workload,
            "delay_ms": delay * 1e3,
            "injected_ms_per_query": injected_ms,
            "layer_self_ms": {m: [base[m], hit[m]] for m in LAYER_METRICS},
            PREDICTED: [base[PREDICTED], hit[PREDICTED]],
            "moved_elsewhere": others,
            f"{CONTROL}_latency_shift": control_shift,
            "checks": checks, "passed": ok,
        }))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
