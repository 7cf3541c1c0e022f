"""The hum-to-answer workloads: inputs, deployment, load, checks.

Every workload hums known database melodies
(``hum.singer.hum_melody`` with ``SingerProfile.better()``, then one
``hum.degrade`` scenario at severity 0.5, cycling through the five
scenarios) and sends the plain pitch arrays through a public entry
point of the program.  The closed-loop workloads use one client, so a
request's latency is the program's own time and no layer's numbers
include waiting behind another request:

``knn_serve``
    k=10 k-NN through ``QBHService.from_system`` over 2·10⁴ in-memory
    melodies.  Every hum is unique, so the result cache never hits and
    exact DTW refinement does the work.
``range_store``
    ε-range queries through ``QBHService.from_index`` over 10⁵ melodies
    built by ``StreamingIndexBuilder`` and opened with
    ``WarpingIndex.from_store`` (float32 columns).  ε = 18 lies between
    the lower quartile and the median of the hums' 10-NN distances
    (about 15 answers per hum), so the filter stages do the work and
    refinement is small.
``knn_library``
    ``QueryByHummingSystem.query(hum, k=10)`` over 10³ melodies: the
    R*-tree ``nearest()`` path with per-candidate refinement.  Over
    5·10³ melodies a query takes ~0.2 s and a run collects too few
    answers for a steady 90th percentile.
``zipf_ingest``
    Open loop.  Zipf-repeated hums (pool of 64, s=1.1) arrive on a
    Poisson schedule and are submitted with ``QBHService.submit`` over a
    2·10⁴-row store-backed index with ``attach_ingest``; a batch of new
    melodies is staged after every tenth sent request, so cache hits
    and ingest swaps interleave the same way on every run.  Its
    latency swings with how arrivals line up with rebuilds, so it is
    not among the gated workloads; it feeds the per-layer numbers of
    the serve cache and ingest and the attribution self-test.

The database of each workload is generated from a fixed seed: it plays
the part of the deployment's data.  ``--seed`` drives everything a
run sends at it — which melodies are hummed and how, the Zipf and
Poisson schedules, and the ingested melodies — so different seeds
sample different query streams against the same data.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.normal_form import NormalForm
from repro.hum.degrade import degrade, scenario_names
from repro.hum.singer import SingerProfile, hum_melody
from repro.index.gemini import WarpingIndex
from repro.ingest import IngestCoordinator, IngestQueue, StreamingIndexBuilder
from repro.music.corpus import generate_corpus, segment_corpus
from repro.qbh.system import QueryByHummingSystem
from repro.serve import QBHService
from repro.store import CorpusStore

K = 10
SEVERITY = 0.5
SAMPLES_PER_BEAT = 8
NORMAL_LENGTH = 128
DELTA = 0.1
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Answers per run compared against the brute-force ground truth.
CHECKS = 12
#: Seed of every workload's database (the query stream uses --seed).
DB_SEED = 2003
#: Client-side wait for one synchronous answer before counting an error.
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Spec:
    name: str
    songs: int
    kind: str                   # "knn" or "range"
    entry: str                  # "service", "library" or "open_loop"
    store: bool = False
    #: Hums pre-generated per measured second (a ceiling on qps).
    hums_per_s: int = 120
    epsilon: float = 0.0
    # open loop only
    rate_per_s: float = 0.0
    pool: int = 0
    zipf_s: float = 0.0
    stage_every: int = 0
    batch_melodies: int = 0


SPECS = {
    "knn_serve": Spec("knn_serve", songs=1000, kind="knn", entry="service"),
    "range_store": Spec("range_store", songs=5000, kind="range",
                        entry="service", store=True, epsilon=18.0),
    "knn_library": Spec("knn_library", songs=50, kind="knn",
                        entry="library", hums_per_s=60),
    "zipf_ingest": Spec("zipf_ingest", songs=1000, kind="knn",
                        entry="open_loop", store=True, rate_per_s=8.0,
                        pool=64, zipf_s=1.1, stage_every=10,
                        batch_melodies=20),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    melodies: list            # database melodies (QueryByHummingSystem)
    series: list              # their pitch series (store builds)
    groups: np.ndarray        # note-for-note duplicate group per row
    hums: list                # plain pitch arrays, in send order
    targets: np.ndarray       # database row each hum was sung from
    warm_hum: np.ndarray      # one extra hum for the warm-up request
    # open loop only
    due_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    picks: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    batches: list = field(default_factory=list)   # [(ids, series)]


def _melody_series(melodies) -> list:
    return [np.asarray(m.to_time_series(SAMPLES_PER_BEAT), dtype=float)
            for m in melodies]


def _groups(series) -> np.ndarray:
    seen: dict[bytes, int] = {}
    return np.array([seen.setdefault(s.tobytes(), row)
                     for row, s in enumerate(series)])


def _hum(melody, rng, scenario) -> np.ndarray:
    raw = hum_melody(melody, SingerProfile.better(), rng)
    return np.ascontiguousarray(
        degrade(raw, scenario, SEVERITY, rng=rng), dtype=np.float64)


def make_inputs(spec: Spec, seed: int, seconds: float,
                max_requests: int | None) -> Inputs:
    melodies = segment_corpus(generate_corpus(spec.songs, seed=DB_SEED),
                              per_song=20, seed=DB_SEED)
    series = _melody_series(melodies)
    rng = np.random.default_rng(seed)
    scenarios = scenario_names()
    if spec.entry == "open_loop":
        count = max_requests or int(round(spec.rate_per_s * seconds))
        # A Poisson process conditioned on its count: the number sent per
        # run is fixed, the gaps between sends are still exponential.
        span = count / spec.rate_per_s
        due = np.sort(rng.uniform(0.0, span, count))
        weights = 1.0 / np.arange(1, spec.pool + 1) ** spec.zipf_s
        picks = rng.choice(spec.pool, size=count, p=weights / weights.sum())
        n_hums = spec.pool
    else:
        count = max_requests or int(math.ceil(seconds * spec.hums_per_s))
        due, picks = np.zeros(0), np.zeros(0, int)
        n_hums = count
    targets = rng.integers(0, len(melodies), n_hums)
    hums = [_hum(melodies[t], rng, scenarios[i % len(scenarios)])
            for i, t in enumerate(targets)]
    # The warm-up request is part of set-up, so it is the same on every
    # seed: set-up time then compares across runs.
    warm_rng = np.random.default_rng(DB_SEED)
    warm_hum = _hum(melodies[int(warm_rng.integers(len(melodies)))],
                    warm_rng, scenarios[0])
    batches = []
    if spec.entry == "open_loop":
        n_batches = len(picks) // spec.stage_every
        new = segment_corpus(
            generate_corpus(max(1, -(-n_batches * spec.batch_melodies // 20)),
                            seed=seed + 1),
            per_song=20, seed=seed + 1)
        new_series = _melody_series(new)
        for b in range(n_batches):
            lo = b * spec.batch_melodies
            ids = list(range(len(series) + lo,
                             len(series) + lo + spec.batch_melodies))
            batches.append((ids, new_series[lo:lo + spec.batch_melodies]))
    return Inputs(melodies=melodies, series=series, groups=_groups(series),
                  hums=hums, targets=targets, warm_hum=warm_hum,
                  due_s=due, picks=picks, batches=batches)


# ----------------------------------------------------------------------
# deployment (everything timed as set-up)
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    index: object
    system: object = None
    service: object = None
    queue: object = None      # ingest staging queue, open loop only

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def build_store(spec: Spec, inputs: Inputs, workdir: str) -> str:
    """The offline step of the store workloads: stream the database into
    a fresh columnar store (float32 segments, fsynced) and return it."""
    store_dir = os.path.join(workdir, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    builder = StreamingIndexBuilder(
        store_dir, kind="melody", delta=DELTA,
        normal_form=NormalForm(length=NORMAL_LENGTH, shift=True))
    builder.build(inputs.series, range(len(inputs.series)))
    return store_dir


def deploy(spec: Spec, inputs: Inputs, store_dir: str | None) -> Deployment:
    """Build the program state a serving process builds before its first
    request, up to and including one warm request."""
    if spec.store:
        index = WarpingIndex.from_store(CorpusStore.open(store_dir))
        system = None
    else:
        system = QueryByHummingSystem(inputs.melodies, delta=DELTA,
                                      normal_length=NORMAL_LENGTH)
        index = system.index
    dep = Deployment(index=index, system=system)
    if spec.entry == "library":
        system.query(inputs.warm_hum, K)
        return dep
    dep.service = QBHService.from_index(index)
    if spec.entry == "open_loop":
        dep.queue = IngestQueue()
        dep.service.attach_ingest(IngestCoordinator(
            index, dep.queue, min_batch=spec.batch_melodies))
    if spec.kind == "range":
        dep.service.range_search(inputs.warm_hum, spec.epsilon)
    else:
        dep.service.knn(inputs.warm_hum, K)
    return dep


def _trim_heap() -> None:
    """Return freed heap pages to the OS, so RSS counts live memory."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Setup:
    dep: Deployment
    times_s: list             # each set-up's duration
    rss_mb: float             # RSS growth over the first set-up
    build_s: float | None     # the store build, store workloads only


def timed_setups(spec, inputs, workdir, repeats, tracer=None) -> Setup:
    """Build the store once (store workloads), then set the serving
    state up *repeats* times, keeping the last deployment.

    The store build is timed apart from the set-ups: it is dominated by
    fsync, whose duration on a shared virtual disk swings several-fold
    from one minute to the next.
    """
    def traced(fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.setup_span():
            return fn(*args)

    build_s = store_dir = None
    if spec.store:
        started = time.perf_counter()
        store_dir = traced(build_store, spec, inputs, workdir)
        build_s = time.perf_counter() - started
    times, rss_added, dep = [], 0.0, None
    for attempt in range(repeats):
        if dep is not None:
            dep.close()
            dep = None
        _trim_heap()
        before = rss_mb()
        started = time.perf_counter()
        dep = traced(deploy, spec, inputs, store_dir)
        times.append(time.perf_counter() - started)
        if attempt == 0:
            _trim_heap()
            rss_added = rss_mb() - before
    return Setup(dep, times, rss_added, build_s)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------


@dataclass
class Sample:
    hum: int
    latency_s: float
    status: str
    results: tuple | None
    from_cache: bool = False
    queue_wait_s: float = 0.0
    batch_size: int = 0
    late_s: float = 0.0


@dataclass
class Measurement:
    samples: list
    elapsed_s: float
    context: dict = field(default_factory=dict)


def _send(spec: Spec, dep: Deployment, hum):
    """One request through the workload's entry point -> Sample parts."""
    if spec.entry == "library":
        results, _ = dep.system.query(hum, K)
        return "ok", tuple(results), False, 0.0, 0
    if spec.kind == "range":
        out = dep.service.range_search(hum, spec.epsilon,
                                       timeout=REQUEST_TIMEOUT_S)
    else:
        out = dep.service.knn(hum, K, timeout=REQUEST_TIMEOUT_S)
    return (out.status, out.results, out.from_cache, out.queue_wait_s,
            out.batch_size)


def closed_loop(spec, dep, inputs, seconds, tracer=None) -> Measurement:
    """One client: each hum is sent as soon as the previous answer is in."""
    samples: list[Sample] = []
    root, layer = (("serve.request", "serve") if spec.entry == "service"
                   else ("client.request", "client"))
    started = time.perf_counter()
    for i, hum in enumerate(inputs.hums):
        if time.perf_counter() - started >= seconds:
            break
        span = (tracer.begin_request(i, root, layer, keys=(id(hum),))
                if tracer is not None else None)
        t0 = time.perf_counter()
        try:
            parts = _send(spec, dep, hum)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            parts = (f"error:{type(exc).__name__}", None, False, 0.0, 0)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_request(span, keys=(id(hum),), end=t1)
        samples.append(Sample(i, t1 - t0, *parts))
    elapsed = time.perf_counter() - started
    return Measurement(samples, elapsed, {
        "hums_exhausted": len(samples) >= len(inputs.hums),
        "saturation": (dep.service.saturation()
                       if dep.service is not None else {})})


def open_loop(spec, dep, inputs, tracer=None) -> Measurement:
    """Send on the seeded schedule, staging ingest batches by count.

    Latency runs from each request's due time, so a stall also charges
    the requests queued behind it.  Batch visibility is observed by
    polling the index's row count between sends.
    """
    index, service = dep.index, dep.service
    pending = []      # (pick, hum, due, sent, done_inline, future, span)
    staged = []                       # [staged_at, rows_needed, seen_at]
    rows_needed = len(index)
    batches = iter(inputs.batches)

    def poll(now):
        rows = len(index)
        for entry in staged:
            if entry[2] is None and rows >= entry[1]:
                entry[2] = now

    started = time.perf_counter()
    for i, (due, pick) in enumerate(zip(inputs.due_s, inputs.picks)):
        due_at = started + due
        while True:
            now = time.perf_counter()
            poll(now)
            if now >= due_at:
                break
            time.sleep(min(0.005, due_at - now))
        hum = inputs.hums[pick].copy()   # one object per request
        span = (tracer.begin_request(i, "serve.request", "serve",
                                     keys=(id(hum),))
                if tracer is not None else None)
        sent = time.perf_counter()
        future = service.submit(spec.kind, hum, K)
        after = time.perf_counter()
        if tracer is not None:
            tracer.suspend_request(span)
        pending.append((int(pick), hum, due_at, sent,
                        after if future.done() else None, future, span))
        if (i + 1) % spec.stage_every == 0:
            ids, series = next(batches)
            dep.queue.extend(zip(ids, series))
            rows_needed += len(ids)
            staged.append([time.perf_counter(), rows_needed, None])
    backlog = service.saturation()["queue_depth"]
    samples = []
    last_done = started
    for pick, hum, due_at, sent, inline_done, future, span in pending:
        out = future.result(REQUEST_TIMEOUT_S)
        done = (inline_done if inline_done is not None
                else sent + out.queue_wait_s + out.service_time_s)
        last_done = max(last_done, done)
        if tracer is not None:
            tracer.end_request(span, keys=(id(hum),), end=done)
        samples.append(Sample(pick, done - due_at, out.status, out.results,
                              out.from_cache, out.queue_wait_s,
                              out.batch_size, late_s=sent - due_at))
    elapsed = last_done - started
    deadline = time.perf_counter() + 60.0
    while (any(e[2] is None for e in staged)
           and time.perf_counter() < deadline):
        poll(time.perf_counter())
        time.sleep(0.002)
    late = np.array([s.late_s for s in samples]) * 1e3
    return Measurement(samples, elapsed, {
        "final_queue_depth": backlog,
        "saturation": service.saturation(),
        "generator_late_ms_p50": float(np.percentile(late, 50)),
        "generator_late_ms_p99": float(np.percentile(late, 99)),
        "generator_late_ms_max": float(late.max()),
        "batches_staged": len(staged),
        "visible_s": [None if e[2] is None else e[2] - e[0]
                      for e in staged],
    })


def drive(spec, dep, inputs, seconds, tracer=None) -> Measurement:
    if spec.entry == "open_loop":
        return open_loop(spec, dep, inputs, tracer)
    return closed_loop(spec, dep, inputs, seconds, tracer)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def _same_knn(got, truth_all, k) -> bool:
    """Exact k-NN up to ties: the k distances match the ground truth's,
    and every returned id really lies at the distance reported."""
    if got is None or len(got) != min(k, len(truth_all)):
        return False
    true_of = dict(truth_all)
    want = [d for _, d in truth_all[:k]]
    return all(
        item in true_of
        and math.isclose(dist, true_of[item], rel_tol=1e-9, abs_tol=1e-9)
        and math.isclose(dist, ref, rel_tol=1e-9, abs_tol=1e-9)
        for (item, dist), ref in zip(got, want))


def _same_range(got, truth) -> bool:
    if got is None or len(got) != len(truth):
        return False
    want = dict(truth)
    return all(item in want and math.isclose(dist, want[item],
                                             rel_tol=1e-9, abs_tol=1e-9)
               for item, dist in got)


def check_answers(spec, dep, inputs, samples, seed) -> dict:
    """Compare a fixed seeded sample of answers with brute force."""
    index = dep.index
    rng = np.random.default_rng([seed, 7919])
    checked = wrong = 0
    if spec.entry == "open_loop":
        # The answers were served by several generations; re-ask on the
        # final one, after the last swap is visible.
        hums = sorted({int(p) for p in inputs.picks})
        picks = rng.choice(hums, size=min(CHECKS, len(hums)), replace=False)
        for pick in picks:
            out = dep.service.knn(inputs.hums[pick], K,
                                  timeout=REQUEST_TIMEOUT_S)
            truth = index.ground_truth_knn(inputs.hums[pick], len(index))
            checked += 1
            wrong += not (out.ok and _same_knn(out.results, truth, K))
        wrong_rows = _check_staged(dep, inputs)
        return {"checked": checked, "wrong": wrong + wrong_rows,
                "staged_rows_missing": wrong_rows}
    ok = [s for s in samples if s.status == "ok"]
    chosen = rng.choice(len(ok), size=min(CHECKS, len(ok)), replace=False)
    names = ({name: row for row, name in enumerate(dep.system.names)}
             if spec.entry == "library" else None)
    for pos in sorted(chosen):
        sample = ok[pos]
        hum = inputs.hums[sample.hum]
        got = sample.results
        if names is not None:
            got = tuple((names[name], dist) for name, dist in got)
        if spec.kind == "range":
            good = _same_range(got, index.ground_truth_range(
                hum, spec.epsilon))
        else:
            good = _same_knn(got, index.ground_truth_knn(hum, len(index)), K)
        checked += 1
        wrong += not good
    return {"checked": checked, "wrong": wrong}


def _check_staged(dep, inputs) -> int:
    """Rows of staged melodies that a query for them does not find."""
    staged = [pair for ids, series in inputs.batches
              for pair in zip(ids, series)]
    missing = 0
    # In windows well under the admission bound, so none is shed.
    for lo in range(0, len(staged), 16):
        futures = [(item, dep.service.submit("range", s, 1e-3))
                   for item, s in staged[lo:lo + 16]]
        for item, future in futures:
            out = future.result(REQUEST_TIMEOUT_S)
            missing += not (out.ok
                            and any(i == item for i, _ in out.results))
    return missing


def recall_at_10(spec, dep, inputs, samples) -> float:
    """Share of hums whose source melody (or a note-for-note twin) is
    among the first 10 answers; each distinct hum counts once."""
    names = ({name: row for row, name in enumerate(dep.system.names)}
             if spec.entry == "library" else None)
    seen: dict[int, bool] = {}
    for sample in samples:
        if sample.status != "ok" or sample.hum in seen:
            continue
        target = inputs.groups[inputs.targets[sample.hum]]
        rows = [names[item] if names is not None else item
                for item, _ in sample.results[:K]]
        seen[sample.hum] = any(
            row < len(inputs.groups) and inputs.groups[row] == target
            for row in rows)
    return sum(seen.values()) / max(1, len(seen))
