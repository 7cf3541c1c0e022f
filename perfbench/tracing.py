"""Spans around the public functions of each layer, for the traced run.

The program is measured from outside: every wrapper below replaces one
public function *by name in the module that calls it* (a function
imported with ``from x import f`` has to be patched where it is looked
up, not where it is defined), records a span around the call, and
passes the call through unchanged.  Counts come from the public return
values (``CascadeStats``, ``QueryStats``, ``KernelStats``,
``BuildReport``) captured on the way out.

A span records its name, layer, start, end, parent and request id.
Parents come from a thread-local stack.  A request crosses from the
client thread to the service's dispatcher thread; the two public calls
that cross with it carry its identity, so the dispatcher-side spans are
re-attached to the request that caused them:

* ``ResultCache.get(key, ...)`` — the key is the request fingerprint,
  which the wrapped ``request_fingerprint`` mapped to the request;
* ``NormalForm.apply(query)`` — the raw query array the client
  submitted (the service passes the same object through); the request
  it belongs to stays current on that thread for the engine call that
  follows.

Query-path spans outside any request (ground-truth scans, setup) are
not recorded; setup and ingest spans are.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "self_times"]


class Span:
    __slots__ = ("span_id", "parent_id", "request_id", "name", "layer",
                 "start", "end", "thread", "attrs")

    def __init__(self, span_id, parent_id, request_id, name, layer, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.thread = threading.current_thread().name
        self.attrs = {}

    def to_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "request": self.request_id, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "thread": self.thread, **self.attrs}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``install()`` patches every wrapped function; ``uninstall()``
    restores the originals.  ``recording`` gates span creation, so the
    benchmark's own correctness checks (which call the same functions)
    stay out of the trace.  ``delays`` maps a span name to seconds of
    delay injected inside that span — the layer-attribution self-test.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self.delays: dict[str, float] = {}
        self.returns: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._keys: dict = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, *, key=None, bind=False,
             needs_request=True) -> Span | None:
        """Start a span (or return ``None`` when it is not recorded).

        The parent is the innermost open span on this thread; failing
        that, the request registered under *key*; failing that, the
        request last bound on this thread.  With *bind*, a request
        found by key becomes this thread's current request.
        """
        if not self.recording:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and key is not None:
            parent = self._keys.get(key)
            if parent is not None and bind:
                self._local.current = parent
        if parent is None:
            parent = getattr(self._local, "current", None)
        request_id = parent.request_id if parent is not None else None
        if needs_request and request_id is None:
            return None
        span = Span(next(self._ids),
                    parent.span_id if parent is not None else None,
                    request_id, name, layer, time.perf_counter())
        stack.append(span)
        delay = self.delays.get(name)
        if delay:
            # A sleep holds neither a CPU nor the interpreter lock, so the
            # delay cannot slow spans running on other threads meanwhile.
            time.sleep(delay)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def begin_request(self, request_id, name: str, layer: str,
                      keys=()) -> Span | None:
        """Open a request's root span on this thread and register the
        objects that will carry its identity to other threads."""
        if not self.recording:
            return None
        span = Span(next(self._ids), None, request_id, name, layer,
                    time.perf_counter())
        self._stack().append(span)
        for key in keys:
            self._keys[key] = span
        return span

    def suspend_request(self, span: Span | None) -> None:
        """Pop a root span whose request completes later (open loop)."""
        if span is not None:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    def end_request(self, span: Span | None, keys=(),
                    end: float | None = None) -> None:
        if span is None:
            return
        self.suspend_request(span)
        for key in keys:
            if self._keys.get(key) is span:
                del self._keys[key]
        span.end = time.perf_counter() if end is None else end
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def setup_span(self):
        """A root span around a deployment's build calls."""
        span = self.open("setup", "setup", needs_request=False)
        try:
            yield span
        finally:
            if span is not None:
                self.close(span)

    def in_setup(self) -> bool:
        return any(s.layer == "setup" for s in self._stack())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")

    # -- patching -------------------------------------------------------

    def _patch(self, target: str, attr: str, make) -> None:
        """Replace ``target.attr`` by ``make(original)``.

        *target* is a module path or ``module:Class``; class attributes
        are read from the class ``__dict__`` so classmethods keep their
        descriptor.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        from repro.dtw.kernels import KernelStats

        tracer = self

        def spanned(name, layer, *, key_arg=None, bind=False,
                    needs_request=True, on_return=None):
            """Wrap a function (or method) in one span per call."""
            def make(fn):
                def wrapper(*args, **kwargs):
                    key = (args[key_arg] if key_arg is not None
                           and len(args) > key_arg else None)
                    if key is not None and bind:
                        key = id(key)
                    span = tracer.open(name, layer, key=key, bind=bind,
                                       needs_request=needs_request)
                    if span is None:
                        return fn(*args, **kwargs)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tracer.close(span)
                    if on_return is not None:
                        on_return(result)
                    return result
                return wrapper
            return make

        def keep(kind):
            """Collect the stats half of a ``(results, stats)`` return."""
            return lambda result: tracer.returns[kind].append(result[1])

        def fingerprint(fn):
            def request_fingerprint(*args, **kwargs):
                fp = fn(*args, **kwargs)
                stack = tracer._stack()
                if tracer.recording and stack:
                    tracer._keys[fp] = stack[-1]
                return fp
            return request_fingerprint

        def kernel_batch(fn):
            def ldtw_distance_batch(query, candidates, k, *,
                                    kernel_stats=None, **kwargs):
                span = tracer.open("dtw.batch", "dtw")
                if span is None:
                    return fn(query, candidates, k,
                              kernel_stats=kernel_stats, **kwargs)
                ks = KernelStats() if kernel_stats is None else kernel_stats
                before = (ks.calls, ks.rows, ks.cells)
                try:
                    dists = fn(query, candidates, k, kernel_stats=ks,
                               **kwargs)
                finally:
                    tracer.close(span)
                span.attrs.update(
                    calls=ks.calls - before[0], rows=ks.rows - before[1],
                    cells=ks.cells - before[2],
                    computations=int(len(dists)),
                    abandoned=int(np.count_nonzero(np.isinf(dists))))
                return dists
            return ldtw_distance_batch

        def refiner(fn):
            def ldtw_refiner(query, k, *, kernel_stats=None, **kwargs):
                if not tracer.recording:
                    return fn(query, k, kernel_stats=kernel_stats, **kwargs)
                ks = KernelStats() if kernel_stats is None else kernel_stats
                refine = fn(query, k, kernel_stats=ks, **kwargs)

                def traced_refine(y, upper_bound=None):
                    span = tracer.open("dtw.refine", "dtw")
                    if span is None:
                        return refine(y, upper_bound)
                    before = (ks.calls, ks.rows, ks.cells)
                    try:
                        dist = refine(y, upper_bound)
                    finally:
                        tracer.close(span)
                    span.attrs.update(
                        calls=ks.calls - before[0],
                        rows=ks.rows - before[1],
                        cells=ks.cells - before[2], computations=1,
                        abandoned=int(math.isinf(dist)))
                    return dist
                return traced_refine
            return ldtw_refiner

        def nearest(fn):
            def traced_nearest(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = tracer.open("index.nearest", "index")
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            tracer.close(span)
                    yield item
            return traced_nearest

        def build(fn):
            def traced_build(self_, *args, **kwargs):
                name, layer = (("store.build", "store") if tracer.in_setup()
                               else ("ingest.build", "ingest"))
                span = tracer.open(name, layer, needs_request=False)
                if span is None:
                    return fn(self_, *args, **kwargs)
                try:
                    store, report = fn(self_, *args, **kwargs)
                finally:
                    tracer.close(span)
                base = kwargs.get("base")
                span.attrs.update(
                    rows=report.rows,
                    new_rows=report.rows - (base.rows if base else 0))
                return store, report
            return traced_build

        patches = [
            ("repro.serve.service", "request_fingerprint", fingerprint),
            ("repro.serve.cache:ResultCache", "get",
             spanned("serve.cache_get", "serve", key_arg=1)),
            ("repro.qbh.system:QueryByHummingSystem", "query",
             spanned("qbh.query", "qbh", on_return=keep("query_stats"))),
            ("repro.core.normal_form:NormalForm", "apply",
             spanned("core.normalize", "core", key_arg=1, bind=True)),
            ("repro.engine.cascade:QueryEngine", "knn",
             spanned("engine.knn", "engine", on_return=keep("cascade"))),
            ("repro.engine.cascade:QueryEngine", "range_search",
             spanned("engine.range", "engine", on_return=keep("cascade"))),
            ("repro.engine.cascade", "lb_first_last_batch",
             spanned("engine.first_last", "engine")),
            ("repro.engine.cascade", "lb_envelope_batch",
             spanned("engine.envelope", "engine")),
            ("repro.engine.cascade", "ldtw_distance_batch", kernel_batch),
            ("repro.engine.cascade", "ldtw_refiner", refiner),
            ("repro.index.gemini", "ldtw_refiner", refiner),
            ("repro.index.gemini", "envelope_distance",
             spanned("index.second_filter", "index")),
            ("repro.index.gemini:WarpingIndex", "knn_query",
             spanned("index.knn", "index")),
            ("repro.index.rstartree:RStarTree", "nearest", nearest),
            ("repro.index.rstartree:RStarTree", "bulk_load",
             spanned("index.bulk_load", "index", needs_request=False)),
            ("repro.ingest.builder:StreamingIndexBuilder", "build", build),
            ("repro.store.corpus:CorpusStore", "open",
             spanned("store.open", "store", needs_request=False)),
            ("repro.index.gemini:WarpingIndex", "from_store",
             spanned("store.from_store", "store", needs_request=False)),
            ("repro.index.gemini:WarpingIndex", "swap_generation",
             spanned("ingest.swap", "ingest", needs_request=False)),
        ]
        for target, attr, make in patches:
            self._patch(target, attr, make)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may run on another thread (the dispatcher side of a
    request); their intervals are clipped to the parent's and merged
    before subtracting, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result
