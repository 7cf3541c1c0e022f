"""Banded-DTW computation kernels and the backend registry.

The exact Sakoe-Chiba banded DTW of Definition 4 is the repo's hottest
inner loop: every candidate that survives the lower-bound cascade pays
one banded dynamic program.  This module holds the *implementations*
of that dynamic program — the single place they live — behind a small
registry so callers (:mod:`repro.dtw.distance`, the
:class:`~repro.engine.QueryEngine` refine loop, the index refinement
paths) can select one by name:

``"scalar"``
    The reference per-cell Python loop, row by row over the band.
    Simple, obviously correct, and the parity baseline for everything
    else.

``"vectorized"``
    An anti-diagonal *wavefront* sweep: all cells on one anti-diagonal
    ``i + j = d`` are independent given diagonals ``d-1`` and ``d-2``,
    so each diagonal is one batch of NumPy operations instead of a
    Python loop over cells.  The batched variant
    (:meth:`DTWKernel.cost_batch`) stacks ``B`` candidates into a
    ``(B, n)`` matrix and sweeps all of them simultaneously — the
    wavefront then spans ``band x B`` cells and amortises the NumPy
    dispatch overhead that dominates the single-pair case.  Early
    abandoning happens at diagonal granularity with a per-candidate
    mask: a candidate is dead once the running minimum over two
    consecutive wavefronts exceeds its cutoff (every warping path
    advances ``i + j`` by 1 or 2, so it must touch one of any two
    consecutive anti-diagonals).

``"compiled"`` (default wherever it builds)
    The row-by-row band DP in C (``_ldtw.c``), built on first import
    with the system C compiler and loaded through :mod:`ctypes` (see
    :mod:`repro.dtw._native`).  One C call runs a whole batch, with
    per-candidate row-granularity abandoning and the interpreter lock
    released; results are bitwise equal to ``"vectorized"``.  Without
    a compiler, or when the build or load fails, it is not registered
    and ``"vectorized"`` stays the default.

All kernels work in **accumulated-cost space**: squared differences
for the Euclidean metric (the square root is the caller's job, as in
the paper's ``D^2`` recurrences) and absolute differences for
Manhattan.  ``inf`` means "no admissible path" or "abandoned against
the cutoff".  Inputs are assumed to be validated, C-contiguous
``float64`` arrays — :mod:`repro.dtw.distance` hoists that conversion
so repeated refinement against one query pays it once.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from collections.abc import Callable

import numpy as np

from ._native import load_ldtw

__all__ = [
    "DTWKernel",
    "KernelStats",
    "ScalarDTWKernel",
    "VectorizedDTWKernel",
    "CompiledDTWKernel",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
    "banded_dtw_cost",
    "banded_dtw_cost_batch",
]

_INF = math.inf

#: Target bytes per DP buffer in the batched wavefront; candidates are
#: processed in column blocks of roughly this footprint so the three
#: rolling diagonals stay cache-resident regardless of batch size.
_BATCH_BLOCK_BYTES = 2_000_000

#: Compaction policy for per-candidate early abandoning: dead columns
#: are physically dropped once they are numerous enough for the copy
#: to pay for itself.
_COMPACT_MIN_DEAD = 32
_COMPACT_DEAD_FRACTION = 0.5


class KernelStats:
    """Opt-in work counters a kernel call fills in.

    Pass one to ``cost`` / ``prepare`` / ``cost_batch`` (or through
    :func:`repro.dtw.distance.ldtw_distance_batch` /
    :func:`~repro.dtw.distance.ldtw_refiner`) and the built-in kernels
    accumulate into it; the observability layer folds the totals into
    the ``dtw.*`` metrics and kernel spans.  The object is plain
    mutable state with no locking — share one only within a thread
    (the engine keeps one per query).

    Attributes
    ----------
    calls:
        Kernel dispatches (one per ``cost`` call or batch block row
        set).
    rows:
        Candidate rows processed across those calls.
    cells:
        Band DP cells evaluated (dead columns stop counting once
        abandoned or compacted away) — the implementation-bias-free
        work measure for comparing backends and cutoffs.
    compacted_columns:
        Candidate columns physically dropped from batched wavefront
        blocks by dead-column compaction.
    """

    __slots__ = ("calls", "rows", "cells", "compacted_columns")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.cells = 0
        self.compacted_columns = 0

    def merge(self, other: "KernelStats") -> None:
        """Fold another recorder's counts into this one."""
        self.calls += other.calls
        self.rows += other.rows
        self.cells += other.cells
        self.compacted_columns += other.compacted_columns

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dict."""
        return {
            "calls": self.calls,
            "rows": self.rows,
            "cells": self.cells,
            "compacted_columns": self.compacted_columns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelStats(calls={self.calls}, rows={self.rows}, "
                f"cells={self.cells}, "
                f"compacted_columns={self.compacted_columns})")


class DTWKernel:
    """One banded-DTW implementation; subclasses fill in the maths.

    The three entry points, all in accumulated-cost space:

    * :meth:`cost` — one ``(x, y)`` pair;
    * :meth:`prepare` — a per-query closure for repeated refinement of
      many candidates against the *same* ``x`` (conversion/precompute
      happens once);
    * :meth:`cost_batch` — many candidates at once, with optional
      per-candidate abandon cutoffs.
    """

    name = "abstract"

    def cost(
        self,
        x: np.ndarray,
        y: np.ndarray,
        k: int,
        bound_cost: float = _INF,
        *,
        manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> float:
        """Accumulated banded-DTW cost of one pair; ``inf`` if pruned.

        *stats*, when given, receives work counters; third-party
        kernels may ignore it (the built-in ones fill it in).
        """
        return self._prepare(x, k, manhattan, stats)(y, bound_cost)

    def _prepare(self, x, k, manhattan, stats):
        """:meth:`prepare`, passing *stats* only when given."""
        if stats is None:
            return self.prepare(x, k, manhattan=manhattan)
        try:
            return self.prepare(x, k, manhattan=manhattan, stats=stats)
        except TypeError:
            # Third-party kernel predating the stats capability.
            return self.prepare(x, k, manhattan=manhattan)

    def prepare(
        self, x: np.ndarray, k: int, *, manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> Callable[[np.ndarray, float], float]:
        """A ``refine(y, bound_cost) -> cost`` closure bound to *x*."""
        raise NotImplementedError

    def cost_batch(
        self,
        x: np.ndarray,
        candidates: np.ndarray,
        k: int,
        bound_costs: np.ndarray | float | None = None,
        *,
        manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> np.ndarray:
        """Costs from *x* to every row of *candidates* (``inf`` = pruned).

        *bound_costs* may be a scalar cutoff shared by every candidate
        or one cutoff per row; ``None`` disables abandoning.  The
        default implementation loops a prepared refiner over the rows;
        vectorized backends override it.  *stats* receives work
        counters when the concrete kernel supports them.
        """
        m = candidates.shape[0]
        bounds = _broadcast_bounds(bound_costs, m)
        refine = self._prepare(x, k, manhattan, stats)
        out = np.empty(m)
        for row in range(m):
            out[row] = refine(candidates[row], bounds[row])
        return out


def _pointwise_cost(
    x: np.ndarray, y: np.ndarray, bound_cost: float, manhattan: bool
) -> float:
    """``k == 0``: the band is the diagonal, so the DP is a plain sum."""
    diff = x - y
    total = (float(np.abs(diff).sum()) if manhattan
             else float(np.dot(diff, diff)))
    return _INF if total > bound_cost else total


def _pointwise_costs(
    x: np.ndarray, candidates: np.ndarray, bounds: np.ndarray | None,
    manhattan: bool,
) -> np.ndarray:
    """Batched :func:`_pointwise_cost`; *bounds* ``None`` = no cutoff."""
    diff = candidates - x
    if manhattan:
        totals = np.abs(diff).sum(axis=1)
    else:
        totals = np.einsum("ij,ij->i", diff, diff)
    if bounds is not None:
        totals = np.where(totals > bounds, _INF, totals)
    return totals


def _broadcast_bounds(
    bound_costs: np.ndarray | float | None, m: int
) -> np.ndarray:
    if bound_costs is None:
        return np.full(m, _INF)
    bounds = np.asarray(bound_costs, dtype=np.float64)
    if bounds.ndim == 0:
        return np.full(m, float(bounds))
    if bounds.shape != (m,):
        raise ValueError(
            f"bound_costs must be a scalar or shape ({m},), got {bounds.shape}"
        )
    return bounds


class ScalarDTWKernel(DTWKernel):
    """Reference implementation: per-cell DP, row by row over the band.

    The per-cell arithmetic runs on Python floats (lists are faster to
    iterate than ndarrays), with row-granularity early abandoning: a
    warping path visits every row, so once every reachable cell of a
    row exceeds the cutoff no path can finish below it.
    """

    name = "scalar"

    def prepare(
        self, x: np.ndarray, k: int, *, manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> Callable[[np.ndarray, float], float]:
        x_list = x.tolist() if isinstance(x, np.ndarray) else list(x)

        def refine(y: np.ndarray, bound_cost: float = _INF) -> float:
            y_list = y.tolist() if isinstance(y, np.ndarray) else list(y)
            return _scalar_banded_cost(x_list, y_list, k, bound_cost,
                                       manhattan, stats)

        return refine


def _scalar_banded_cost(
    x_list: list[float],
    y_list: list[float],
    k: int,
    upper_bound_cost: float,
    manhattan: bool,
    stats: KernelStats | None = None,
) -> float:
    n = len(x_list)
    m = len(y_list)
    if stats is not None:
        stats.calls += 1
        stats.rows += 1
    if abs(n - m) > k:
        return _INF

    inf = _INF
    cells = 0
    prev = [inf] * m
    for i in range(n):
        lo = max(0, i - k)
        hi = min(m - 1, i + k)
        cells += hi - lo + 1
        curr = [inf] * m
        row_min = inf
        xi = x_list[i]
        for j in range(lo, hi + 1):
            d = xi - y_list[j]
            cost = (d if d >= 0 else -d) if manhattan else d * d
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = inf
                if i > 0:
                    if prev[j] < best:
                        best = prev[j]
                    if j > 0 and prev[j - 1] < best:
                        best = prev[j - 1]
                if j > 0 and curr[j - 1] < best:
                    best = curr[j - 1]
                if best == inf:
                    continue
            total = best + cost
            curr[j] = total
            if total < row_min:
                row_min = total
        if row_min > upper_bound_cost:
            if stats is not None:
                stats.cells += cells
            return inf
        prev = curr
    if stats is not None:
        stats.cells += cells
    return prev[m - 1]


class VectorizedDTWKernel(DTWKernel):
    """Anti-diagonal wavefront sweep, single pair and batched.

    Cells on anti-diagonal ``d`` live at rows ``i`` with
    ``max(0, d-m+1, ceil((d-k)/2)) <= i <= min(n-1, d, floor((d+k)/2))``
    (the inner pair is the band ``|2i - d| <= k``); for ``k >= 1``
    every diagonal window is non-empty and both ends are non-decreasing
    in ``d``, which is what makes the rolling-buffer bookkeeping below
    sound.  ``k == 0`` degenerates to the pointwise (diagonal-path)
    distance and is handled in closed form.

    The recurrence for a cell ``(i, d-i)`` reads the two neighbours on
    diagonal ``d-1`` (buffer positions ``i`` and ``i+1`` with a one-slot
    left pad) and the diagonal neighbour on ``d-2`` (position ``i``);
    the min of three and the cost addition are performed in the same
    order as the scalar kernel, so results agree bit for bit.
    """

    name = "vectorized"

    def prepare(
        self, x: np.ndarray, k: int, *, manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> Callable[[np.ndarray, float], float]:
        def refine(y: np.ndarray, bound_cost: float = _INF) -> float:
            return self.cost(x, y, k, bound_cost, manhattan=manhattan,
                             stats=stats)

        return refine

    def cost(
        self,
        x: np.ndarray,
        y: np.ndarray,
        k: int,
        bound_cost: float = _INF,
        *,
        manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> float:
        n = x.size
        m = y.size
        if stats is not None:
            stats.calls += 1
            stats.rows += 1
        if abs(n - m) > k:
            return _INF
        if k == 0:
            if stats is not None:
                stats.cells += n
            return _pointwise_cost(x, y, bound_cost, manhattan)

        inf = _INF
        cells = 0
        yr = y[::-1]
        # Rolling diagonals, indexed by row + 1: position 0 is a
        # permanent inf pad for the i == 0 edge.
        prev2 = np.full(n + 1, inf)
        prev1 = np.full(n + 1, inf)
        cur = np.full(n + 1, inf)
        prev_min = inf
        check = math.isfinite(bound_cost)
        for d in range(n + m - 1):
            lo = max(0, d - (m - 1), -((k - d) // 2))
            hi = min(n - 1, d, (d + k) // 2)
            cells += hi - lo + 1
            diff = x[lo:hi + 1] - yr[m - 1 - d + lo:m - d + hi]
            cost = np.abs(diff) if manhattan else diff * diff
            if d == 0:
                cur[1] = cost[0]
                cur_min = cur[1]
            else:
                seg = np.minimum(prev1[lo + 1:hi + 2], prev1[lo:hi + 1])
                np.minimum(seg, prev2[lo:hi + 1], out=seg)
                seg += cost
                cur[lo + 1:hi + 2] = seg
                cur_min = seg.min() if check else inf
            # The window only moves right; this one slot is the only
            # stale position later diagonals can read.
            cur[lo] = inf
            if check:
                if cur_min > bound_cost and prev_min > bound_cost:
                    if stats is not None:
                        stats.cells += cells
                    return inf
                prev_min = cur_min
            prev2, prev1, cur = prev1, cur, prev2
        if stats is not None:
            stats.cells += cells
        return float(prev1[n])

    def cost_batch(
        self,
        x: np.ndarray,
        candidates: np.ndarray,
        k: int,
        bound_costs: np.ndarray | float | None = None,
        *,
        manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> np.ndarray:
        total = candidates.shape[0]
        if total == 0:
            return np.zeros(0)
        if stats is not None:
            stats.rows += total
        bounds = None if bound_costs is None else _broadcast_bounds(
            bound_costs, total
        )
        n = x.size
        m = candidates.shape[1]
        if abs(n - m) > k:
            if stats is not None:
                stats.calls += 1
            return np.full(total, _INF)
        if k == 0:
            if stats is not None:
                stats.calls += 1
                stats.cells += total * n
            return _pointwise_costs(x, candidates, bounds, manhattan)

        block = max(64, _BATCH_BLOCK_BYTES // ((n + 1) * 8))
        out = np.empty(total)
        for start in range(0, total, block):
            stop = min(start + block, total)
            if stats is not None:
                stats.calls += 1
            out[start:stop] = self._batch_block(
                x,
                candidates[start:stop],
                k,
                None if bounds is None else bounds[start:stop],
                manhattan,
                stats,
            )
        return out

    @staticmethod
    def _batch_block(
        x: np.ndarray,
        candidates: np.ndarray,
        k: int,
        bounds: np.ndarray | None,
        manhattan: bool,
        stats: KernelStats | None = None,
    ) -> np.ndarray:
        inf = _INF
        cells = 0
        n = x.size
        batch, m = candidates.shape
        # Row t of the flipped transpose is y[m-1-t] for every
        # candidate at once, so each diagonal's y values are one
        # contiguous row slice.
        flipped = np.ascontiguousarray(candidates.T[::-1])
        out = np.full(batch, inf)
        cols = np.arange(batch)
        prev2 = np.full((n + 1, batch), inf)
        prev1 = np.full((n + 1, batch), inf)
        cur = np.full((n + 1, batch), inf)
        check = bounds is not None
        if check:
            bounds = bounds.copy()
            prev_min = np.full(batch, inf)
        for d in range(n + m - 1):
            lo = max(0, d - (m - 1), -((k - d) // 2))
            hi = min(n - 1, d, (d + k) // 2)
            cells += (hi - lo + 1) * cols.size
            diff = x[lo:hi + 1, None] - flipped[m - 1 - d + lo:m - d + hi]
            cost = np.abs(diff) if manhattan else diff * diff
            if d == 0:
                cur[1] = cost[0]
                cur_min = cost[0].copy()
            else:
                seg = np.minimum(prev1[lo + 1:hi + 2], prev1[lo:hi + 1])
                np.minimum(seg, prev2[lo:hi + 1], out=seg)
                seg += cost
                cur[lo + 1:hi + 2] = seg
                cur_min = seg.min(axis=0) if check else None
            cur[lo] = inf
            if check:
                dead = (cur_min > bounds) & (prev_min > bounds)
                n_dead = int(np.count_nonzero(dead))
                if n_dead == cols.size:
                    if stats is not None:
                        stats.cells += cells
                    return out
                if (n_dead >= _COMPACT_MIN_DEAD
                        and n_dead >= _COMPACT_DEAD_FRACTION * cols.size):
                    keep = ~dead
                    flipped = np.ascontiguousarray(flipped[:, keep])
                    prev2 = np.ascontiguousarray(prev2[:, keep])
                    prev1 = np.ascontiguousarray(prev1[:, keep])
                    cur = np.ascontiguousarray(cur[:, keep])
                    bounds = bounds[keep]
                    cols = cols[keep]
                    cur_min = cur_min[keep]
                    if stats is not None:
                        stats.compacted_columns += n_dead
                prev_min = cur_min
            prev2, prev1, cur = prev1, cur, prev2
        out[cols] = prev1[n]
        if stats is not None:
            stats.cells += cells
        return out


class CompiledDTWKernel(DTWKernel):
    """The row-by-row band DP in C, one foreign call per batch.

    *ldtw* is the ``repro_ldtw_batch`` entry point from
    :func:`repro.dtw._native.load_ldtw`.  The C loop abandons a
    candidate once a whole row exceeds its cutoff (as the scalar
    kernel does) and otherwise returns its finite cost, even above the
    cutoff.  ``k == 0`` uses the same closed form as
    ``"vectorized"``, so the two backends agree bit for bit on every
    row neither abandons.  ctypes releases the interpreter lock for
    the duration of each call; the C side allocates its own work rows,
    so a prepared refiner may be shared between threads.
    """

    name = "compiled"

    def __init__(self, ldtw) -> None:
        self._ldtw = ldtw

    def _run(self, x_ptr, n, y_ptr, count, m, k, bound, bounds_ptr,
             manhattan, out_ptr, stats) -> None:
        """One foreign call over *count* rows of length *m* at *y_ptr*;
        the pointers come from contiguous float64 arrays the caller
        keeps alive across the call."""
        cells = self._ldtw(x_ptr, n, y_ptr, count, m, k, bound,
                           bounds_ptr, manhattan, out_ptr)
        if cells < 0:
            raise MemoryError("banded DTW work rows could not be allocated")
        if stats is not None:
            stats.calls += 1
            stats.rows += count
            stats.cells += cells

    def prepare(
        self, x: np.ndarray, k: int, *, manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> Callable[[np.ndarray, float], float]:
        x = np.ascontiguousarray(x, dtype=np.float64)
        x_ptr = x.ctypes.data
        run = self._run

        def refine(y: np.ndarray, bound_cost: float = _INF) -> float:
            y = np.ascontiguousarray(y, dtype=np.float64)
            if k == 0 and y.size == x.size:
                if stats is not None:
                    stats.calls += 1
                    stats.rows += 1
                    stats.cells += x.size
                return _pointwise_cost(x, y, bound_cost, manhattan)
            out = ctypes.c_double()
            run(x_ptr, x.size, y.ctypes.data, 1, y.size, k, bound_cost,
                None, manhattan, ctypes.byref(out), stats)
            return out.value

        return refine

    def cost_batch(
        self,
        x: np.ndarray,
        candidates: np.ndarray,
        k: int,
        bound_costs: np.ndarray | float | None = None,
        *,
        manhattan: bool = False,
        stats: KernelStats | None = None,
    ) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        candidates = np.ascontiguousarray(candidates, dtype=np.float64)
        if candidates.ndim != 2:
            raise ValueError(
                f"candidates must be 2-D, got shape {candidates.shape}"
            )
        total, m = candidates.shape
        if total == 0:
            return np.zeros(0)
        if k == 0 and m == x.size:
            bounds = None if bound_costs is None else _broadcast_bounds(
                bound_costs, total
            )
            if stats is not None:
                stats.calls += 1
                stats.rows += total
                stats.cells += total * m
            return _pointwise_costs(x, candidates, bounds, manhattan)
        bound = _INF
        bounds_ptr = None
        if bound_costs is not None:
            if np.ndim(bound_costs) == 0:
                bound = float(bound_costs)
            else:
                bounds = np.ascontiguousarray(
                    _broadcast_bounds(bound_costs, total)
                )
                bounds_ptr = bounds.ctypes.data
        out = np.empty(total)
        self._run(x.ctypes.data, x.size, candidates.ctypes.data, total, m,
                  k, bound, bounds_ptr, manhattan, out.ctypes.data, stats)
        return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, DTWKernel] = {}


def register_kernel(kernel: DTWKernel, *, overwrite: bool = False) -> None:
    """Add a kernel to the registry under ``kernel.name``.

    Third-party backends (a C extension, a GPU kernel, ...) plug in
    here; every ``backend=`` parameter in the library then accepts the
    new name.
    """
    if not kernel.name or kernel.name == "abstract":
        raise ValueError("kernel must define a concrete name")
    if kernel.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {kernel.name!r} is already registered")
    _REGISTRY[kernel.name] = kernel


def get_kernel(backend: str | None = None) -> DTWKernel:
    """Look up a kernel by backend name (``None`` = the default)."""
    name = DEFAULT_BACKEND if backend is None else backend
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown DTW backend {name!r}; available: "
            f"{available_backends()}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, default first."""
    names = sorted(_REGISTRY, key=lambda name: (name != DEFAULT_BACKEND, name))
    return tuple(names)


def resolve_backend(backend: str | None) -> str | None:
    """*backend* if it is registered here, else the default, with a
    warning.

    For configurations written on another host — a saved index or a
    shard's engine spec may name ``"compiled"`` where no compiler was
    found.  Backends agree on every answer, so falling back changes
    speed only.  Constructors still reject unknown names.
    """
    if backend is None or backend in _REGISTRY:
        return backend
    warnings.warn(
        f"DTW backend {backend!r} is not available on this host; "
        f"using {DEFAULT_BACKEND!r}",
        RuntimeWarning, stacklevel=2,
    )
    return DEFAULT_BACKEND


register_kernel(ScalarDTWKernel())
register_kernel(VectorizedDTWKernel())
_ldtw = load_ldtw()
if _ldtw is not None:
    register_kernel(CompiledDTWKernel(_ldtw))

#: The backend used when callers pass ``backend=None``: ``"compiled"``
#: wherever the C kernel built, else ``"vectorized"``.
DEFAULT_BACKEND = "compiled" if _ldtw is not None else "vectorized"


# ----------------------------------------------------------------------
# conveniences
# ----------------------------------------------------------------------

def banded_dtw_cost(
    x,
    y,
    k: int,
    bound_cost: float = _INF,
    *,
    manhattan: bool = False,
    backend: str | None = None,
    stats: KernelStats | None = None,
) -> float:
    """Accumulated banded-DTW cost via a named backend (cost space)."""
    xa = np.ascontiguousarray(x, dtype=np.float64)
    ya = np.ascontiguousarray(y, dtype=np.float64)
    return get_kernel(backend).cost(xa, ya, k, bound_cost,
                                    manhattan=manhattan, stats=stats)


def banded_dtw_cost_batch(
    x,
    candidates,
    k: int,
    bound_costs=None,
    *,
    manhattan: bool = False,
    backend: str | None = None,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """Batched accumulated banded-DTW costs via a named backend."""
    xa = np.ascontiguousarray(x, dtype=np.float64)
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    return get_kernel(backend).cost_batch(xa, cand, k, bound_costs,
                                          manhattan=manhattan, stats=stats)
