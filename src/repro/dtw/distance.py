"""Dynamic Time Warping distances (Section 4 of the paper).

All distances here use the Euclidean ground metric: costs accumulate as
squared differences and the square root is taken at the end, matching
the paper's ``D^2`` recurrences.

* :func:`dtw_distance` — classic unconstrained DTW (Definition 1),
  O(nm) dynamic programming.
* :func:`ldtw_distance` — ``k``-Local DTW (Definition 4): the warping
  path is confined to a Sakoe-Chiba band of half-width ``k``, giving
  O(kn) time.
* :func:`utw_distance` — Uniform Time Warping (Definition 2): a purely
  diagonal path between the upsampled series (Lemma 1).
* :func:`warping_distance` — the paper's composite Definition 5: LDTW
  between the UTW normal forms, parameterised by the warping width
  ``delta = (2k+1)/n``.

The banded dynamic program itself lives in :mod:`repro.dtw.kernels`
behind a backend registry (``"scalar"`` reference loop /
``"vectorized"`` NumPy wavefront / ``"compiled"`` C loop, the default
wherever it builds); every function here takes a ``backend=`` name.  Input validation and float64 conversion happen
once in these wrappers — use :func:`ldtw_refiner` when refining many
candidates against one query so the per-query preparation is also paid
once.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..core.envelope import warping_width_to_k
from ..core.series import as_series, uniform_resample
from .kernels import KernelStats, get_kernel

__all__ = [
    "dtw_distance",
    "ldtw_distance",
    "ldtw_distance_batch",
    "ldtw_refiner",
    "utw_distance",
    "warping_distance",
]


_METRICS = ("euclidean", "manhattan")


def _check_metric(metric: str) -> bool:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    return metric == "manhattan"


def _finish(cost: float, manhattan: bool) -> float:
    if cost == math.inf:
        return math.inf
    return cost if manhattan else math.sqrt(cost)


def _bound_cost(upper_bound: float | None, manhattan: bool) -> float:
    if upper_bound is None:
        return math.inf
    return float(upper_bound) if manhattan else float(upper_bound) ** 2


def dtw_distance(
    x, y, *, upper_bound: float | None = None, metric: str = "euclidean",
    backend: str | None = None,
) -> float:
    """Unconstrained DTW distance between two series (Definition 1).

    Parameters
    ----------
    x, y:
        Time series of any (possibly different) lengths.
    upper_bound:
        Optional early-abandoning threshold: if the true distance
        exceeds it, ``inf`` is returned instead (sound for filtering).
    metric:
        ``"euclidean"`` (the paper's, default) or ``"manhattan"`` —
        the "other distance metrics" the paper says the framework
        admits with modifications.
    backend:
        DTW kernel backend name (default: the registry default,
        ``DEFAULT_BACKEND``).
    """
    manhattan = _check_metric(metric)
    xa = as_series(x)
    ya = as_series(y)
    k = max(xa.size, ya.size)  # a band this wide imposes no constraint
    cost = get_kernel(backend).cost(
        xa, ya, k, _bound_cost(upper_bound, manhattan), manhattan=manhattan
    )
    return _finish(cost, manhattan)


def ldtw_distance(
    x, y, k: int, *, upper_bound: float | None = None,
    metric: str = "euclidean", backend: str | None = None,
) -> float:
    """``k``-Local DTW distance (Definition 4).

    Alignments may only pair elements whose positions differ by at most
    ``k``.  Returns ``inf`` when the lengths differ by more than ``k``
    (no admissible path exists) or when *upper_bound* is exceeded.
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    xa = as_series(x)
    ya = as_series(y)
    cost = get_kernel(backend).cost(
        xa, ya, k, _bound_cost(upper_bound, manhattan), manhattan=manhattan
    )
    return _finish(cost, manhattan)


def ldtw_refiner(
    query, k: int, *, metric: str = "euclidean", backend: str | None = None,
    kernel_stats: KernelStats | None = None,
) -> Callable[..., float]:
    """A prepared ``refine(y, upper_bound=None) -> distance`` closure.

    Refinement loops call the exact banded DTW once per surviving
    candidate with the *same* query; this hoists the query-side
    validation and conversion (including the scalar backend's list
    conversion) out of that loop, so each call pays only for the
    candidate side.  The returned callable accepts an optional
    early-abandoning *upper_bound* in distance space and returns the
    distance (``inf`` if pruned).  A *kernel_stats* recorder, when
    given, accumulates the work counters of every refine call (see
    :class:`repro.dtw.kernels.KernelStats`).
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    qa = as_series(query)
    prepared = get_kernel(backend)._prepare(qa, k, manhattan, kernel_stats)

    def refine(y, upper_bound: float | None = None) -> float:
        ya = y if isinstance(y, np.ndarray) and y.dtype == np.float64 \
            else as_series(y)
        cost = prepared(ya, _bound_cost(upper_bound, manhattan))
        return _finish(cost, manhattan)

    return refine


def ldtw_distance_batch(
    query, candidates, k: int, *, metric: str = "euclidean",
    upper_bound=None, backend: str | None = None,
    kernel_stats: KernelStats | None = None,
) -> np.ndarray:
    """``k``-Local DTW distances from one query to many candidates.

    All candidates must share the query's length (the situation after
    UTW normalisation).  The computation is delegated to the selected
    kernel backend's batch path — one foreign call for the default
    ``"compiled"`` backend, a simultaneous anti-diagonal wavefront over
    every candidate for ``"vectorized"`` — one to two orders of
    magnitude faster than per-pair scalar calls for databases of
    thousands of series.

    Parameters
    ----------
    query:
        Series of length ``n``.
    candidates:
        Array of shape ``(m, n)``.
    k:
        Band half-width.
    metric:
        ``"euclidean"`` or ``"manhattan"``.
    upper_bound:
        Optional early-abandoning cutoff in distance space — a scalar
        shared by all candidates or one value per candidate.  Rows
        whose distance provably exceeds their cutoff come back as
        ``inf`` (sound for filtering, as in :func:`ldtw_distance`).
    backend:
        DTW kernel backend name (default ``DEFAULT_BACKEND``).
    kernel_stats:
        Optional :class:`repro.dtw.kernels.KernelStats` recorder; the
        built-in kernels accumulate cells computed, rows processed,
        and columns compacted into it.

    Returns
    -------
    numpy.ndarray
        The ``m`` distances, in candidate order.
    """
    if k < 0:
        raise ValueError(f"band half-width must be >= 0, got {k}")
    manhattan = _check_metric(metric)
    q = as_series(query)
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != q.size:
        raise ValueError(
            f"candidates must have shape (m, {q.size}), got {cand.shape}"
        )
    if cand.shape[0] == 0:
        return np.zeros(0)
    if upper_bound is None:
        bound_costs = None
    else:
        bounds = np.asarray(upper_bound, dtype=np.float64)
        bound_costs = bounds if manhattan else bounds * bounds
    kernel = get_kernel(backend)
    if kernel_stats is None:
        final = kernel.cost_batch(q, cand, k, bound_costs,
                                  manhattan=manhattan)
    else:
        final = kernel.cost_batch(q, cand, k, bound_costs,
                                  manhattan=manhattan, stats=kernel_stats)
    if manhattan:
        return final
    return np.sqrt(final)


def utw_distance(x, y) -> float:
    """Uniform Time Warping distance (Definition 2, via Lemma 1).

    ``D_UTW(x, y) = D(U_m(x), U_n(y)) / sqrt(n m)``: both series are
    stretched to a common length and compared point by point, with the
    normalisation making the result independent of the stretching.  As
    the paper notes, any common multiple works — we stretch to
    ``lcm(n, m)`` instead of ``n*m`` and normalise by that length,
    which yields exactly the same value.
    """
    xa = as_series(x)
    ya = as_series(y)
    common = math.lcm(xa.size, ya.size)
    xs = uniform_resample(xa, common)
    ys = uniform_resample(ya, common)
    diff = xs - ys
    return float(np.sqrt(np.sum(diff * diff) / common))


def warping_distance(
    x,
    y,
    *,
    delta: float,
    normal_length: int = 256,
    upper_bound: float | None = None,
    metric: str = "euclidean",
    backend: str | None = None,
) -> float:
    """The paper's composite DTW distance (Definition 5).

    Both series are brought to the UTW normal form of *normal_length*
    samples, then compared with LDTW whose band half-width is derived
    from the warping width ``delta = (2k+1)/normal_length``.
    """
    xa = uniform_resample(as_series(x), normal_length)
    ya = uniform_resample(as_series(y), normal_length)
    k = warping_width_to_k(delta, normal_length)
    return ldtw_distance(xa, ya, k, upper_bound=upper_bound, metric=metric,
                         backend=backend)
