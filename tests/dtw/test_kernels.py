"""Kernel parity, early-abandon, batch, stats, and registry tests.

Every registered banded-DTW backend must agree with the scalar
reference to 1e-9 (they actually agree bit for bit: each performs the
min-of-three and the single cost addition per cell, and the compiled
kernel is built without FMA contraction or fast-math).  Early abandoning must never produce a false negative: a
candidate whose true cost is within the cutoff always comes back with
its exact value.
"""

import math
import shutil

import numpy as np
import pytest

from repro.dtw.distance import ldtw_distance, ldtw_distance_batch, ldtw_refiner
from repro.dtw.kernels import (
    DEFAULT_BACKEND,
    DTWKernel,
    KernelStats,
    _REGISTRY,
    available_backends,
    banded_dtw_cost,
    banded_dtw_cost_batch,
    get_kernel,
    register_kernel,
)

ATOL = 1e-9
N = 48
BANDS = (0, 1, 5, N)
METRICS = ("euclidean", "manhattan")

BACKENDS = available_backends()

SCALAR = get_kernel("scalar")
VECTORIZED = get_kernel("vectorized")

needs_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled kernel did not build"
)


def _pair(rng, n=N, m=N):
    x = np.cumsum(rng.normal(size=n))
    y = np.cumsum(rng.normal(size=m))
    return x, y


# ----------------------------------------------------------------------
# single-pair parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_parity_equal_lengths(rng, k, metric):
    for _ in range(10):
        x, y = _pair(rng)
        ref = ldtw_distance(x, y, k, metric=metric, backend="scalar")
        for backend in BACKENDS:
            got = ldtw_distance(x, y, k, metric=metric, backend=backend)
            assert got == pytest.approx(ref, abs=ATOL)
            assert math.isfinite(got)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", (40, 44, 48, 53))
def test_kernel_parity_unequal_lengths(rng, m, metric):
    k = 8
    for _ in range(5):
        x, y = _pair(rng, n=N, m=m)
        ref = ldtw_distance(x, y, k, metric=metric, backend="scalar")
        for backend in BACKENDS:
            got = ldtw_distance(x, y, k, metric=metric, backend=backend)
            if abs(N - m) > k:
                assert ref == math.inf and got == math.inf
            else:
                assert got == pytest.approx(ref, abs=ATOL)


def test_kernel_k0_unequal_lengths_is_inf(rng):
    x, y = _pair(rng, n=20, m=21)
    for backend in BACKENDS:
        assert ldtw_distance(x, y, 0, backend=backend) == math.inf


def test_kernel_k0_is_pointwise(rng):
    x, y = _pair(rng)
    expect = float(np.linalg.norm(x - y))
    for backend in BACKENDS:
        assert ldtw_distance(x, y, 0, backend=backend) == pytest.approx(expect)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_cutoff_grid_no_false_negatives(rng, k, metric):
    """Across a grid of cutoffs: never abandon a true answer, and any
    finite result is the exact value."""
    manhattan = metric == "manhattan"
    for _ in range(5):
        x, y = _pair(rng)
        true_cost = banded_dtw_cost(x, y, k, manhattan=manhattan,
                                    backend="scalar")
        for frac in (0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 4.0):
            bound = true_cost * frac
            for backend in BACKENDS:
                got = banded_dtw_cost(x, y, k, bound, manhattan=manhattan,
                                      backend=backend)
                if frac > 1.0:
                    # Clearly inside the cutoff: must not be abandoned.
                    assert got == pytest.approx(true_cost, abs=ATOL)
                else:
                    # At (summation order can tip a bound == true tie
                    # by one ulp) or beyond the cutoff: abandoned (inf)
                    # or completed anyway — both sound; a wrong finite
                    # value is not.
                    assert got == math.inf or \
                        got == pytest.approx(true_cost, abs=ATOL)


def test_kernel_identical_series_zero_under_tight_cutoff(rng):
    x = np.cumsum(rng.normal(size=N))
    for backend in BACKENDS:
        assert banded_dtw_cost(x, x, 5, 0.0, backend=backend) == 0.0


# ----------------------------------------------------------------------
# batch kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", BANDS)
def test_kernel_batch_matches_per_pair(rng, k, metric):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(60, N)), axis=1)
    per_pair = np.array([
        ldtw_distance(x, row, k, metric=metric, backend="scalar")
        for row in candidates
    ])
    for backend in BACKENDS:
        batch = ldtw_distance_batch(x, candidates, k, metric=metric,
                                    backend=backend)
        np.testing.assert_allclose(batch, per_pair, atol=ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_batch_cutoffs_no_false_negatives(rng, backend):
    """Per-candidate cutoffs: survivors exact, non-survivors only ever
    candidates whose true distance exceeds their own cutoff."""
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(200, N)), axis=1)
    k = 5
    true = ldtw_distance_batch(x, candidates, k, backend="scalar")
    # Mostly killing cutoffs: with a majority of the batch dead the
    # vectorized kernel's dead-column compaction path runs (a pruned
    # candidate only comes back inf once compaction drops it — until
    # then it may finish with its exact, over-cutoff value, which is
    # an equally sound rejection).
    cuts = true * rng.choice([0.2, 1.005, 1.5], size=true.size,
                             p=[0.6, 0.2, 0.2])
    got = ldtw_distance_batch(x, candidates, k, upper_bound=cuts,
                              backend=backend)
    finite = np.isfinite(got)
    # Any finite result is the exact distance ...
    np.testing.assert_allclose(got[finite], true[finite], atol=ATOL)
    # ... anything clearly inside its cutoff survives ...
    must_survive = true <= cuts * (1.0 - 1e-9)
    assert np.all(finite[must_survive])
    # ... and everything pruned to inf was really over its cutoff.
    assert np.all(true[~finite] > cuts[~finite])
    assert np.any(~finite)  # the cutoffs really did bite


def test_kernel_batch_scalar_cutoff_broadcasts(rng):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(20, N)), axis=1)
    true = ldtw_distance_batch(x, candidates, 5)
    cutoff = float(np.median(true))
    got = ldtw_distance_batch(x, candidates, 5, upper_bound=cutoff)
    keep = true <= cutoff
    np.testing.assert_allclose(got[keep], true[keep], atol=ATOL)
    assert np.all(np.isinf(got[~keep]) | (got[~keep] > cutoff))


def test_kernel_batch_bad_bounds_shape_raises(rng):
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(4, N)), axis=1)
    with pytest.raises(ValueError, match="bound_costs"):
        banded_dtw_cost_batch(x, candidates, 5, np.zeros(3))


def test_kernel_batch_empty_and_band_violation(rng):
    x = np.cumsum(rng.normal(size=N))
    empty = ldtw_distance_batch(x, np.empty((0, N)), 5)
    assert empty.shape == (0,)
    # ldtw_distance_batch requires equal lengths (the post-UTW shape);
    # the kernels themselves answer inf when |n - m| > k.
    short = np.cumsum(rng.normal(size=(3, N - 10)), axis=1)
    for backend in BACKENDS:
        assert np.all(np.isinf(
            banded_dtw_cost_batch(x, short, 5, backend=backend)
        ))


# ----------------------------------------------------------------------
# compiled == vectorized, bit for bit
# ----------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", (0, 1, 6, N))
def test_kernel_compiled_bitwise_equals_vectorized(rng, k, metric):
    compiled = get_kernel("compiled")
    manhattan = metric == "manhattan"
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(40, N)), axis=1)
    want = VECTORIZED.cost_batch(x, candidates, k, manhattan=manhattan)
    got = compiled.cost_batch(x, candidates, k, manhattan=manhattan)
    assert np.array_equal(got, want)
    for row in candidates[:5]:
        assert compiled.cost(x, row, k, manhattan=manhattan) == \
            VECTORIZED.cost(x, row, k, manhattan=manhattan)
    # Under cutoffs the two abandon at different granularity (rows vs
    # diagonal pairs); every row neither abandons is still identical.
    cuts = want * rng.choice([0.3, 1.0, 2.0], size=want.size)
    got = compiled.cost_batch(x, candidates, k, cuts, manhattan=manhattan)
    ref = VECTORIZED.cost_batch(x, candidates, k, cuts, manhattan=manhattan)
    both = np.isfinite(got) & np.isfinite(ref)
    assert np.array_equal(got[both], ref[both])
    assert np.all(np.isfinite(got[want < cuts]))


@needs_compiled
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", (40, 44, 48, 53, 57))
def test_kernel_compiled_bitwise_unequal_lengths(rng, m, metric):
    """Lengths 44 and 53 are inside a k = 6 band, 40 and 57 outside."""
    manhattan = metric == "manhattan"
    x, y = _pair(rng, n=N, m=m)
    for k in (0, 6):
        got = banded_dtw_cost(x, y, k, manhattan=manhattan,
                              backend="compiled")
        want = banded_dtw_cost(x, y, k, manhattan=manhattan,
                               backend="vectorized")
        assert got == want
        assert math.isinf(got) == (abs(N - m) > k)


# ----------------------------------------------------------------------
# work counters
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_stats_counters(rng, backend):
    """Every entry point counts calls, rows and band cells; unbounded,
    the cells are the band's, whichever backend sweeps it."""
    k = 5
    kernel = get_kernel(backend)
    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(12, N)), axis=1)
    band_cells = sum(min(N - 1, i + k) - max(0, i - k) + 1
                     for i in range(N))

    stats = KernelStats()
    kernel.cost(x, candidates[0], k, stats=stats)
    assert (stats.calls, stats.rows, stats.cells) == (1, 1, band_cells)

    stats = KernelStats()
    refine = ldtw_refiner(x, k, backend=backend, kernel_stats=stats)
    for row in candidates[:3]:
        refine(row)
    assert (stats.calls, stats.rows, stats.cells) == (3, 3, 3 * band_cells)

    stats = KernelStats()
    kernel.cost_batch(x, candidates, k, stats=stats)
    assert stats.rows == 12
    assert stats.cells == 12 * band_cells
    assert stats.calls == (12 if backend == "scalar" else 1)

    # A zero cutoff abandons every row early: fewer cells, all inf.
    stats = KernelStats()
    out = kernel.cost_batch(x, candidates, k, 0.0, stats=stats)
    assert np.all(np.isinf(out))
    assert stats.rows == 12 and 0 < stats.cells < 12 * band_cells


# ----------------------------------------------------------------------
# prepared refiners
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
def test_kernel_refiner_matches_ldtw_distance(rng, backend, metric):
    x, _ = _pair(rng)
    refine = ldtw_refiner(x, 5, metric=metric, backend=backend)
    for _ in range(5):
        _, y = _pair(rng)
        expect = ldtw_distance(x, y, 5, metric=metric, backend=backend)
        assert refine(y) == pytest.approx(expect, abs=ATOL)
        assert refine(y, expect + 1.0) == pytest.approx(expect, abs=ATOL)
        tight = refine(y, expect * 0.5)
        assert tight == math.inf or tight == pytest.approx(expect, abs=ATOL)


def test_kernel_refiner_accepts_lists(rng):
    x, y = _pair(rng)
    refine = ldtw_refiner(list(x), 5)
    assert refine(list(y)) == pytest.approx(ldtw_distance(x, y, 5), abs=ATOL)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_kernel_registry_default_and_listing():
    assert get_kernel() is get_kernel(DEFAULT_BACKEND)
    names = available_backends()
    assert names[0] == DEFAULT_BACKEND
    assert "scalar" in names and "vectorized" in names


@pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None,
                    reason="no C compiler on PATH")
def test_kernel_default_is_compiled_when_a_compiler_exists():
    assert DEFAULT_BACKEND == "compiled"


def test_kernel_registry_unknown_backend():
    with pytest.raises(ValueError, match="unknown DTW backend"):
        get_kernel("cuda")
    with pytest.raises(ValueError, match="unknown DTW backend"):
        ldtw_distance([0.0, 1.0], [0.0, 1.0], 1, backend="nope")


def test_kernel_registry_register_and_overwrite():
    class DummyKernel(DTWKernel):
        name = "dummy-test"

        def prepare(self, x, k, *, manhattan=False):
            return lambda y, bound_cost=math.inf: 0.0

    try:
        register_kernel(DummyKernel())
        assert get_kernel("dummy-test").cost(
            np.zeros(3), np.zeros(3), 1) == 0.0
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(DummyKernel())
        register_kernel(DummyKernel(), overwrite=True)
    finally:
        _REGISTRY.pop("dummy-test", None)


def test_kernel_registry_rejects_abstract_name():
    with pytest.raises(ValueError, match="concrete name"):
        register_kernel(DTWKernel())


def test_kernel_default_cost_batch_loops_refiner(rng):
    """The base-class batch path (prepared-refiner loop) is exact."""

    class LoopKernel(DTWKernel):
        name = "loop-test"
        prepare = type(SCALAR).prepare

    x = np.cumsum(rng.normal(size=N))
    candidates = np.cumsum(rng.normal(size=(8, N)), axis=1)
    got = LoopKernel().cost_batch(x, candidates, 5)
    expect = SCALAR.cost_batch(x, candidates, 5)
    np.testing.assert_allclose(got, expect, atol=ATOL)
