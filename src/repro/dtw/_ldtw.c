/*
 * Banded (Sakoe-Chiba) DTW in accumulated-cost space: the "compiled"
 * backend of repro.dtw.kernels, loaded through ctypes.
 *
 * The DP runs row by row over the band |i - j| <= k with two rolling
 * rows of m + 1 doubles; slot 0 of each row is a permanent inf pad
 * and cell j lives at slot j + 1.  Per cell the recurrence is
 * min(up, diag, left) + cost with cost = (x[i] - y[j])^2 (Euclidean)
 * or |x[i] - y[j]| (Manhattan).  min() is exact and the single
 * addition matches the NumPy wavefront, so, built without FMA
 * contraction or fast-math, results are bitwise equal to the
 * "vectorized" backend.
 *
 * A candidate is abandoned (inf) once a whole row exceeds its cutoff:
 * every warping path visits every row.  A candidate that finishes
 * returns its finite cost even when that cost is above the cutoff.
 */

#include <math.h>
#include <stdlib.h>

static inline double min2(double a, double b) { return a < b ? a : b; }

/* One candidate; prev/cur are caller-provided rows of m + 1 doubles. */
static double ldtw_one(const double *x, long long n, const double *y,
                       long long m, long long k, double bound,
                       int manhattan, double *prev, double *cur,
                       long long *cells)
{
    long long i, j;

    for (j = 0; j <= m; j++) {
        prev[j] = INFINITY;
        cur[j] = INFINITY;
    }
    /* Virtual cell (-1, -1) = 0 seeds cell (0, 0) through "diag". */
    prev[0] = 0.0;
    for (i = 0; i < n; i++) {
        long long lo = i - k > 0 ? i - k : 0;
        long long hi = i + k < m - 1 ? i + k : m - 1;
        double xi = x[i];
        double left = INFINITY;
        double row_min = INFINITY;
        *cells += hi - lo + 1;
        for (j = lo; j <= hi; j++) {
            double d = xi - y[j];
            double cost = manhattan ? fabs(d) : d * d;
            double best = min2(min2(prev[j + 1], prev[j]), left);
            left = best + cost;
            cur[j + 1] = left;
            row_min = min2(row_min, left);
        }
        if (row_min > bound)
            return INFINITY;
        if (i == 0)
            prev[0] = INFINITY;  /* the seed is only row 0's diagonal */
        {
            double *t = prev;
            prev = cur;
            cur = t;
        }
    }
    return prev[m];
}

/*
 * Costs from x (length n) to `count` candidates stored row-major in
 * `cands` (each of length m), written to `out`.  The cutoff of row r
 * is bounds[r], or `bound` for every row when bounds is NULL.
 * Returns the number of band cells evaluated, or -1 when the work
 * rows cannot be allocated.
 */
long long repro_ldtw_batch(const double *x, long long n,
                           const double *cands, long long count,
                           long long m, long long k, double bound,
                           const double *bounds, int manhattan,
                           double *out)
{
    long long r, cells = 0;
    double *work;

    if (n - m > k || m - n > k) {
        for (r = 0; r < count; r++)
            out[r] = INFINITY;
        return 0;
    }
    work = malloc(2 * (size_t)(m + 1) * sizeof(double));
    if (work == NULL)
        return -1;
    for (r = 0; r < count; r++)
        out[r] = ldtw_one(x, n, cands + r * m, m, k,
                          bounds ? bounds[r] : bound, manhattan,
                          work, work + m + 1, &cells);
    free(work);
    return cells;
}
