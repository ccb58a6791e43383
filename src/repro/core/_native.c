/* The compiled passes: the plane histograms and the per-window moment
 * sums of the rolling GLCM kernel (repro.core.backends), and the
 * difference histograms and information features of the Haralick stage
 * (repro.core.features).
 *
 * Built on first use and loaded through ctypes by repro.core.native;
 * plain C99, no Python.h, so it runs with the interpreter lock released.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Histogram every pair-code hyperplane of a block of scan rows:
 *
 *     out[r][p][codes[origins[r] + p + face[f]]] += 1
 *
 * for r < rows, p < n_planes, f < n_face, with out a zeroed
 * (rows, n_planes, gg) array.  Returns 0, or 1 when a window would read
 * outside codes[0:n_codes], or 2 when a code is outside [0, gg); out is
 * never written outside its rows * n_planes * gg elements.
 */
int plane_histograms(const int64_t *codes, int64_t n_codes,
                     const int64_t *origins, int64_t rows, int64_t n_planes,
                     const int64_t *face, int64_t n_face,
                     int64_t gg, int64_t *out)
{
    if (rows <= 0 || n_planes <= 0 || gg <= 0)
        return 0;
    memset(out, 0, (size_t)(rows * n_planes * gg) * sizeof *out);
    if (n_face <= 0)
        return 0;
    int64_t lo = face[0], hi = face[0];
    for (int64_t f = 1; f < n_face; f++) {
        if (face[f] < lo) lo = face[f];
        if (face[f] > hi) hi = face[f];
    }
    for (int64_t r = 0; r < rows; r++)
        if (origins[r] + lo < 0 || origins[r] + hi + n_planes > n_codes)
            return 1;
    for (int64_t r = 0; r < rows; r++) {
        int64_t *row = out + r * n_planes * gg;
        for (int64_t f = 0; f < n_face; f++) {
            /* The planes of one face position are contiguous codes. */
            const int64_t *c = codes + origins[r] + face[f];
            for (int64_t p = 0; p < n_planes; p++) {
                if ((uint64_t)c[p] >= (uint64_t)gg)
                    return 2;
                row[p * gg + c[p]] += 1;
            }
        }
    }
    return 0;
}

/* Add (sign 1) or drop (sign -1) one compacted plane, n entries
 * count << 32 | i << 16 | j, to the window A, keeping the sums of its
 * symmetric c = A + A^T current: o is {N, sum c^2, D[0:g], Hs[0:2g-1]}.
 * Off the diagonal c[i][j] = c[j][i] moves by delta, on it by 2 delta. */
static void add_plane(const int64_t *list, int64_t n, int64_t sign,
                      int64_t *window, int64_t g, int64_t *o)
{
    int64_t total = 0, squares = 0, *d = o + 2, *hs = d + g;
    for (int64_t e = 0; e < n; e++) {
        int64_t i = (list[e] >> 16) & 0xffff, j = list[e] & 0xffff;
        int64_t delta = sign * (list[e] >> 32);
        int64_t c = window[i * g + j] + window[j * g + i];
        window[i * g + j] += delta;
        squares += 2 * delta * (2 * c + (i == j ? 2 : 1) * delta);
        total += 2 * delta;
        d[i > j ? i - j : j - i] += 2 * delta;
        hs[i + j] += 2 * delta;
    }
    o[0] += total;
    o[1] += squares;
}

/* Overwrite the dense plane histogram pl[0:g*g] with its non-zero cells
 * as count << 32 | i << 16 | j, in place, and return how many there
 * are; -1 when a count does not fit 31 bits.  Four cells are tested at
 * a time: a plane holds a few dozen counts among G^2 cells. */
static int64_t compact_plane(int64_t *pl, int64_t g)
{
    int64_t n = 0;
    for (int64_t i = 0; i < g; i++) {
        const int64_t *row = pl + i * g;
        for (int64_t j = 0; j < g; j++) {
            if (j + 4 <= g && !(row[j] | row[j + 1] | row[j + 2] | row[j + 3])) {
                j += 3;
                continue;
            }
            int64_t c = row[j];
            if (c) {
                if (c < 0 || c >= (int64_t)1 << 31)
                    return -1;
                pl[n++] = c << 32 | i << 16 | j;
            }
        }
    }
    return n;
}

/* The integer sums of every window of a block of scan rows, straight
 * from its plane histograms; no window matrix leaves this function.
 *
 * Group q's plane histograms sit at planes + offset[q], shaped
 * (rows, span - 1 + width[q], g * g), and the window at position t of
 * row r counts A = sum over q of its planes [t, t + width[q]).  Its
 * GLCM is the symmetric c = A + A^T, and out[r][t] (3g + 1 int64) is
 *
 *     {N, sum c^2, D[0:g], Hs[0:2g-1]}
 *
 * with N = sum c, D[k] the sum of c over |i - j| = k and Hs[s] over
 * i + j = s.  A slides along the row: each plane is compacted to its
 * non-zero cells once, when it enters (the planes are overwritten),
 * and every cell that enters or leaves updates the sums in O(1), so a
 * step costs the planes' non-zero cells, not G^2.  scratch holds
 * g * g + sum over q of (span - 1 + width[q]) int64 (the window and the
 * planes' lengths).  Integer arithmetic only, so the sums are exact and
 * compiler flags cannot change them.  Returns 0, or 1 when a plane
 * count is negative or does not fit 31 bits.
 */
int window_sums(int64_t *planes, const int64_t *offset,
                const int64_t *width, int64_t groups, int64_t rows,
                int64_t span, int64_t g, int64_t *scratch, int64_t *out)
{
    int64_t gg = g * g, stride = 3 * g + 1;
    int64_t *window = scratch, *len = scratch + gg;
    for (int64_t r = 0; r < rows; r++) {
        int64_t *o = out + r * span * stride;
        memset(window, 0, (size_t)gg * sizeof *window);
        memset(o, 0, (size_t)stride * sizeof *o);
        int64_t *n = len;
        for (int64_t q = 0; q < groups; q++) {
            int64_t n_planes = span - 1 + width[q];
            int64_t *pl = planes + offset[q] + r * n_planes * gg;
            for (int64_t p = 0; p < width[q]; p++) {
                n[p] = compact_plane(pl + p * gg, g);
                if (n[p] < 0)
                    return 1;
                add_plane(pl + p * gg, n[p], 1, window, g, o);
            }
            n += n_planes;
        }
        for (int64_t t = 1; t < span; t++) {
            memcpy(o + stride, o, (size_t)stride * sizeof *o);
            o += stride;
            n = len;
            for (int64_t q = 0; q < groups; q++) {
                int64_t n_planes = span - 1 + width[q];
                int64_t *pl = planes + offset[q] + r * n_planes * gg;
                int64_t in = t - 1 + width[q];
                n[in] = compact_plane(pl + in * gg, g);
                if (n[in] < 0)
                    return 1;
                add_plane(pl + in * gg, n[in], 1, window, g, o);
                add_plane(pl + (t - 1) * gg, n[t - 1], -1, window, g, o);
                n += n_planes;
            }
        }
    }
    return 0;
}

/* D[b][k] = sum of p[b][i][j] over |i - j| = k for n G x G float64
 * matrices: the difference histogram of a stored matrix, summed in a
 * fixed order, so exact on counts.  Each row is split at its diagonal,
 * so neither inner loop branches.  Returns 0. */
int difference_histograms(const double *p, int64_t n, int64_t g, double *d)
{
    for (int64_t b = 0; b < n; b++) {
        const double *pb = p + b * g * g;
        double *db = d + b * g;
        memset(db, 0, (size_t)g * sizeof *db);
        for (int64_t i = 0; i < g; i++) {
            const double *row = pb + i * g;
            for (int64_t j = 0; j < i; j++)
                db[i - j] += row[j];
            for (int64_t j = i; j < g; j++)
                db[j - i] += row[j];
        }
    }
    return 0;
}

/* -sum q ln q over the cells of v[0:len] with q = v / tot > 0. */
static double entropy(const double *v, int64_t len, double tot)
{
    double h = 0.0;
    for (int64_t i = 0; i < len; i++)
        if (v[i] > 0.0) {
            double q = v[i] / tot;
            h -= q * log(q);
        }
    return h;
}

/* How many eigenvalues of the symmetric tridiagonal matrix with
 * diagonal d[0:k] and squared off-diagonal e2[0:k-1] are <= x: the
 * negative pivots of the LDL^T factorisation of T - x I (Sturm count),
 * with LAPACK's guard against a zero pivot. */
static int64_t sturm_count(const double *d, const double *e2, int64_t k,
                           double x, double pivmin)
{
    int64_t count = 0;
    double q = d[0] - x;
    for (int64_t i = 0;;) {
        if (fabs(q) < pivmin)
            q = -pivmin;
        count += q <= 0.0;
        if (++i == k)
            return count;
        q = d[i] - x - e2[i - 1] / q;
    }
}

/* Second-largest eigenvalue of the symmetric k x k matrix a (row-major,
 * k >= 2), destroyed on the way: Householder reduction to tridiagonal
 * form, then Sturm bisection.  v and w hold k doubles each. */
static double second_eigenvalue(double *a, int64_t k, double *v, double *w)
{
    for (int64_t j = 0; j + 2 < k; j++) {
        /* Reflect a[j+1:k][j] onto its first element. */
        double tail = 0.0;
        for (int64_t i = j + 2; i < k; i++)
            tail += a[i * k + j] * a[i * k + j];
        if (tail == 0.0)
            continue;
        double x0 = a[(j + 1) * k + j];
        double alpha = -copysign(sqrt(x0 * x0 + tail), x0);
        v[j + 1] = x0 - alpha;
        for (int64_t i = j + 2; i < k; i++)
            v[i] = a[i * k + j];
        double beta = 2.0 / (v[j + 1] * v[j + 1] + tail);
        /* a22 -= v w^T + w v^T with w = p - (beta p.v / 2) v,
         * p = beta a22 v. */
        double pv = 0.0;
        for (int64_t i = j + 1; i < k; i++) {
            double s = 0.0;
            for (int64_t l = j + 1; l < k; l++)
                s += a[i * k + l] * v[l];
            w[i] = beta * s;
            pv += w[i] * v[i];
        }
        double half = 0.5 * beta * pv;
        for (int64_t i = j + 1; i < k; i++)
            w[i] -= half * v[i];
        for (int64_t i = j + 1; i < k; i++)
            for (int64_t l = j + 1; l < k; l++)
                a[i * k + l] -= v[i] * w[l] + w[i] * v[l];
        a[(j + 1) * k + j] = alpha;
    }
    /* Diagonal into v, squared off-diagonal into w, Gershgorin bounds. */
    double lo = INFINITY, hi = -INFINITY, emax = 0.0;
    for (int64_t i = 0; i < k; i++) {
        double below = i + 1 < k ? fabs(a[(i + 1) * k + i]) : 0.0;
        double above = i > 0 ? sqrt(w[i - 1]) : 0.0;
        v[i] = a[i * k + i];
        if (i + 1 < k) {
            w[i] = below * below;
            if (w[i] > emax) emax = w[i];
        }
        if (v[i] - above - below < lo) lo = v[i] - above - below;
        if (v[i] + above + below > hi) hi = v[i] + above + below;
    }
    double pivmin = DBL_MIN * (emax > 1.0 ? emax : 1.0);
    double tol = DBL_EPSILON * fmax(fabs(lo), fabs(hi));
    /* lambda_{k-2} (ascending) is where the count passes k - 1. */
    for (int iter = 0; iter < 256 && hi - lo > tol; iter++) {
        double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi)
            break;
        if (sturm_count(v, w, k, mid, pivmin) >= k - 1)
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
}

/* The information features of n G x G matrices p (row-major float64,
 * counts or probabilities, tot[b] > 0 the sum of matrix b):
 *
 *     ent[b] = {H(p), H(px), H(py), H(p_{x+y}), H(p_{|x-y|})}
 *
 * natural-log entropies of p / tot[b] and of its marginals, zero cells
 * skipped.  When mcc is not NULL, mcc[b] is the maximal correlation
 * coefficient: sqrt of the second-largest eigenvalue of A = M M^T,
 * M = Dx^{-1/2} P Dy^{-1/2} over the k levels with px > 0 and py > 0
 * (0 when k < 2), clipped to [0, 1].  A has the spectrum of Haralick's
 * Q = Dx^{-1} P Dy^{-1} P^T and is symmetric.
 *
 * scratch holds n_scratch doubles: 5G without mcc, 2G^2 + 7G with it.
 * Returns 0, or 1 when scratch is too short (nothing is written).
 */
int information_features(const double *p, int64_t n, int64_t g,
                         const double *tot, double *ent, double *mcc,
                         double *scratch, int64_t n_scratch)
{
    if (n <= 0 || g <= 0)
        return 0;
    if (n_scratch < 5 * g + (mcc ? 2 * g * g + 2 * g : 0))
        return 1;
    double *px = scratch, *py = px + g, *psum = py + g, *pdiff = psum + 2 * g;
    double *m = pdiff + g, *a = m + g * g, *v = a + g * g, *w = v + g;
    for (int64_t b = 0; b < n; b++) {
        const double *pb = p + b * g * g;
        memset(scratch, 0, (size_t)(5 * g) * sizeof *scratch);
        for (int64_t i = 0; i < g; i++)
            for (int64_t j = 0; j < g; j++) {
                double c = pb[i * g + j];
                px[i] += c;
                py[j] += c;
                psum[i + j] += c;
                pdiff[i > j ? i - j : j - i] += c;
            }
        double *e = ent + 5 * b;
        e[0] = entropy(pb, g * g, tot[b]);
        e[1] = entropy(px, g, tot[b]);
        e[2] = entropy(py, g, tot[b]);
        e[3] = entropy(psum, 2 * g - 1, tot[b]);
        e[4] = entropy(pdiff, g, tot[b]);
        if (!mcc)
            continue;
        /* M over the kept levels; their 1/sqrt marginals go in v and w. */
        int64_t k = 0;
        for (int64_t i = 0; i < g; i++)
            if (px[i] > 0.0 && py[i] > 0.0) {
                v[k] = 1.0 / sqrt(px[i]);
                w[k++] = 1.0 / sqrt(py[i]);
            }
        mcc[b] = 0.0;
        if (k < 2)
            continue;
        int64_t r = 0;
        for (int64_t i = 0; i < g; i++) {
            if (!(px[i] > 0.0 && py[i] > 0.0))
                continue;
            int64_t c = 0;
            for (int64_t j = 0; j < g; j++)
                if (px[j] > 0.0 && py[j] > 0.0) {
                    m[r * k + c] = pb[i * g + j] * v[r] * w[c];
                    c++;
                }
            r++;
        }
        for (int64_t i = 0; i < k; i++)
            for (int64_t l = 0; l <= i; l++) {
                double s = 0.0;
                for (int64_t c = 0; c < k; c++)
                    s += m[i * k + c] * m[l * k + c];
                a[i * k + l] = a[l * k + i] = s;
            }
        double lam = second_eigenvalue(a, k, v, w);
        mcc[b] = sqrt(lam < 0.0 ? 0.0 : lam > 1.0 ? 1.0 : lam);
    }
    return 0;
}
