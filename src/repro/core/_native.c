/* The compiled passes: the plane histograms of the rolling GLCM kernel
 * (repro.core.backends) and the information features of the Haralick
 * stage (repro.core.features).
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
