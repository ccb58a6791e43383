/* The fused pass of the rolling GLCM kernel (repro.core.backends).
 *
 * Built on first use and loaded through ctypes by repro.core.native;
 * plain C99, no Python.h, so it runs with the interpreter lock released.
 */
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
