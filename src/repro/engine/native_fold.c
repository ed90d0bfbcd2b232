/* The engine's gather-fold: the scatter's inner loop, one per combine kind.
 *
 *   fold_<op>(acc, dst, sel|NULL, src|NULL, msg, n)
 *
 * For entry i = 0 .. n-1, in order: p = sel ? sel[i] : i and
 * m = src ? msg[src[p]] : msg[i], then acc[dst[p]] = op(acc[dst[p]], m).
 * With src, msg holds one message per (vertex, snapshot) cell and the
 * gather by source happens here, so no stream-length message array exists.
 *
 * Each combine is NumPy's scalar rule, operands in the same order, so the
 * fold equals the sequential ufunc.at byte for byte:
 *   add  a + m                                   (a NaN accumulator's
 *                                                  payload wins over m's)
 *   min  (a < m || isnan(a)) ? a : m             a tie takes the message:
 *   max  (a > m || isnan(a)) ? a : m             min(0.0, -0.0) is -0.0
 * Build without -ffast-math: these rules are IEEE comparisons, not minsd.
 */
#include <math.h>
#include <stddef.h>

typedef ptrdiff_t idx_t; /* numpy.intp */

#define COMBINE_ADD(a, m) ((a) + (m))
#define COMBINE_MIN(a, m) (((a) < (m) || isnan(a)) ? (a) : (m))
#define COMBINE_MAX(a, m) (((a) > (m) || isnan(a)) ? (a) : (m))

#define FOLD_LOOP(COMBINE, POS, MSG)                                      \
    for (idx_t i = 0; i < n; ++i) {                                       \
        const idx_t p = (POS);                                            \
        const double m = (MSG);                                           \
        double *const cell = acc + dst[p];                                \
        *cell = COMBINE(*cell, m);                                        \
    }

/* One loop per index form, so no per-entry branch on sel / src. */
#define DEFINE_FOLD(NAME, COMBINE)                                        \
    void fold_##NAME(double *acc, const idx_t *dst, const idx_t *sel,     \
                     const idx_t *src, const double *msg, idx_t n)        \
    {                                                                     \
        if (sel && src) {                                                 \
            FOLD_LOOP(COMBINE, sel[i], msg[src[p]])                       \
        } else if (sel) {                                                 \
            FOLD_LOOP(COMBINE, sel[i], msg[i])                            \
        } else if (src) {                                                 \
            FOLD_LOOP(COMBINE, i, msg[src[p]])                            \
        } else {                                                          \
            FOLD_LOOP(COMBINE, i, msg[i])                                 \
        }                                                                 \
    }

DEFINE_FOLD(add, COMBINE_ADD)
DEFINE_FOLD(min, COMBINE_MIN)
DEFINE_FOLD(max, COMBINE_MAX)
