/* The engine's scatter: one walk of a group's edge array per combine kind,
 * then apply's settle pass, a series' out-degree count and the stable
 * counting sort behind every edge order (at the end of this file).
 *
 *   walk_<op>(acc, msg, bitmap, src, dst, index, rows, nrows,
 *             weight, wrow, edge_op, front, mask, lo, hi, vs, ss, nsnap)
 *
 * Dense walk (rows == NULL), over the in-edges e in [lo, hi):
 *   b = bitmap[e] & (front ? front[src[e]] : mask)
 * Sparse walk (rows != NULL), over the out-edges of the frontier rows
 * u = rows[0 .. nrows-1] (ascending), keeping destinations in [lo, hi):
 *   b = bitmap[e] & front[u],  for e in [index[u], index[u+1])
 * Then, for each set bit s of b, ascending:
 *   acc[d*vs + s*ss] = op(acc[d*vs + s*ss], m),  m = msg[u*vs + s*ss] (+|*) w
 * with w = weight[e*wrow + s] when edge_op is 1 (add) or 2 (mul), and no
 * weight when edge_op is 0. vs and ss are the accumulator layout's vertex
 * and snapshot strides; msg holds one message per (vertex, snapshot) cell,
 * so no per-edge message array exists. Returns the number of (edge,
 * snapshot) pairs folded.
 *
 * Both walks fold each accumulator cell's contributions in ascending
 * source order -- the in-edge array is (dst, src)-ordered, the sparse walk
 * takes its rows ascending -- which is the order a per-edge loop reaches
 * them in, so the result is the sequential ufunc.at fold, byte for byte.
 * Each combine is NumPy's scalar rule, operands in the same order:
 *   add  a + m                                   (a NaN accumulator's
 *                                                  payload wins over m's,
 *                                                  as msg's wins over w's)
 *   min  (a < m || isnan(a)) ? a : m             a tie takes the message:
 *   max  (a > m || isnan(a)) ? a : m             min(0.0, -0.0) is -0.0
 * Build without -ffast-math: these rules are IEEE comparisons, not minsd.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef ptrdiff_t idx_t; /* numpy.intp */

/* x + y and x * y with x's NaN winning when both are NaN, as NumPy's
 * ufunc.at gives an accumulator: SSE keeps its destination operand's
 * payload. The asm pins x as the destination; C's commutative + and *
 * would let the compiler hand the result y's payload instead. */
#if defined(__x86_64__)
#define NAN_FIRST_OP(NAME, INSN, OP)                                      \
    static inline double NAME(double x, double y)                         \
    {                                                                     \
        __asm__(INSN " %1, %0" : "+x"(x) : "xm"(y));                     \
        return x;                                                         \
    }
#else
#define NAN_FIRST_OP(NAME, INSN, OP)                                      \
    static inline double NAME(double x, double y)                         \
    {                                                                     \
        return isnan(x) ? x + 0.0 : x OP y;                               \
    }
#endif
NAN_FIRST_OP(add_first, "addsd", +)
NAN_FIRST_OP(mul_first, "mulsd", *)

#define COMBINE_ADD(a, m) add_first(a, m)
#define COMBINE_MIN(a, m) (((a) < (m) || isnan(a)) ? (a) : (m))
#define COMBINE_MAX(a, m) (((a) > (m) || isnan(a)) ? (a) : (m))

/* The message of source cell c over an edge whose weight row is w. */
#define MSG_CELL(c, s) (msg[c])
#define MSG_ADD(c, s) add_first(msg[c], w[s])
#define MSG_MUL(c, s) mul_first(msg[c], w[s])

/* What one walk reads besides the edge range it is given. */
typedef struct {
    double *acc;
    const double *msg;
    const uint64_t *bitmap;
    const int64_t *src;
    const int64_t *dst;
    const double *weight;
    idx_t wrow;
    const uint64_t *front;
    uint64_t mask;
    uint64_t full; /* every snapshot of the group */
    idx_t vs, ss, nsnap;
} walk_t;

#define FOLD_BIT(COMBINE, MSG, s)                                         \
    do {                                                                  \
        double *const cell = out + (s) * ss;                              \
        const double m = MSG(in + (s) * ss, s);                           \
        *cell = COMBINE(*cell, m);                                        \
    } while (0)

/* Fold the edges [e_lo, e_hi): for edge e from u to d, each set bit s of
 * its bitmap under the frontier word of u (or the mask). An edge live in
 * every snapshot -- the common case of a stationary pass -- runs as a
 * straight loop over the snapshots, unrolled by 4; any other as a loop
 * over its set bits. */
#define DEFINE_SPAN(NAME, COMBINE, MSG)                                   \
    static idx_t NAME(const walk_t *wk, idx_t e_lo, idx_t e_hi)           \
    {                                                                     \
        /* Locals, not wk-> loads: a store to acc could alias wk. */     \
        double *restrict const acc = wk->acc;                             \
        const double *restrict const msg = wk->msg;                       \
        const uint64_t *const bitmap = wk->bitmap;                        \
        const uint64_t *const front = wk->front;                          \
        const int64_t *const src = wk->src, *const dst = wk->dst;         \
        const double *const weight = wk->weight;                          \
        const uint64_t mask = wk->mask, full = wk->full;                  \
        const idx_t vs = wk->vs, ss = wk->ss, nsnap = wk->nsnap;          \
        const idx_t wrow = wk->wrow;                                      \
        idx_t count = 0;                                                  \
        for (idx_t e = e_lo; e < e_hi; ++e) {                             \
            const idx_t u = src[e];                                       \
            uint64_t b = bitmap[e] & (front ? front[u] : mask);           \
            if (!b)                                                       \
                continue;                                                 \
            double *const out = acc + dst[e] * vs;                        \
            const idx_t in = u * vs;                                      \
            const double *const w = weight ? weight + e * wrow : NULL;    \
            (void)w;                                                      \
            if (b == full) {                                              \
                _Pragma("GCC unroll 4")                                   \
                for (idx_t s = 0; s < nsnap; ++s)                         \
                    FOLD_BIT(COMBINE, MSG, s);                            \
                count += nsnap;                                           \
            } else {                                                      \
                do {                                                      \
                    const idx_t s = __builtin_ctzll(b);                   \
                    FOLD_BIT(COMBINE, MSG, s);                            \
                    b &= b - 1;                                           \
                    ++count;                                              \
                } while (b);                                              \
            }                                                             \
        }                                                                 \
        return count;                                                     \
    }

typedef idx_t (*span_t)(const walk_t *, idx_t, idx_t);

/* The first edge in [lo, hi) of the ascending dst whose value is >= key. */
static idx_t first_at_least(const int64_t *dst, idx_t lo, idx_t hi,
                            idx_t key)
{
    while (lo < hi) {
        const idx_t mid = lo + (hi - lo) / 2;
        if (dst[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* One function per combine kind; the edge op picks the span loop once, so
 * no per-cell branch on it. The dense walk is one span over the in-edges
 * [lo, hi). The sparse walk is one span per frontier row u, over those of
 * its out-edges [index[u], index[u+1]) -- ascending in destination --
 * whose destination lies in [lo, hi). */
#define DEFINE_WALK(NAME, COMBINE)                                        \
    DEFINE_SPAN(span_##NAME##_cell, COMBINE, MSG_CELL)                    \
    DEFINE_SPAN(span_##NAME##_add, COMBINE, MSG_ADD)                      \
    DEFINE_SPAN(span_##NAME##_mul, COMBINE, MSG_MUL)                      \
    idx_t walk_##NAME(double *acc, const double *msg,                     \
                      const uint64_t *bitmap, const int64_t *src,         \
                      const int64_t *dst, const int64_t *index,           \
                      const int64_t *rows, idx_t nrows,                   \
                      const double *weight, idx_t wrow, int edge_op,      \
                      const uint64_t *front, uint64_t mask, idx_t lo,     \
                      idx_t hi, idx_t vs, idx_t ss, idx_t nsnap)          \
    {                                                                     \
        const walk_t wk = {                                               \
            acc, msg, bitmap, src, dst, weight, wrow, front, mask,        \
            nsnap >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << nsnap) - 1),    \
            vs, ss, nsnap};                                               \
        const span_t span = edge_op == 1   ? span_##NAME##_add            \
                            : edge_op == 2 ? span_##NAME##_mul            \
                                           : span_##NAME##_cell;          \
        if (!rows)                                                        \
            return span(&wk, lo, hi);                                     \
        idx_t count = 0;                                                  \
        for (idx_t r = 0; r < nrows; ++r) {                               \
            const idx_t first = index[rows[r]], last = index[rows[r] + 1]; \
            const idx_t from = first_at_least(dst, first, last, lo);      \
            count += span(&wk, from, first_at_least(dst, from, last, hi)); \
        }                                                                 \
        return count;                                                     \
    }

DEFINE_WALK(add, COMBINE_ADD)
DEFINE_WALK(min, COMBINE_MIN)
DEFINE_WALK(max, COMBINE_MAX)

/* The apply phase's bookkeeping, after the program's apply has computed
 * the candidate values cand (element strides cv, cs; 0 for a broadcast):
 *
 *   settle(values, vs, ss, cand, cv, cs, exists, running, front, tol, nvert)
 *
 * For each vertex v and each set bit s of exists[v] & running, writes
 * values[v*vs + s*ss] = cand[v*cv + s*cs] and sets bit s of front[v] when
 * the cell changed: the new value is not NaN and, when tol > 0 does not
 * hold, differs from the old (an old NaN counts); when it holds,
 * |new - old| > tol, or the old value is infinite and the new finite.
 * Every other bit of front[v] is cleared. Returns the OR of the front
 * words: the snapshots still running. */
uint64_t settle(double *values, idx_t vs, idx_t ss, const double *cand,
                idx_t cv, idx_t cs, const uint64_t *exists,
                uint64_t running, uint64_t *front, double tol, idx_t nvert)
{
    const int exact = !(tol > 0);
    uint64_t any = 0;
    for (idx_t v = 0; v < nvert; ++v) {
        double *const row = values + v * vs;
        const double *const in = cand + v * cv;
        uint64_t b = exists[v] & running, moved = 0;
        while (b) {
            const idx_t s = __builtin_ctzll(b);
            const double old = row[s * ss], new = in[s * cs];
            row[s * ss] = new;
            if (!isnan(new) && (exact ? new != old
                                      : fabs(new - old) > tol ||
                                            (isinf(old) && !isinf(new))))
                moved |= (uint64_t)1 << s;
            b &= b - 1;
        }
        front[v] = moved;
        any |= moved;
    }
    return any;
}

/* A snapshot series' per-snapshot out-degrees:
 *
 *   out_degrees(bitmap, src, nedge, nsnap, deg)
 *
 * For each edge e and each set bit s < nsnap of bitmap[e], adds 1 to
 * deg[src[e]*nsnap + s]; deg is the zeroed (V, nsnap) matrix, row-major.
 * The caller checks 1 <= nsnap <= 64 and 0 <= src[e] < V first. */
void out_degrees(const uint64_t *bitmap, const int64_t *src, idx_t nedge,
                 idx_t nsnap, int64_t *deg)
{
    const uint64_t full =
        nsnap >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << nsnap) - 1);
    for (idx_t e = 0; e < nedge; ++e) {
        int64_t *const row = deg + src[e] * nsnap;
        uint64_t b = bitmap[e] & full;
        while (b) {
            ++row[__builtin_ctzll(b)];
            b &= b - 1;
        }
    }
}

/* The stable order of n key pairs, by major key, then minor key:
 *
 *   pair_order(major, minor, n, count, nkeys, tmp, out)
 *
 * Writes to out the permutation that sorts the pairs, equal pairs in input
 * order: np.lexsort((minor, major)). Pairs already in order are one linear
 * check and the identity. Otherwise two stable counting passes, least
 * significant key first: by minor into tmp (skipped when the minor keys
 * are already in order), then by major into out.
 * count holds nkeys + 1 cells of scratch; the caller checks every key lies
 * in [0, nkeys) and sizes tmp and out at n first. */
void pair_order(const int64_t *major, const int64_t *minor, idx_t n,
                int64_t *count, idx_t nkeys, int64_t *tmp, int64_t *out)
{
    idx_t e = 1;
    while (e < n && (major[e - 1] < major[e] ||
                     (major[e - 1] == major[e] && minor[e - 1] <= minor[e])))
        ++e;
    if (e >= n) {
        for (e = 0; e < n; ++e)
            out[e] = e;
        return;
    }
    /* Minor keys already in order make their pass the identity. */
    idx_t m = 1;
    while (m < n && minor[m - 1] <= minor[m])
        ++m;
    const int64_t *const key[2] = {minor, major};
    const int64_t *from = NULL;
    int64_t *const to[2] = {tmp, out};
    for (int pass = m >= n; pass < 2; ++pass) {
        const int64_t *const k = key[pass];
        memset(count, 0, (size_t)(nkeys + 1) * sizeof *count);
        for (e = 0; e < n; ++e)
            ++count[k[e] + 1];
        for (idx_t c = 1; c < nkeys; ++c)
            count[c] += count[c - 1];
        for (e = 0; e < n; ++e) {
            const int64_t row = from ? from[e] : e;
            to[pass][count[k[row]]++] = row;
        }
        from = to[pass];
    }
}
