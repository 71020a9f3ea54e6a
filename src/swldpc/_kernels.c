/* Compiled kernels: one pass of the joint decoder (bp.side_info_pass, the
 * one entry to belief propagation), systematic encoding, and the whole
 * edge-placement loop of codes.build_code. The library exports these three
 * functions and nothing else.
 *
 * swldpc._native compiles this file with the system C compiler and calls it
 * through ctypes, which releases the interpreter lock for the length of each
 * call. A joint-decoder pass is one call: it builds the channel values from
 * y, z and two quantized levels, runs the BP loop, and compares the hard
 * decisions with z and y, so that the Python between passes is small and
 * several decoding threads overlap. bp_run is the one BP loop, a static
 * function that only side_info_pass calls; it updates the check-to-variable
 * messages in place, in the padded layout below, the only form messages
 * take. Iteration caps reach here checked by bp._check_iters, so they fit
 * an int32_t. Nothing here keeps static state: every buffer is passed in by
 * the caller, so several threads may run the kernels at once. Every
 * function reproduces the numpy code bit for bit; that code is the fallback
 * when no compiler works and the oracle the tests hold this file to. The
 * file compiles without warnings under -Wall -Wextra -Wconversion
 * -Wsign-conversion.
 *
 * The check pass's one rule is the signed minimum of two messages plus
 * the correction table[min(|a + b|, tmax)] less table[min(|a - b|, tmax)],
 * found without looking the table up: a non-increasing step table's entry
 * at u is the number of its thresholds T_j = min{u : table[u] < j} above
 * u. The decoder's one table, bp._TABLE at q = 3, has table[0] = 6 such
 * steps, so a fixed count of them keeps the row loop vectorised.
 */
#include <stddef.h>
#include <stdint.h>

/* On x86-64 with glibc, bp_run is built twice, for AVX2 and for the
 * baseline instruction set, and the loader picks the one the CPU runs (an
 * ifunc). Every pass and row loop under it is always inlined into each
 * build: a helper that GCC outlines is built once, for the baseline, and
 * serves both. The compile flags so stay portable; all arithmetic is
 * integer, so both builds give the same bits. Elsewhere, or with a compiler
 * that does not know the attribute, there is one baseline build. */
#if defined(__x86_64__) && defined(__GLIBC__)
#define VECTOR_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* The belief-propagation loop works on the code's padded edge layout, the
 * one form codes.SparseParityMatrix stores H in: an int32 array of d x m
 * entries, entry t * m + i for the t-th edge of row i. cols holds each
 * entry's column; a row's real edges come first, in increasing column order,
 * and its pads sit on the sentinel column n, which fits an int32_t. Messages
 * use the same layout, so every step of a row scan is one loop over all m
 * rows, whose iterations are independent and which the compiler can
 * vectorise. All arithmetic stays in int32, the column totals included. The
 * grid is fixed at s_max = 10000 with table[0] = 6 and tmax = 22, so
 * bp._pad's pad is 10023 + 6 d_max; a scan value never exceeds the pad
 * in magnitude, and the pad stays below 2**30, so that |a +- b| of any two
 * values fits, for every row of fewer than 178 million edges. A column's
 * total adds its channel value to one message per edge, each at most s_max
 * in magnitude, so it is exact while (degree + 1) s_max <= 2**31 - 1: for
 * columns of up to 214,747 edges, the most SparseParityMatrix accepts. The
 * sums are unsigned, so the sentinel's total, one message per pad, reset
 * before it is read, wraps without undefined behaviour for any pad count. */

static inline int32_t clip(int32_t v, int32_t s_max)
{
    v = v > s_max ? s_max : v;
    return v < -s_max ? -s_max : v;
}

static inline int32_t iabs32(int32_t v) { return v < 0 ? -v : v; }

/* The signed minimum sign(a) sign(b) min(|a|, |b|): the sign of a ^ b is
 * that product's whenever the minimum is not 0. Branch-free, like everything
 * the row loops call, since message signs are not predictable. */
static inline int32_t box_min(int32_t a, int32_t b)
{
    int32_t mag = iabs32(a) < iabs32(b) ? iabs32(a) : iabs32(b);
    int32_t neg = -((a ^ b) < 0);
    return (mag ^ neg) - neg;
}

/* table[min(u, tmax)] counts the j in 1..table[0] with u < T_j, where
 * T_j = min{u : table[u] < j}; at q = 3, T = 22, 13, 9, 5, 3, 1. A row loop
 * that looks the table up loads one entry per lane, which GCC's generic
 * tuning does as scalar code; a fixed NTHR compares in place of the load
 * keep it vectorised, where a count that varies at run time is slower than
 * the lookup. NTHR is the decoder's table[0], so that no compare is spent
 * on a threshold that counts for nothing. thresholds() writes T_1 ..
 * T_table[0] to thr and zeros after them, which count for no u >= 0. The
 * table must have table[0] <= NTHR, as the decoder's has. */
#define NTHR 6

static inline void thresholds(const int32_t *table, int32_t *thr)
{
    for (int32_t j = 1; j <= NTHR; j++) {
        int32_t u = 0;
        if (j <= table[0])
            while (table[u] >= j)
                u++;
        thr[j - 1] = u;
    }
}

/* out[i] = box(a[i], b[i]) for i < m, clipped to s_max when clip_out: the
 * signed minimum plus corr(|a+b|) - corr(|a-b|), with corr(u) the count of
 * the thresholds thr above u. The count runs over all NTHR entries; its
 * zero pads add nothing, and no threshold exceeds tmax, so no cap. */
static inline __attribute__((always_inline)) void
box_rows(int32_t m, const int32_t *a, const int32_t *b, int32_t *out, const int32_t *thr,
         int32_t s_max, int clip_out)
{
    /* out may be a; each iteration reads a[i] and b[i] before it writes
     * out[i], so the iterations are independent, which GCC cannot prove */
#pragma GCC ivdep
    for (int32_t i = 0; i < m; i++) {
        int32_t u = iabs32(a[i] + b[i]), w = iabs32(a[i] - b[i]);
        int32_t v = box_min(a[i], b[i]);
        for (int32_t j = 0; j < NTHR; j++)
            v += (u < thr[j]) - (w < thr[j]);
        out[i] = clip_out ? clip(v, s_max) : v;
    }
}

/* Bit-node update in the internal sign (positive favors 0): tot[j] is the
 * channel value plus every message into column j, and v2c that total less
 * the entry's own message, clipped, or pad on a pad. The sentinel's total
 * starts at 0 and is reset to 0 after the sums, since it collects the pads'
 * messages. A bit is 1 when its total is negative. acc (m) is scratch.
 * Returns 1 when the bits satisfy every check. */
static inline __attribute__((always_inline)) int32_t
variable_pass(int32_t m, int32_t n, int32_t d, const int32_t *cols, const int32_t *llr,
              int32_t s_max, int32_t pad, const int32_t *c2v, int32_t *v2c, int32_t *tot,
              int32_t *acc)
{
    int64_t entries = (int64_t)d * m;
    for (int32_t j = 0; j < n; j++)
        tot[j] = -llr[j];
    tot[n] = 0;
    for (int64_t e = 0; e < entries; e++)
        tot[cols[e]] = (int32_t)((uint32_t)tot[cols[e]] + (uint32_t)c2v[e]);
    tot[n] = 0;
    for (int32_t i = 0; i < m; i++)
        acc[i] = 0;
    for (int32_t t = 0; t < d; t++) {
        const int32_t *col = cols + (int64_t)t * m;
        const int32_t *in = c2v + (int64_t)t * m;
        int32_t *out = v2c + (int64_t)t * m;
        /* the gather from tot, which GCC's generic tuning leaves scalar,
         * has a loop of its own, so that the loop after it vectorises */
        for (int32_t i = 0; i < m; i++)
            out[i] = tot[col[i]];
        for (int32_t i = 0; i < m; i++) {
            int32_t v = out[i];
            out[i] = col[i] < n ? clip(v - in[i], s_max) : pad;
            acc[i] ^= v < 0;
        }
    }
    int32_t odd = 0;
    for (int32_t i = 0; i < m; i++)
        odd |= acc[i];
    return !odd;
}

/* Check-node update of numpy's exclusive scans: left[t] reduces a row's
 * entries before t, right[t] those after t, both starting from pad, and the
 * message is box(left[t], right[t]), clipped. left is built in c2v; acc (m)
 * carries right from t = d - 1 down to 0. */
static inline __attribute__((always_inline)) void
check_pass(int32_t m, int32_t d, int32_t s_max, int32_t pad, const int32_t *thr,
           const int32_t *v2c, int32_t *c2v, int32_t *acc)
{
    for (int32_t i = 0; i < m; i++)
        c2v[i] = acc[i] = pad;
    for (int32_t t = 1; t < d; t++)
        box_rows(m, c2v + (int64_t)(t - 1) * m, v2c + (int64_t)(t - 1) * m,
                 c2v + (int64_t)t * m, thr, s_max, 0);
    for (int32_t t = d - 1; t >= 0; t--) {
        int32_t *row = c2v + (int64_t)t * m;
        box_rows(m, row, acc, row, thr, s_max, 1);
        if (t > 0)
            box_rows(m, acc, v2c + (int64_t)t * m, acc, thr, s_max, 0);
    }
}

/* Flooding BP for side_info_pass, its one caller, on the padded layout
 * (d, m, cols) of an m x n matrix. llr holds the stored channel values
 * (positive favors 1). c2v (d m) holds the starting check-to-variable
 * messages in the padded layout and receives the last round's; the values
 * on pads are never read, since their sums land on the sentinel, whose
 * total is reset. pad is the box-plus identity on pads; table is the
 * correction table with its trailing zero; max_iters is at least 0. Every
 * column holds at most 214,747 edges, as the layout comment above says.
 * work is scratch of n + 1 + d m + m int32 values. Outputs the n hard
 * decisions, the clipped posterior (stored sign) and *ok; returns the
 * number of rounds run. */
VECTOR_CLONES
static int32_t bp_run(int32_t m, int32_t n, int32_t d, const int32_t *cols,
                      const int32_t *llr, int32_t s_max, int32_t pad, const int32_t *table,
                      int32_t max_iters, int32_t *c2v, int32_t *work, uint8_t *bits,
                      int32_t *posterior, int32_t *ok)
{
    int32_t *tot = work, *v2c = work + n + 1, *acc = v2c + (int64_t)d * m;
    int32_t thr[NTHR], iters = 0;
    thresholds(table, thr);
    *ok = variable_pass(m, n, d, cols, llr, s_max, pad, c2v, v2c, tot, acc);
    while (!*ok && iters < max_iters) {
        check_pass(m, d, s_max, pad, thr, v2c, c2v, acc);
        *ok = variable_pass(m, n, d, cols, llr, s_max, pad, c2v, v2c, tot, acc);
        iters++;
    }
    for (int32_t j = 0; j < n; j++) {
        bits[j] = tot[j] < 0;
        posterior[j] = clip(-tot[j], s_max);
    }
    return iters;
}

/* One pass of the side-information decoder on a code with k systematic
 * columns: the channel values are level1 where y is 1 and level0 where it is
 * 0, and +-s_max on the parity bits as z says; then bp_run runs, warm from
 * the padded messages in c2v (all zero for a cold start), which it updates.
 * work is scratch of n + 1 + d m + m + n int32 values. Writes the hard
 * decisions and posterior to bits and posterior, and to stats the syndrome
 * flag, whether the parity bits equal z, and the number of systematic bits
 * that differ from y; returns the rounds run. */
int32_t side_info_pass(int32_t m, int32_t n, int32_t k, int32_t d, const int32_t *cols,
                       const uint8_t *y, const uint8_t *z, int32_t s_max, int32_t pad,
                       const int32_t *table, int32_t *c2v, int32_t *work, uint8_t *bits,
                       int32_t *posterior, int32_t *stats, int32_t level1, int32_t level0,
                       int32_t max_iters)
{
    int32_t *llr = work + n + 1 + (int64_t)d * m + m;
    for (int32_t j = 0; j < k; j++)
        llr[j] = y[j] ? level1 : level0;
    for (int32_t j = k; j < n; j++)
        llr[j] = z[j - k] ? s_max : -s_max;
    int32_t iters = bp_run(m, n, d, cols, llr, s_max, pad, table, max_iters, c2v, work, bits,
                           posterior, &stats[0]);
    int32_t same = 1, differ = 0;
    for (int32_t j = k; j < n; j++)
        same &= bits[j] == z[j - k];
    for (int32_t j = 0; j < k; j++)
        differ += bits[j] != y[j];
    stats[1] = same;
    stats[2] = differ;
    return iters;
}

/* Systematic encoding over the padded layout: z[i] is the parity of row i's
 * entries in the first k columns, the source bits x; the parity columns and
 * the sentinel read 0. Then z becomes its own prefix XOR. */
void encode_run(int32_t m, int32_t k, int32_t d, const int32_t *cols, const uint8_t *x,
                uint8_t *z)
{
    for (int32_t i = 0; i < m; i++)
        z[i] = 0;
    for (int32_t t = 0; t < d; t++) {
        const int32_t *col = cols + (int64_t)t * m;
        for (int32_t i = 0; i < m; i++)
            z[i] ^= col[i] < k ? x[col[i]] : 0;
    }
    for (int32_t i = 1; i < m; i++)
        z[i] ^= z[i - 1];
}

/* Progressive edge growth over k columns and m checks. Column v gets the
 * edges var_ptr[v] .. var_ptr[v+1]-1, placed in that order; edge e joins
 * column edge_var[e] to check edge_chk[e]. A column's first edge goes to the
 * lightest check. Each later one goes to a check the breadth-first search
 * from the column does not reach within max_levels check levels, or, when
 * the search reaches every check, to one found at its last level; ties go to
 * the lightest check, then the lowest index. Checks list their edges through
 * chk_head and next. A node belongs to the current search when its seen_*
 * entry equals the search's stamp. front holds the checks reached, level
 * after level; vars the columns of one level. The caller zeroes chk_deg,
 * seen_c and seen_v. Returns 0, or -1 when an edge has no admissible check.
 *
 * Whether a node is new follows no pattern a branch predictor learns, so
 * both half-levels of a search append without a branch: each node is stored
 * at its list's end, and the end advances only when the node is new. Once a
 * search has reached every check, its next store lands on front[m], so front
 * holds m + 1 entries; vars holds k, since a level holds at most the k - 1
 * other columns. The lightest unseen check is found in two passes for the
 * same reason: the least degree over unseen checks, without a branch, then
 * the first unseen check of that degree, a scan whose one branch is taken
 * once. That check is the (degree, index) minimum, the one a single scan
 * finds that replaces its pick only on a strictly lower degree. */
int32_t peg_place(int32_t k, int32_t m, int32_t max_levels, const int32_t *var_ptr,
                  const int32_t *edge_var, int32_t *edge_chk, int32_t *chk_deg,
                  int32_t *chk_head, int32_t *next, int32_t *seen_c, int32_t *seen_v,
                  int32_t *front, int32_t *vars)
{
    int32_t stamp = 0;
    for (int32_t c = 0; c < m; c++)
        chk_head[c] = -1;
    for (int32_t v = 0; v < k; v++) {
        for (int32_t e = var_ptr[v]; e < var_ptr[v + 1]; e++) {
            int32_t placed = e - var_ptr[v], lo = 0, hi = placed, last_level = 0, best = -1;
            stamp++;
            seen_v[v] = stamp;
            for (int32_t j = 0; j < placed; j++) {
                front[j] = edge_chk[var_ptr[v] + j];
                seen_c[front[j]] = stamp;
            }
            for (int32_t level = 0; placed && level < max_levels; level++) {
                int32_t nv = 0, nc = hi;
                for (int32_t f = lo; f < hi; f++)
                    for (int32_t x = chk_head[front[f]]; x >= 0; x = next[x]) {
                        int32_t u = edge_var[x];
                        vars[nv] = u;
                        nv += seen_v[u] != stamp;
                        seen_v[u] = stamp;
                    }
                for (int32_t a = 0; a < nv; a++)
                    for (int32_t x = var_ptr[vars[a]]; x < var_ptr[vars[a] + 1]; x++) {
                        int32_t c = edge_chk[x];
                        front[nc] = c;
                        nc += seen_c[c] != stamp;
                        seen_c[c] = stamp;
                    }
                if (nc == hi)
                    break;
                lo = hi;
                hi = nc;
                if (hi == m) {  /* every check reached: the deepest are this level's */
                    last_level = 1;
                    break;
                }
            }
            if (last_level) {
                for (int32_t f = lo; f < hi; f++)
                    if (best < 0 || chk_deg[front[f]] < chk_deg[best] ||
                        (chk_deg[front[f]] == chk_deg[best] && front[f] < best))
                        best = front[f];
            } else {
                int32_t least = INT32_MAX;
                for (int32_t c = 0; c < m; c++) {
                    int32_t deg = seen_c[c] != stamp ? chk_deg[c] : INT32_MAX;
                    least = deg < least ? deg : least;
                }
                for (int32_t c = 0; least < INT32_MAX; c++)
                    if ((seen_c[c] != stamp) & (chk_deg[c] == least)) {
                        best = c;
                        break;
                    }
            }
            if (best < 0)
                return -1;
            edge_chk[e] = best;
            next[e] = chk_head[best];
            chk_head[best] = e;
            chk_deg[best]++;
        }
    }
    return 0;
}
