/* Compiled kernels: the whole belief-propagation loop of bp.bp_decode and
 * the whole edge-placement loop of codes.build_code.
 *
 * swldpc._native compiles this file with the system C compiler and calls it
 * through ctypes, which releases the interpreter lock for the length of each
 * call. Nothing here keeps static state: every buffer is passed in by the
 * caller, so several threads may run the kernels at once. Both functions
 * reproduce the numpy code bit for bit; that code is the fallback when no
 * compiler works and the oracle the tests hold this file to.
 */
#include <stdint.h>

static inline int64_t iabs(int64_t v) { return v < 0 ? -v : v; }

static inline int32_t clip(int64_t v, int32_t s_max)
{
    return (int32_t)(v > s_max ? s_max : (v < -s_max ? -s_max : v));
}

/* Two-input check rule: min-sum when table is NULL, otherwise min-sum plus
 * table[|a+b|] - table[|a-b|], the indices capped at tmax (table[tmax] = 0). */
static inline int32_t box(int32_t a, int32_t b, const int32_t *table, int32_t tmax)
{
    int64_t mag = iabs(a) < iabs(b) ? iabs(a) : iabs(b);
    int32_t out = (int32_t)(((a > 0) - (a < 0)) * ((b > 0) - (b < 0)) * mag);
    if (table) {
        int64_t u = iabs((int64_t)a + b), w = iabs((int64_t)a - b);
        out += table[u < tmax ? u : tmax] - table[w < tmax ? w : tmax];
    }
    return out;
}

/* Bit-node update in the internal sign (positive favors 0): tot[j] is the
 * channel value plus every message into column j, v2c[e] that total less the
 * edge's own message, clipped. bits[j] = tot[j] < 0. Returns 1 when the hard
 * decisions satisfy every check. */
static int32_t variable_pass(int32_t m, int32_t n, const int32_t *row_ptr, const int32_t *col,
                             const int32_t *llr, int32_t s_max, const int32_t *c2v,
                             int32_t *v2c, int64_t *tot, uint8_t *bits)
{
    int32_t ok = 1;
    for (int32_t j = 0; j < n; j++)
        tot[j] = -(int64_t)llr[j];
    for (int32_t e = 0; e < row_ptr[m]; e++)
        tot[col[e]] += c2v[e];
    for (int32_t j = 0; j < n; j++)
        bits[j] = tot[j] < 0;
    for (int32_t i = 0; i < m; i++) {
        uint8_t parity = 0;
        for (int32_t e = row_ptr[i]; e < row_ptr[i + 1]; e++) {
            v2c[e] = clip(tot[col[e]] - c2v[e], s_max);
            parity ^= bits[col[e]];
        }
        ok &= !parity;
    }
    return ok;
}

/* Check-node update over each row's real edges: fw[t] reduces the row's
 * messages before t, bw those after t. A row of one edge sends the empty
 * reduction, +infinity, clipped to s_max. */
static void check_pass(int32_t m, const int32_t *row_ptr, int32_t s_max, const int32_t *table,
                       int32_t tmax, const int32_t *v2c, int32_t *c2v, int32_t *fw)
{
    for (int32_t i = 0; i < m; i++) {
        const int32_t *in = v2c + row_ptr[i];
        int32_t *out = c2v + row_ptr[i];
        int32_t d = row_ptr[i + 1] - row_ptr[i];
        if (d < 2) {
            if (d == 1)
                out[0] = s_max;
            continue;
        }
        fw[1] = in[0];
        for (int32_t t = 2; t < d; t++)
            fw[t] = box(fw[t - 1], in[t - 1], table, tmax);
        int32_t bw = in[d - 1];
        out[d - 1] = clip(fw[d - 1], s_max);
        for (int32_t t = d - 2; t > 0; t--) {
            out[t] = clip(box(fw[t], bw, table, tmax), s_max);
            bw = box(bw, in[t], table, tmax);
        }
        out[0] = clip(bw, s_max);
    }
}

/* Flooding BP on the row-major edge list (row_ptr, col) of an m x n matrix.
 * llr holds the stored channel values (positive favors 1); c2v holds the
 * starting check-to-variable messages (zeros for a cold start) and is
 * overwritten with the last round's. table is NULL for min-sum. Scratch:
 * v2c (one per edge), fw (the largest row degree), tot (n). Outputs the hard
 * decisions, the clipped posterior (stored sign) and *ok; returns the number
 * of rounds run. */
int32_t bp_run(int32_t m, int32_t n, const int32_t *row_ptr, const int32_t *col,
               const int32_t *llr, int32_t s_max, const int32_t *table, int32_t tmax,
               int32_t max_iters, int32_t *c2v, int32_t *v2c, int32_t *fw, int64_t *tot,
               uint8_t *bits, int32_t *posterior, int32_t *ok)
{
    int32_t iters = 0;
    *ok = variable_pass(m, n, row_ptr, col, llr, s_max, c2v, v2c, tot, bits);
    while (!*ok && iters < max_iters) {
        check_pass(m, row_ptr, s_max, table, tmax, v2c, c2v, fw);
        *ok = variable_pass(m, n, row_ptr, col, llr, s_max, c2v, v2c, tot, bits);
        iters++;
    }
    for (int32_t j = 0; j < n; j++)
        posterior[j] = clip(-tot[j], s_max);
    return iters;
}

/* Progressive edge growth over k columns and m checks. Column v gets the
 * edges var_ptr[v] .. var_ptr[v+1]-1, placed in that order; edge e joins
 * column edge_var[e] to check edge_chk[e]. A column's first edge goes to the
 * lightest check. Each later one goes to a check the breadth-first search
 * from the column does not reach within max_levels check levels, or, when
 * the search reaches every check, to one found at its last level; ties go to
 * the lightest check, then the lowest index. Checks list their edges through
 * chk_head and next. A node belongs to the current search when its seen_*
 * entry equals the search's stamp. front (m) holds the checks reached, level
 * after level; vars (k) the columns of one level. The caller zeroes chk_deg,
 * seen_c and seen_v. Returns 0, or -1 when an edge has no admissible check. */
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
                    for (int32_t x = chk_head[front[f]]; x >= 0; x = next[x])
                        if (seen_v[edge_var[x]] != stamp) {
                            seen_v[edge_var[x]] = stamp;
                            vars[nv++] = edge_var[x];
                        }
                for (int32_t a = 0; a < nv; a++)
                    for (int32_t x = var_ptr[vars[a]]; x < var_ptr[vars[a] + 1]; x++)
                        if (seen_c[edge_chk[x]] != stamp) {
                            seen_c[edge_chk[x]] = stamp;
                            front[nc++] = edge_chk[x];
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
                for (int32_t c = 0; c < m; c++)
                    if (seen_c[c] != stamp && (best < 0 || chk_deg[c] < chk_deg[best]))
                        best = c;
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
