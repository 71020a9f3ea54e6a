"""Independent reference implementations that pin expected test values.

Everything in this module is deliberately written the slow, obvious way —
dense arrays, per-element loops, exact rational arithmetic — so that the
vectorized production code has a second, unrelated path to agree with.
Nothing here imports from swldpc.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np


def gf2_syndrome(dense_h: np.ndarray, codeword: np.ndarray) -> np.ndarray:
    """H @ c mod 2 by plain dense matrix multiply."""
    h = np.asarray(dense_h, dtype=np.int64)
    c = np.asarray(codeword, dtype=np.int64)
    return (h @ c) & 1


def gf2_solve_unit_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L z = rhs over GF(2) by forward substitution.

    lower is an (m, m) 0/1 matrix with unit diagonal and no entries above
    the diagonal. rhs may be a single vector of length m or a batch of
    shape (frames, m); the result matches the rhs shape. Float64 dot
    products are exact here because every accumulated sum is far below
    2**53.
    """
    lw = np.asarray(lower, dtype=np.float64)
    m = lw.shape[0]
    if lw.shape != (m, m):
        raise ValueError("lower must be square")
    if not np.all(np.diag(lw) == 1):
        raise ValueError("lower must have a unit diagonal")
    if np.any(np.triu(lw, 1) != 0):
        raise ValueError("lower must have no entries above the diagonal")
    r = np.asarray(rhs, dtype=np.float64)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    z = np.zeros_like(r)
    for i in range(m):
        acc = r[:, i] + z[:, :i] @ lw[i, :i]
        z[:, i] = np.mod(acc, 2.0)
    out = z.astype(np.uint8)
    return out[0] if single else out


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination on a dense 0/1 matrix."""
    a = (np.asarray(mat, dtype=np.uint8) & 1).copy()
    n_rows = a.shape[0]
    r = 0
    for c in range(a.shape[1]):
        pivots = np.flatnonzero(a[r:, c])
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        below = np.flatnonzero(a[:, c])
        below = below[below != r]
        a[below] ^= a[r]
        r += 1
        if r == n_rows:
            break
    return r


def four_cycle_free_ref(dense_h: np.ndarray, k: int) -> bool:
    """True when no two of the first k columns share two rows: every
    off-diagonal entry of the dense Gram matrix Hx^T Hx is at most 1.
    float32 products are exact: every entry is a count of at most m rows,
    far below 2**24."""
    hx = np.asarray(dense_h, dtype=np.float32)[:, :k]
    gram = hx.T @ hx
    np.fill_diagonal(gram, 0)
    return bool((gram <= 1).all())


def quantize_ref(l: float, q: int = 3, s_max: int = 10000) -> int:
    """floor(2^q * l + 1/2) clipped to [-s_max, s_max], in exact arithmetic.

    Fraction(l) converts the binary float exactly, so the floor is taken on
    the true rational value with no intermediate rounding at all.
    """
    v = Fraction(l) * (2**q) + Fraction(1, 2)
    val = v.numerator // v.denominator  # floor for negative values too
    return max(-s_max, min(s_max, int(val)))


def correction_table_ref(q: int = 3) -> list:
    """Entries floor(2^q * ln(1 + e^(-u / 2^q)) + 1/2) for u = 0, 1, ...

    Stops after the first zero entry, like the production table generator.
    """
    scale = 2**q
    out = []
    u = 0
    while True:
        t = math.floor(scale * math.log(1.0 + math.exp(-u / scale)) + 0.5)
        if t <= 0:
            break
        out.append(t)
        u += 1
    return out


def entropy_ref(p: float) -> float:
    """Binary entropy in bits via math.log, term by term."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / math.log(2.0)


def alpha_ref(w: int, k: int) -> float:
    """Log-odds ln(w / (k - w)) for a disagreement count w."""
    return math.log(w) - math.log(k - w)


def boxplus_ref(a: float, b: float) -> float:
    """Exact two-input check-node rule ln((1 + e^(a+b)) / (e^a + e^b))."""
    return (
        math.copysign(1.0, a)
        * math.copysign(1.0, b)
        * min(abs(a), abs(b))
        + math.log1p(math.exp(-abs(a + b)))
        - math.log1p(math.exp(-abs(a - b)))
    )


def bp_ref(rows, llr, s_max, table, max_iters, c2v=None):
    """Flooding BP on plain lists, one check at a time, with no padding.

    rows lists each check's column indices; llr holds the stored channel
    values (positive favors bit 1). table holds the correction entries of
    correction_table_ref; indices past its end read 0.
    Each check sends, on edge t, the clipped box-plus of the forward
    reduction of its messages before t with the backward reduction of those
    after t (the grouping the decoder uses); a check of one edge sends
    +s_max. c2v is an optional warm start, one message per edge in row
    order. Returns (bits, rounds, syndrome_ok, posterior, c2v).
    """

    def clip(v):
        return max(-s_max, min(s_max, v))

    def sign(v):
        return (v > 0) - (v < 0)

    def corr(u):
        return table[u] if u < len(table) else 0

    def box(a, b):
        return sign(a) * sign(b) * min(abs(a), abs(b)) + corr(abs(a + b)) - corr(abs(a - b))

    edges = [(i, int(j)) for i, row in enumerate(rows) for j in row]
    msg = [0] * len(edges) if c2v is None else [int(c) for c in c2v]

    def variable_pass():
        tot = [-int(v) for v in llr]  # internal sign: positive favors bit 0
        for (_, j), c in zip(edges, msg):
            tot[j] += c
        v2c = [clip(tot[j] - c) for (_, j), c in zip(edges, msg)]
        bits = [int(t < 0) for t in tot]
        ok = all(sum(bits[int(j)] for j in row) % 2 == 0 for row in rows)
        return tot, v2c, bits, ok

    def check_pass(v2c):
        out, e = [], 0
        for row in rows:
            incoming = v2c[e : e + len(row)]
            e += len(row)
            for t in range(len(row)):
                before, after = incoming[:t], incoming[t + 1 :]
                parts = []
                if before:
                    parts.append(functools.reduce(box, before))
                if after:
                    parts.append(functools.reduce(box, reversed(after)))
                if len(parts) == 2:
                    out.append(clip(box(*parts)))
                else:
                    out.append(clip(parts[0]) if parts else s_max)
        return out

    tot, v2c, bits, ok = variable_pass()
    rounds = 0
    while not ok and rounds < max_iters:
        msg = check_pass(v2c)
        tot, v2c, bits, ok = variable_pass()
        rounds += 1
    return bits, rounds, ok, [clip(-t) for t in tot], msg


_ALIST_HEADER = "# staircase-ldpc"


def _staircase_ref(i: int, k: int) -> list:
    return [k] if i == 0 else [k + i - 1, k + i]


def validate_ref(n_rows: int, n_cols: int, k: int, rows: list) -> None:
    """The SparseParityMatrix constructor's row check, codes._first_bad_row,
    as a plain loop over the rows.

    rows holds one int32 array per row. Raises ValueError with the message
    the production check gives for the first bad row; within a row the
    range test reads only the first and last entries, then come the strict
    order and the staircase columns.
    """
    if n_rows != n_cols - k:
        raise ValueError(f"n_rows={n_rows} must equal n_cols-k={n_cols - k}")
    if len(rows) != n_rows:
        raise ValueError(f"got {len(rows)} row lists for n_rows={n_rows}")
    for i, r in enumerate(rows):
        if r.size and (r[0] < 0 or r[-1] >= n_cols):
            raise ValueError(f"row {i}: column index out of range [0, {n_cols})")
        if np.any(np.diff(r.astype(np.int64)) <= 0):  # exact, not wrapped in int32
            raise ValueError(f"row {i}: column indices must be strictly increasing")
        par = r[r >= k].tolist()
        want = _staircase_ref(i, k)
        if par != want:
            raise ValueError(f"row {i}: staircase columns are {par}, expected {want}")


def load_alist_ref(text: str):
    """The extended alist parser as a line-by-line loop over Python ints.

    Returns (n_rows, n_cols, k, rows, design_p) with rows as lists of
    0-based column indices. Raises ValueError carrying the message, 1-based
    line number included, that load_alist gives for the first bad line;
    every check of a line runs before the next line is read.
    """
    lines = text.splitlines()

    def fail(lineno, what):
        raise ValueError(f"line {lineno}: {what}")

    def need(i):
        if i >= len(lines):
            fail(i + 1, "unexpected end of file")
        return lines[i]

    def ints(i):
        line = need(i)
        try:
            return [int(tok) for tok in line.split()]
        except ValueError:
            fail(i + 1, f"expected integers, got {line!r}")

    head = need(0)
    if not head.startswith(_ALIST_HEADER):
        fail(1, f"missing {_ALIST_HEADER!r} header comment")
    fields = dict(tok.split("=", 1) for tok in head[len(_ALIST_HEADER) :].split() if "=" in tok)
    try:
        k = int(fields["k"])
    except (KeyError, ValueError):
        fail(1, "header must carry k=<int>")
    dp_tok = fields.get("design_p", "none")
    design_p = None
    if dp_tok != "none":
        try:
            design_p = float(dp_tok)
        except ValueError:
            design_p = math.nan
        if not 0.0 < design_p < 0.5:
            fail(1, f"design_p must be 'none' or lie in (0, 0.5), got {dp_tok!r}")

    dims = ints(1)
    if len(dims) != 2:
        fail(2, "expected 'n_cols n_rows'")
    n_cols, n_rows = dims
    if not 0 < k < n_cols or n_rows != n_cols - k:
        fail(2, f"dimensions ({n_cols}, {n_rows}) inconsistent with k={k}")
    maxdeg = ints(2)
    if len(maxdeg) != 2:
        fail(3, "expected 'max_col_degree max_row_degree'")
    max_col, max_row = maxdeg

    def degrees(i, count, max_deg, kind):
        degs = ints(i)
        if len(degs) != count:
            fail(i + 1, f"expected {count} {kind} degrees, got {len(degs)}")
        for j, d in enumerate(degs):
            if not 0 <= d <= max_deg:
                fail(i + 1, f"degree {d} of {kind} {j + 1} outside 0..{max_deg}")
        return degs

    col_deg = degrees(3, n_cols, max_col, "column")
    row_deg = degrees(4, n_rows, max_row, "row")

    def block(start, count, degs, limit, max_deg, kind):
        out = []
        for j in range(count):
            lineno = start + j + 1
            vals = ints(start + j)
            if len(vals) != max_deg:
                fail(lineno, f"expected {max_deg} entries (zero-padded), got {len(vals)}")
            body, pad = vals[: degs[j]], vals[degs[j] :]
            if any(p != 0 for p in pad):
                fail(lineno, "nonzero entry in zero padding")
            if any(not 1 <= x <= limit for x in body):
                fail(lineno, f"{kind} index out of range 1..{limit}")
            if any(b >= a for a, b in zip(body[1:], body)):
                fail(lineno, "indices must be strictly increasing")
            out.append([x - 1 for x in body])
        return out

    cols = block(5, n_cols, col_deg, n_rows, max_col, "row")
    rows = block(5 + n_cols, n_rows, row_deg, n_cols, max_row, "column")
    end = 5 + n_cols + n_rows
    if any(line.strip() for line in lines[end:]):
        fail(end + 1, "trailing content")

    rebuilt = [[] for _ in range(n_cols)]
    for i, r in enumerate(rows):
        for c in r:
            rebuilt[c].append(i)
    for c in range(n_cols):
        if rebuilt[c] != cols[c]:
            fail(6 + c, f"column list disagrees with the row lists for column {c + 1}")

    for i, r in enumerate(rows):
        par = [c for c in r if c >= k]
        want = _staircase_ref(i, k)
        if par != want:
            fail(6 + n_cols + i, f"row {i} staircase columns are {par}, expected {want}")
    return n_rows, n_cols, k, rows, design_p
