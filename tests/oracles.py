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
    correction_table_ref (None for min-sum); indices past its end read 0.
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
        return table[u] if table is not None and u < len(table) else 0

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
