"""Staircase LDPC parity-check matrices: construction, registry, alist files.

A code over n = k + m bits is defined by H = (Hx | Hz) with m rows. Hx is a
sparse irregular matrix over the k systematic columns, built with
progressive-edge-growth placement. Hz occupies the last m columns and is the
fixed double-diagonal "staircase": row 0 holds a single one in column k, and
every later row i holds ones in columns k+i-1 and k+i. Hz is unit lower
bidiagonal, so H always has full row rank and parity bits can be computed by
one forward pass.

A SparseParityMatrix stores H in one form, the edge layout that encoding,
the hard syndrome and belief propagation all walk: H's column indices as a
padded (d_max, m) int32 matrix whose pads point at a sentinel column n, read
by the numpy code and the compiled kernels alike, built when the matrix is.
Its row_parity method is the one row-parity routine of the numpy code; the
compiled encode and BP loops compute the same parities.

Codes are stored as alist text (MacKay's format) with one leading comment
line. save_alist builds the text, and load_alist parses and checks each
block of the file, in whole-array passes; load_alist reports the first bad
line, as a line-by-line reader would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _native

__all__ = [
    "CodeSpec",
    "SparseParityMatrix",
    "ConstructionError",
    "AlistFormatError",
    "build_code",
    "save_alist",
    "load_alist",
    "get_code_spec",
    "CODE_REGISTRY",
]


class ConstructionError(ValueError):
    """Requested degree profile cannot be realized."""


class AlistFormatError(ValueError):
    """Malformed alist file; message carries the 1-based line number."""


def _is_int(value) -> bool:
    """An integer of any integral type, numpy's included, but not a bool. The
    built-in type is tested first: the decoders check every call's caps, and
    an isinstance test against numbers.Integral takes 0.4 us (2-core Xeon)."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _is_real(value) -> bool:
    """A real number of any type, numpy's included, but not a bool; the
    built-in types are tested first, as in _is_int."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


@dataclass(frozen=True)
class CodeSpec:
    """Geometry and design point of one code.

    rate_x is the compression rate (n - k) / k of the parity stream; a stored
    value (e.g. a published rounded figure) must agree with the exact ratio to
    within 1e-3. dv_target is the mean systematic column weight; dc_target is
    informational (the achieved row weight is implied by the other numbers).
    design_p is the flip probability the code is meant to operate at.

    degree_profile, when given, lists (column degree, column count) pairs for
    the k systematic columns; the counts must sum to k and their mean must
    match dv_target. Without it the profile is the two-valued mix of the
    integers around dv_target.
    """

    id: str
    k: int
    n: int
    dv_target: float
    design_p: float | None
    dc_target: float | None = None
    rate_x: float | None = None
    degree_profile: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.k) and _is_int(self.n)):
            raise ValueError(f"k and n must be integers, got k={self.k!r}, n={self.n!r}")
        if self.k <= 0 or self.n <= self.k:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        for name in ("dv_target", "design_p", "dc_target", "rate_x"):
            value = getattr(self, name)
            if not (_is_real(value) or (value is None and name != "dv_target")):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(self.dv_target):
            raise ValueError(f"dv_target must be finite, got {self.dv_target}")
        if self.design_p is not None and not 0.0 < self.design_p < 0.5:
            raise ValueError(f"design_p must lie in (0, 0.5), got {self.design_p}")
        # written so that NaN fails it
        if self.rate_x is not None and not abs(self.rate_x - self.exact_rate_x) <= 1e-3:
            raise ValueError(
                f"rate_x={self.rate_x} disagrees with (n-k)/k={self.exact_rate_x:.6f}"
            )
        if self.degree_profile is not None:
            if not all(_is_int(d) and _is_int(c) for d, c in self.degree_profile):
                raise ValueError(
                    f"degree_profile needs integer degrees and counts, got {self.degree_profile}"
                )
            if any(d < 1 or c < 0 for d, c in self.degree_profile):
                raise ValueError("degree_profile needs degrees >= 1 and counts >= 0")
            if sum(c for _, c in self.degree_profile) != self.k:
                raise ValueError(f"degree_profile column counts must sum to k={self.k}")
            mean = sum(d * c for d, c in self.degree_profile) / self.k
            if abs(mean - self.dv_target) > 0.5 / self.k:
                raise ValueError(
                    f"degree_profile mean {mean:.6f} disagrees with dv_target={self.dv_target}"
                )

    @property
    def m(self) -> int:
        return self.n - self.k

    @property
    def exact_rate_x(self) -> float:
        return (self.n - self.k) / self.k


# Production geometries (k = 16400) with their design flip probabilities,
# plus two desk-scale codes for fast experiments and tests. L2 carries an
# explicit {2, 3, 6} profile with density-evolution threshold p* ~ 0.056: the
# two-valued {3, 4} split of dv = 3.21 has p* ~ 0.052, on top of its design point.
CODE_REGISTRY: dict[str, CodeSpec] = {
    spec.id: spec
    for spec in [
        CodeSpec("L1", 16400, 26200, dv_target=3.0, design_p=0.1, dc_target=8.0, rate_x=0.597),
        CodeSpec(
            "L2", 16400, 22400, dv_target=3.21, design_p=0.05, dc_target=12.0, rate_x=0.365,
            degree_profile=((2, 4920), (3, 8692), (6, 2788)),
        ),
        CodeSpec("L3", 16400, 20300, dv_target=3.45, design_p=0.025, dc_target=18.0, rate_x=0.237),
        CodeSpec("L4", 16400, 19500, dv_target=3.0, design_p=0.015, dc_target=19.0, rate_x=0.189),
        CodeSpec("D1", 1024, 1536, dv_target=3.0, design_p=0.05),
        CodeSpec("D2", 4096, 5120, dv_target=3.0, design_p=0.02),
    ]
}


def get_code_spec(code_id: str) -> CodeSpec:
    try:
        return CODE_REGISTRY[code_id]
    except KeyError:
        raise ValueError(f"unknown code id {code_id!r}; known: {sorted(CODE_REGISTRY)}") from None


# The compiled BP loop sums each column's channel value and messages, every
# one at most bp.DEFAULT_S_MAX = 10000 in magnitude, in int32: exact for a
# column of d edges while (d + 1) * 10000 <= 2**31 - 1.
_INT32_MAX = 2**31 - 1
_MAX_COLUMN_DEGREE = _INT32_MAX // 10_000 - 1  # 214,747


class SparseParityMatrix:
    """Sparse binary parity-check matrix H, stored as its padded edge layout.

    cols is a C-contiguous int32 array of shape (d_max, m), transposed so
    that one step of a scan along every row at once reads one contiguous
    array: cols[t, i] is the column of the t-th one of row i, in strictly
    increasing column order. Rows with fewer than d_max ones are padded with
    the sentinel column n, which reads 0 as a bit and whose sums are
    discarded; n must fit int32. valid = cols < n marks the real edges, of
    which there are edges; valid.T selects them in row-major order, the order
    of rows and of the alist. BP messages take this padded layout alone. The
    numpy code and the compiled kernels walk the same array.

    No column may hold more than 214,747 edges, so that the compiled BP
    loop's int32 column totals are exact. No column of a matrix with at most
    that many rows has more edges than it has rows, so only a taller matrix
    reads its degrees, once, when it is built.

    The first k columns are systematic; the trailing n_cols - k columns
    always form the staircase, which guarantees full row rank. The
    constructor takes rows[i], the column indices of row i's ones, and
    checks them. Instances are treated as immutable once built and may be
    shared between threads read-only.
    """

    def __init__(self, n_rows: int, n_cols: int, k: int, rows, design_p: float | None = None):
        if n_rows != n_cols - k:
            raise ValueError(f"n_rows={n_rows} must equal n_cols-k={n_cols - k}")
        rows = list(rows)
        if len(rows) != n_rows:
            raise ValueError(f"got {len(rows)} row lists for n_rows={n_rows}")
        rows = [_row_indices(i, r, n_cols) for i, r in enumerate(rows)]
        deg = np.fromiter(map(len, rows), np.intp, n_rows)
        flat = np.concatenate(rows) if rows else np.zeros(0, np.intp)
        cols = _padded(flat, deg, int(deg.max(initial=1)), n_cols, np.intp).T
        bad = _first_bad_row(cols, deg, n_cols, k)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")
        self._set(n_cols, k, cols, design_p)

    @classmethod
    def _from_cols(cls, n_cols, k, cols, design_p) -> "SparseParityMatrix":
        """An instance on a padded column matrix that already passes the
        constructor's checks."""
        mat = cls.__new__(cls)
        mat._set(n_cols, k, cols, design_p)
        return mat

    def _set(self, n_cols, k, cols, design_p) -> None:
        if n_cols > _INT32_MAX:
            raise ValueError(f"n_cols={n_cols} leaves no int32 sentinel column")
        self.n_rows, self.n_cols, self.k, self.design_p = cols.shape[1], n_cols, k, design_p
        self.cols = np.ascontiguousarray(cols, dtype=np.int32)
        self.valid = self.cols < n_cols
        self.edges = int(np.count_nonzero(self.valid))
        if self.n_rows > _MAX_COLUMN_DEGREE and self.column_weights().max() > _MAX_COLUMN_DEGREE:
            raise ValueError(f"a column has more than {_MAX_COLUMN_DEGREE} edges")

    @property
    def n(self) -> int:
        return self.n_cols

    @property
    def m(self) -> int:
        return self.n_rows

    @property
    def rows(self) -> list:
        """The column indices of every row's ones, in increasing order, as int32 arrays."""
        flat = self.cols.T[self.valid.T]
        return np.split(flat, np.cumsum(self.row_weights())[:-1]) if self.n_rows else []

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseParityMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.k == other.k
            and self.design_p == other.design_p
            and np.array_equal(self.cols, other.cols)
        )

    # -- views and statistics ----------------------------------------------

    def row_parity(self, bits_ext: np.ndarray) -> np.ndarray:
        """Parity of every row for a 0/1 word of length n + 1 whose last
        entry, the sentinel column, is 0."""
        return (bits_ext[self.cols].sum(0) & 1).astype(np.uint8)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        dense[np.nonzero(self.valid)[1], self.cols[self.valid]] = 1
        return dense

    def column_weights(self) -> np.ndarray:
        return np.bincount(self.cols[self.valid], minlength=self.n_cols)

    def row_weights(self) -> np.ndarray:
        return np.count_nonzero(self.valid, axis=0)

    def mean_systematic_column_weight(self) -> float:
        return float(self.column_weights()[: self.k].mean())

    def mean_row_weight(self) -> float:
        return float(self.row_weights().mean())

    def systematic_four_cycle_free(self) -> bool:
        """True when no two systematic columns share two rows."""
        # A row's columns increase with its pads last, so entries a < b with a
        # systematic column at b pair two of its systematic columns. The key
        # is formed in int64: first * k wraps int32 once k >= 46,341.
        a, b = np.triu_indices(self.cols.shape[0], 1)
        first, second = self.cols[a], self.cols[b]
        sys_pair = second < self.k
        pairs = first[sys_pair].astype(np.int64) * self.k + second[sys_pair]
        return np.unique(pairs).size == pairs.size

    def decode_plan(self) -> "SparseParityMatrix":
        """The matrix itself, which is its own edge layout. Nothing in the
        package calls this or its alias encode_plan(); they stay for the
        benchmark in bench/, whose set-up and span tracing call them."""
        return self

    encode_plan = decode_plan


def _row_indices(i: int, r, n_cols: int) -> np.ndarray:
    """Row i's column indices as an intp array, clipped to [-1, n_cols].

    Clipping keeps which of the constructor's checks a row fails: an entry
    outside [0, n_cols) either is the row's first or last, which the range
    check reads, or breaks the row's order.
    """
    try:
        a = np.asarray(r, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != 1 or not np.isfinite(a).all() or (a != np.floor(a)).any():
        raise ValueError(f"row {i}: column indices must be a flat sequence of integers")
    return np.clip(a, -1, n_cols).astype(np.intp)


def _padded(values: np.ndarray, deg: np.ndarray, width: int, fill: int, dtype) -> np.ndarray:
    """The lists of deg[i] values each, concatenated in values, as the rows
    of a (deg.size, width) array of dtype whose other entries hold fill."""
    out = np.full((deg.size, width), fill, dtype=dtype)
    out[np.arange(width) < deg[:, None]] = values
    return out


def _staircase(i: int, k: int) -> list:
    """The staircase columns of row i."""
    return [k] if i == 0 else [k + i - 1, k + i]


def _first_bad_row(cols: np.ndarray, deg: np.ndarray, n_cols: int, k: int):
    """The first row of a padded (d, m) column matrix that is not a valid
    row of H, and what is wrong with it, or None.

    Row i holds its deg[i] indices in cols[:deg[i], i]. A row fails when its
    first or last index lies outside [0, n_cols), when its indices do not
    strictly increase, or when its indices >= k are not _staircase(i, k);
    the tests run in that order.
    """
    d, m = cols.shape
    i = np.arange(m)
    # a pad row below cols keeps the reads of short and empty rows in
    # bounds; what they read is masked below
    ext = np.vstack((cols, np.full(m, n_cols, cols.dtype)))
    last, second, third = (ext[np.maximum(deg - j, -1), i] for j in (1, 2, 3))
    bad_range = (deg > 0) & ((ext[0] < 0) | (last >= n_cols))
    in_row = np.arange(1, d)[:, None] < deg  # steps from entry t - 1 to t of a row
    bad_order = ((cols[1:] <= cols[:-1]) & in_row).any(0)
    # a strictly increasing row holds its indices >= k at its end
    bad_stair = (
        (deg < 2)
        | (last != k + i)
        | (second != k + i - 1)
        | ((deg > 2) & (third >= k))
    )
    if m:
        bad_stair[0] = deg[0] < 1 or last[0] != k
    bad = np.flatnonzero(bad_range | bad_order | bad_stair)
    if bad.size == 0:
        return None
    j = int(bad[0])
    if bad_range[j]:
        return j, f"column index out of range [0, {n_cols})"
    if bad_order[j]:
        return j, "column indices must be strictly increasing"
    r = cols[: deg[j], j]
    return j, f"staircase columns are {r[r >= k].tolist()}, expected {_staircase(j, k)}"


# -- construction -----------------------------------------------------------


def _column_degrees(spec: CodeSpec, rng: np.random.Generator) -> np.ndarray:
    """Degree of every systematic column, in placement order.

    An explicit degree_profile fixes the count of each degree and the seed
    shuffles which columns carry which; otherwise a two-valued profile whose
    mean matches dv_target.
    """
    if spec.degree_profile is not None:
        degrees = np.repeat(*np.asarray(spec.degree_profile, dtype=np.int32).T)
        if degrees.max() > spec.m:
            raise ConstructionError(
                f"column degree {degrees.max()} exceeds the row count n-k={spec.m}"
            )
        return rng.permutation(degrees)
    lo = math.floor(spec.dv_target)
    hi = math.ceil(spec.dv_target)
    if lo < 1:
        raise ConstructionError(f"dv_target must be >= 1, got {spec.dv_target}")
    if hi > spec.m:
        raise ConstructionError(
            f"column degree ceil(dv_target)={hi} exceeds the row count n-k={spec.m}"
        )
    n_hi = round((spec.dv_target - lo) * spec.k)
    degrees = np.full(spec.k, lo, dtype=np.int32)
    if n_hi:
        degrees[rng.choice(spec.k, size=n_hi, replace=False)] = hi
    return degrees


def build_code(spec: CodeSpec, seed: int = 0, max_bfs_levels: int = 4) -> SparseParityMatrix:
    """Construct the parity-check matrix for spec.

    Systematic columns are placed one edge at a time: each new edge goes to
    the check node that maximizes the local girth (breadth-first search over
    the current systematic subgraph, capped at max_bfs_levels check levels),
    with ties broken by the lowest current row weight and then the lowest row
    index. The seed only shuffles which columns carry which profile degree;
    placement itself is deterministic. seed and max_bfs_levels must be
    non-negative integers. For k >= 1000 the systematic subgraph comes out
    free of length-4 cycles.

    Placement runs in the compiled kernel when swldpc.backend() is "c" and in
    numpy otherwise; both place every edge identically.
    """
    for name, value in (("seed", seed), ("max_bfs_levels", max_bfs_levels)):
        if not (_is_int(value) and value >= 0):
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    k, m = spec.k, spec.m
    rng = np.random.default_rng(seed)
    degrees = _column_degrees(spec, rng)
    dll = _native.lib()
    if dll is None:
        edge_chk = _place_edges(degrees, m, max_bfs_levels)
    else:
        edge_chk = _native.peg_place(dll, degrees, m, max_bfs_levels)
        if edge_chk is None:
            raise ConstructionError("an edge found no admissible check")

    # each row's systematic columns in increasing order, then its stair
    edge_var = np.repeat(np.arange(k, dtype=np.intp), degrees)
    order = np.lexsort((edge_var, edge_chk))
    sys_deg = np.bincount(edge_chk, minlength=m)
    deg = sys_deg + 2
    deg[0] = sys_deg[0] + 1
    cols = _padded(edge_var[order], sys_deg, int(deg.max()), spec.n, np.intp)
    i = np.arange(m)
    cols[i, deg - 1] = k + i
    cols[i[1:], deg[1:] - 2] = k + i[1:] - 1
    return SparseParityMatrix._from_cols(spec.n, k, cols.T, spec.design_p)


def _place_edges(degrees, m, max_levels):
    """The check of every systematic edge, in placement order (column after
    column): the numpy form of the compiled peg_place."""
    k = degrees.size
    hi = int(degrees.max())

    var_adj = np.full((k, hi), -1, dtype=np.int32)
    var_deg = np.zeros(k, dtype=np.int32)
    cap = int(math.ceil(degrees.sum() / m)) + 8
    chk_adj = np.full((m, cap), -1, dtype=np.int32)
    chk_deg = np.zeros(m, dtype=np.int32)
    seen_chk = np.zeros(m, dtype=bool)
    seen_var = np.zeros(k, dtype=bool)

    for v in range(k):
        for _ in range(degrees[v]):
            if var_deg[v] == 0:
                c = int(np.argmin(chk_deg))
            else:
                c = _select_check(
                    v, var_adj, var_deg, chk_adj, chk_deg, seen_chk, seen_var, max_levels
                )
            if chk_deg[c] == chk_adj.shape[1]:
                chk_adj = np.concatenate(
                    [chk_adj, np.full((m, cap), -1, dtype=np.int32)], axis=1
                )
            chk_adj[c, chk_deg[c]] = v
            chk_deg[c] += 1
            var_adj[v, var_deg[v]] = c
            var_deg[v] += 1
    return var_adj[var_adj >= 0]


def _select_check(v, var_adj, var_deg, chk_adj, chk_deg, seen_chk, seen_var, max_levels):
    """Pick the check for the next edge of column v: farthest first, then lightest."""
    m = chk_deg.size
    seen_chk[:] = False
    seen_var[:] = False
    frontier = var_adj[v, : var_deg[v]]
    seen_chk[frontier] = True
    seen_var[v] = True

    cand_mask = None
    for _ in range(max_levels):
        vs = chk_adj[frontier].ravel()
        vs = vs[vs >= 0]
        vs = vs[~seen_var[vs]]
        if vs.size == 0:
            cand_mask = ~seen_chk
            break
        seen_var[vs] = True
        cs = var_adj[vs].ravel()
        cs = cs[cs >= 0]
        cs = cs[~seen_chk[cs]]
        if cs.size == 0:
            cand_mask = ~seen_chk
            break
        seen_chk[cs] = True
        if seen_chk.all():
            # every check is reachable; the deepest ones were found this level
            cand_mask = np.zeros(m, dtype=bool)
            cand_mask[cs] = True
            break
        frontier = cs
    if cand_mask is None:
        cand_mask = ~seen_chk  # depth cap hit: prefer anything beyond the horizon
    cand = np.flatnonzero(cand_mask)
    if cand.size == 0:
        # pathological fallback: every check already borders v's neighborhood
        cand_mask = np.ones(m, dtype=bool)
        cand_mask[var_adj[v, : var_deg[v]]] = False
        cand = np.flatnonzero(cand_mask)
    return int(cand[np.argmin(chk_deg[cand])])


# -- alist i/o ----------------------------------------------------------------

_COMMENT_PREFIX = "# staircase-ldpc"


def save_alist(mat: SparseParityMatrix, sink) -> None:
    """Write mat in alist form, extended with one leading comment line.

    The comment carries k and the design flip probability, which the plain
    alist body cannot express. Column and row index lists are 1-based and
    zero-padded to the maximum degree, as usual for the format.
    """
    flat = mat.cols.T[mat.valid.T]  # row-major
    row_deg = mat.row_weights()
    col_deg = np.bincount(flat, minlength=mat.n_cols)
    # each column's rows in increasing order: a stable sort of the row-major
    # column list keeps the row order within a column
    col_rows = np.repeat(np.arange(1, mat.n_rows + 1), row_deg)[np.argsort(flat, kind="stable")]
    max_col, max_row = int(col_deg.max()), int(row_deg.max())

    dp = "none" if mat.design_p is None else repr(float(mat.design_p))
    lines = [
        f"{_COMMENT_PREFIX} k={mat.k} design_p={dp}",
        f"{mat.n_cols} {mat.n_rows}",
        f"{max_col} {max_row}",
        _int_lines(col_deg[None]),
        _int_lines(row_deg[None]),
        _int_lines(_padded(col_rows, col_deg, max_col, 0, np.int64)),
        _int_lines(np.where(mat.valid, mat.cols + 1, 0).T),
    ]
    text = "\n".join(lines) + "\n"

    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


def _int_lines(rows: np.ndarray) -> str:
    """One line of blank-separated integers per row of a 2-D array, joined by
    newlines; one format string formats them all."""
    line = " ".join(["%d"] * rows.shape[1])
    return "\n".join([line] * rows.shape[0]) % tuple(rows.ravel().tolist())


def _ints(line: str, lineno: int) -> list:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise AlistFormatError(f"line {lineno}: expected integers, got {line!r}") from None


_CLAMP = 1 << 62


def _line_ints(lines: list) -> tuple[np.ndarray, np.ndarray, int]:
    """The whitespace-separated tokens of lines, read as int() reads them.

    Returns (values, counts, bad): the tokens' values in order as int64, the
    number of tokens on each line, and the index of the first line with a
    token int() rejects (len(lines) if none does); values from that line on
    are unspecified. Magnitudes above 2**62 are clamped to 2**62.

    Text of ASCII digits, blanks and tabs, as save_alist writes it, is
    parsed in array passes; anything else token by token with int().
    """
    text = "\n".join(lines)
    if lines and text.isascii():
        ch = np.frombuffer(text.encode("ascii"), np.uint8)
        digit = (ch - 48) < 10  # uint8 wraps below '0'
        if (digit | (ch == 32) | ((ch - 9) < 5)).all():  # digits, blank, \t to \r
            edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
            start, end = edges.reshape(-1, 2).T
            if start.size == 0 or (end - start).max() <= 18:  # 18 digits always fit int64
                newline = np.flatnonzero(ch == 10)
                counts = np.diff(np.searchsorted(start, newline), prepend=0, append=start.size)
                if start.size == 0:  # fromstring would read blank text as one 0
                    return np.zeros(0, np.int64), counts, len(lines)
                return np.fromstring(text, np.int64, sep=" "), counts, len(lines)
    words = [line.split() for line in lines]
    counts = np.fromiter(map(len, words), np.intp, len(words))
    values = np.zeros(int(counts.sum()), np.int64)
    t = 0
    for j, line_words in enumerate(words):
        for tok in line_words:
            try:
                values[t] = max(-_CLAMP, min(_CLAMP, int(tok)))
            except ValueError:
                return values, counts, j
            t += 1
    return values, counts, len(lines)


def _header_design_p(tok: str) -> float | None:
    """design_p from the header: 'none', or a float in (0, 0.5) as CodeSpec requires."""
    if tok == "none":
        return None
    try:
        p = float(tok)
    except ValueError:
        p = None
    if p is None or not 0.0 < p < 0.5:
        raise AlistFormatError(f"line 1: design_p must be 'none' or lie in (0, 0.5), got {tok!r}")
    return p


def _block_error(vals: np.ndarray, degs: np.ndarray, limit: int, kind: str):
    """First line of an index block that fails, and why, or None.

    vals holds one zero-padded line per row; degs the degree of each line.
    A line's checks run in the order padding, range, strictly increasing.
    """
    body = np.arange(vals.shape[1]) < degs[:, None]
    bad_pad = ((vals != 0) & ~body).any(1)
    bad_range = (body & ((vals < 1) | (vals > limit))).any(1)
    bad_order = (body[:, 1:] & (vals[:, 1:] <= vals[:, :-1])).any(1)
    bad = np.flatnonzero(bad_pad | bad_range | bad_order)
    if bad.size == 0:
        return None
    j = int(bad[0])
    if bad_pad[j]:
        return j, "nonzero entry in zero padding"
    if bad_range[j]:
        return j, f"{kind} index out of range 1..{limit}"
    return j, "indices must be strictly increasing"


def load_alist(source) -> SparseParityMatrix:
    """Parse an extended alist file back into a SparseParityMatrix.

    Raises AlistFormatError with the offending 1-based line number on any
    structural problem: bad counts, out-of-range indices, unsorted or
    duplicate entries, inconsistent column/row lists, or a broken staircase.
    Lines are checked in file order and each line's checks in a fixed
    order, so the error names the first bad line, though the lists are
    parsed and checked as whole arrays.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = text.splitlines()

    def need(i):
        if i >= len(lines):
            raise AlistFormatError(f"line {i + 1}: unexpected end of file")
        return lines[i]

    head = need(0)
    if not head.startswith(_COMMENT_PREFIX):
        raise AlistFormatError(f"line 1: missing {_COMMENT_PREFIX!r} header comment")
    fields = dict(
        tok.split("=", 1) for tok in head[len(_COMMENT_PREFIX) :].split() if "=" in tok
    )
    try:
        k = int(fields["k"])
    except (KeyError, ValueError):
        raise AlistFormatError("line 1: header must carry k=<int>") from None
    design_p = _header_design_p(fields.get("design_p", "none"))

    dims = _ints(need(1), 2)
    if len(dims) != 2:
        raise AlistFormatError("line 2: expected 'n_cols n_rows'")
    n_cols, n_rows = dims
    if not 0 < k < n_cols or n_rows != n_cols - k:
        raise AlistFormatError(
            f"line 2: dimensions ({n_cols}, {n_rows}) inconsistent with k={k}"
        )
    maxdeg = _ints(need(2), 3)
    if len(maxdeg) != 2:
        raise AlistFormatError("line 3: expected 'max_col_degree max_row_degree'")
    max_col, max_row = maxdeg

    # Lines 4 on as one token array; r counts lines from line 4.
    end = 5 + n_cols + n_rows
    values, counts, bad_line = _line_ints(lines[3:end])
    offset = np.concatenate(([0], np.cumsum(counts)))

    def parse_error(r, want, what):
        """The error of line 4 + r, whose tokens are not `want` integers."""
        need(3 + r)
        if r == bad_line:
            raise AlistFormatError(f"line {4 + r}: expected integers, got {lines[3 + r]!r}")
        raise AlistFormatError(f"line {4 + r}: expected {want} {what}, got {counts[r]}")

    def degrees(r, count, max_deg, kind):
        if r >= counts.size or r == bad_line or counts[r] != count:
            parse_error(r, count, f"{kind} degrees")
        degs = values[offset[r] : offset[r] + count]
        # a clamped value is compared exactly: line 3 may allow more than 2**62
        for j in np.flatnonzero((degs < 0) | (degs > max_deg) | (degs == _CLAMP)).tolist():
            d = int(lines[3 + r].split()[j])
            if not 0 <= d <= max_deg:
                raise AlistFormatError(
                    f"line {4 + r}: degree {d} of {kind} {j + 1} outside 0..{max_deg}"
                )
        return degs

    def block(r, count, degs, limit, max_deg, kind):
        """The lines of one index block, checked, as a (count, max_deg) array."""
        parsed = max(0, min(count, counts.size - r, bad_line - r))
        wrong = np.flatnonzero(counts[r : r + parsed] != max_deg)
        if wrong.size:
            parsed = int(wrong[0])
        if parsed:
            first = offset[r]
            vals = values[first : first + parsed * max_deg].reshape(parsed, max_deg)
            err = _block_error(vals, degs[:parsed], limit, kind)
            if err is not None:
                raise AlistFormatError(f"line {4 + r + err[0]}: {err[1]}")
        if parsed < count:
            parse_error(r + parsed, max_deg, "entries (zero-padded)")
        return vals

    col_deg = degrees(0, n_cols, max_col, "column")
    row_deg = degrees(1, n_rows, max_row, "row")
    cols = block(2, n_cols, col_deg, n_rows, max_col, "row")
    rows = block(2 + n_cols, n_rows, row_deg, n_cols, max_row, "column")
    if any(line.strip() for line in lines[end:]):
        raise AlistFormatError(f"line {end + 1}: trailing content")

    # cross-check the two redundant views of the matrix: the row lists,
    # regrouped by column, must repeat the column lists
    edge_col = rows[np.arange(max_row) < row_deg[:, None]] - 1
    edge_row = np.repeat(np.arange(n_rows), row_deg)
    regrouped = edge_row[np.argsort(edge_col, kind="stable")]
    listed = cols[np.arange(max_col) < col_deg[:, None]] - 1
    # columns before the first whose degree differs sit at the same offsets
    # in both lists, so their first differing entry names the first bad column
    col_end = np.cumsum(col_deg)
    diff_deg = np.flatnonzero(np.bincount(edge_col, minlength=n_cols) != col_deg)
    bad_col = int(diff_deg[0]) if diff_deg.size else n_cols
    shared = int(col_end[bad_col - 1]) if bad_col else 0
    diff = np.flatnonzero(listed[:shared] != regrouped[:shared])
    if diff.size:
        bad_col = int(np.searchsorted(col_end, diff[0], side="right"))
    if bad_col < n_cols:
        raise AlistFormatError(
            f"line {6 + bad_col}: column list disagrees with the row lists for column {bad_col + 1}"
        )

    # the rows' zero-padded block, trimmed to the largest row degree, as H's
    # padded column matrix
    rows = rows[:, : int(row_deg.max(initial=1))]
    h_cols = np.where(rows > 0, rows - 1, n_cols).T
    bad = _first_bad_row(h_cols, row_deg, n_cols, k)
    if bad is not None:  # rows are in range and increasing here, so it is the staircase
        raise AlistFormatError(f"line {6 + n_cols + bad[0]}: row {bad[0]} {bad[1]}")
    return SparseParityMatrix._from_cols(n_cols, k, h_cols, design_p)
