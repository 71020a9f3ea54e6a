"""Staircase LDPC parity-check matrices: construction, registry, alist files.

A code over n = k + m bits is defined by H = (Hx | Hz) with m rows. Hx is a
sparse irregular matrix over the k systematic columns, built with
progressive-edge-growth placement. Hz occupies the last m columns and is the
fixed double-diagonal "staircase": row 0 holds a single one in column k, and
every later row i holds ones in columns k+i-1 and k+i. Hz is unit lower
bidiagonal, so H always has full row rank and parity bits can be computed by
one forward pass.

Encoding, the hard syndrome and belief propagation all walk one cached
EdgeLayout per code: H's column indices as a padded (d_max, m) matrix whose
pads point at a sentinel column n. Its row_parity method is the one
row-parity routine of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

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
        if self.k <= 0 or self.n <= self.k:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.design_p is not None and not 0.0 < self.design_p < 0.5:
            raise ValueError(f"design_p must lie in (0, 0.5), got {self.design_p}")
        if self.rate_x is not None and abs(self.rate_x - self.exact_rate_x) > 1e-3:
            raise ValueError(
                f"rate_x={self.rate_x} disagrees with (n-k)/k={self.exact_rate_x:.6f}"
            )
        if self.degree_profile is not None:
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


class EdgeLayout:
    """The Tanner graph's edges as one padded column-index matrix.

    cols has shape (d_max, m), transposed so that one step of a scan along
    every row at once reads one contiguous array: cols[t, i] is the column of
    the t-th one of row i, in increasing column order. Rows with fewer than d_max ones are padded
    with the sentinel column n, which reads 0 as a bit and whose sums are
    discarded. valid = cols < n marks the real edges; valid.T selects them in
    row-major order, the order of H's edges outside this class.
    """

    __slots__ = ("cols", "valid")

    def __init__(self, mat: "SparseParityMatrix"):
        deg = mat.row_weights()
        real = np.arange(deg.max()) < deg[:, None]
        cols = np.full(real.shape, mat.n_cols, dtype=np.intp)
        cols[real] = np.concatenate(mat.rows)
        self.cols = np.ascontiguousarray(cols.T)
        self.valid = self.cols < mat.n_cols

    def row_parity(self, bits_ext: np.ndarray) -> np.ndarray:
        """Parity of every row for a 0/1 word of length n + 1 whose last
        entry, the sentinel column, is 0."""
        return (bits_ext[self.cols].sum(0) & 1).astype(np.uint8)


@dataclass(eq=False)
class SparseParityMatrix:
    """Sparse binary parity-check matrix in row-index form.

    rows[i] lists the column indices of the ones in row i, strictly
    increasing. The first k columns are systematic; the trailing
    n_cols - k columns always form the staircase, which guarantees full
    row rank. Instances are treated as immutable once built and may be
    shared between threads read-only. decode_plan() (alias encode_plan())
    returns the code's EdgeLayout, built on first use and then cached.
    """

    n_rows: int
    n_cols: int
    k: int
    rows: list
    design_p: float | None = None
    _layout: EdgeLayout | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = [np.asarray(r, dtype=np.int32) for r in self.rows]
        self.validate()

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        if self.n_rows != self.n_cols - self.k:
            raise ValueError(
                f"n_rows={self.n_rows} must equal n_cols-k={self.n_cols - self.k}"
            )
        if len(self.rows) != self.n_rows:
            raise ValueError(f"got {len(self.rows)} row lists for n_rows={self.n_rows}")
        k, m = self.k, self.n_rows
        for i, r in enumerate(self.rows):
            if r.size and (r[0] < 0 or r[-1] >= self.n_cols):
                raise ValueError(f"row {i}: column index out of range [0, {self.n_cols})")
            if np.any(np.diff(r) <= 0):
                raise ValueError(f"row {i}: column indices must be strictly increasing")
            par = r[r >= k]
            want = [k] if i == 0 else [k + i - 1, k + i]
            if par.tolist() != want:
                raise ValueError(
                    f"row {i}: staircase columns are {par.tolist()}, expected {want}"
                )

    @property
    def n(self) -> int:
        return self.n_cols

    @property
    def m(self) -> int:
        return self.n_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseParityMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.k == other.k
            and self.design_p == other.design_p
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )

    # -- views and statistics ----------------------------------------------

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for i, r in enumerate(self.rows):
            dense[i, r] = 1
        return dense

    def column_weights(self) -> np.ndarray:
        return np.bincount(
            np.concatenate(self.rows) if self.rows else np.empty(0, np.int32),
            minlength=self.n_cols,
        )

    def row_weights(self) -> np.ndarray:
        return np.fromiter((len(r) for r in self.rows), dtype=np.int64, count=self.n_rows)

    def mean_systematic_column_weight(self) -> float:
        return float(self.column_weights()[: self.k].mean())

    def mean_row_weight(self) -> float:
        return float(self.row_weights().mean())

    def systematic_four_cycle_free(self) -> bool:
        """True when no two systematic columns share two rows."""
        rows_idx = []
        cols_idx = []
        for i, r in enumerate(self.rows):
            sys_cols = r[r < self.k]
            rows_idx.append(np.full(sys_cols.size, i, dtype=np.int64))
            cols_idx.append(sys_cols.astype(np.int64))
        if not rows_idx:
            return True
        a = sp.csr_matrix(
            (
                np.ones(sum(len(c) for c in cols_idx), dtype=np.int64),
                (np.concatenate(rows_idx), np.concatenate(cols_idx)),
            ),
            shape=(self.n_rows, self.k),
        )
        gram = (a.T @ a).tocoo()
        off = gram.row != gram.col
        return bool(not np.any(gram.data[off] > 1))

    # -- cached edge layout --------------------------------------------------

    def decode_plan(self) -> EdgeLayout:
        """The code's EdgeLayout, built on first use and cached."""
        if self._layout is None:
            self._layout = EdgeLayout(self)
        return self._layout

    encode_plan = decode_plan


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
    placement itself is deterministic. For k >= 1000 the systematic subgraph
    comes out free of length-4 cycles.
    """
    k, m = spec.k, spec.m
    rng = np.random.default_rng(seed)
    degrees = _column_degrees(spec, rng)
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
                    v, var_adj, var_deg, chk_adj, chk_deg, seen_chk, seen_var, max_bfs_levels
                )
            if chk_deg[c] == chk_adj.shape[1]:
                chk_adj = np.concatenate(
                    [chk_adj, np.full((m, cap), -1, dtype=np.int32)], axis=1
                )
            chk_adj[c, chk_deg[c]] = v
            chk_deg[c] += 1
            var_adj[v, var_deg[v]] = c
            var_deg[v] += 1

    rows = []
    for i in range(m):
        sys_cols = np.sort(chk_adj[i, : chk_deg[i]])
        stair = [k] if i == 0 else [k + i - 1, k + i]
        rows.append(np.concatenate([sys_cols, np.asarray(stair)]).astype(np.int32))
    return SparseParityMatrix(
        n_rows=m, n_cols=spec.n, k=k, rows=rows, design_p=spec.design_p
    )


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
    col_lists = [[] for _ in range(mat.n_cols)]
    for i, r in enumerate(mat.rows):
        for c in r.tolist():
            col_lists[c].append(i + 1)
    row_lists = [(r + 1).tolist() for r in mat.rows]
    max_col = max(len(c) for c in col_lists)
    max_row = max(len(r) for r in row_lists)

    dp = "none" if mat.design_p is None else repr(float(mat.design_p))
    lines = [
        f"{_COMMENT_PREFIX} k={mat.k} design_p={dp}",
        f"{mat.n_cols} {mat.n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    for c in col_lists:
        lines.append(" ".join(str(x) for x in c + [0] * (max_col - len(c))))
    for r in row_lists:
        lines.append(" ".join(str(x) for x in r + [0] * (max_row - len(r))))
    text = "\n".join(lines) + "\n"

    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


def _ints(line: str, lineno: int) -> list:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise AlistFormatError(f"line {lineno}: expected integers, got {line!r}") from None


def load_alist(source) -> SparseParityMatrix:
    """Parse an extended alist file back into a SparseParityMatrix.

    Raises AlistFormatError with the offending 1-based line number on any
    structural problem: bad counts, out-of-range indices, unsorted or
    duplicate entries, inconsistent column/row lists, or a broken staircase.
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
    dp_tok = fields.get("design_p", "none")
    design_p = None if dp_tok == "none" else float(dp_tok)

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

    col_deg = _ints(need(3), 4)
    if len(col_deg) != n_cols:
        raise AlistFormatError(f"line 4: expected {n_cols} column degrees, got {len(col_deg)}")
    row_deg = _ints(need(4), 5)
    if len(row_deg) != n_rows:
        raise AlistFormatError(f"line 5: expected {n_rows} row degrees, got {len(row_deg)}")

    def read_block(start, count, degs, limit, max_deg, kind):
        out = []
        for j in range(count):
            lineno = start + j + 1
            vals = _ints(need(start + j), lineno)
            if len(vals) != max_deg:
                raise AlistFormatError(
                    f"line {lineno}: expected {max_deg} entries (zero-padded), got {len(vals)}"
                )
            body, pad = vals[: degs[j]], vals[degs[j] :]
            if any(p != 0 for p in pad):
                raise AlistFormatError(f"line {lineno}: nonzero entry in zero padding")
            if any(not 1 <= x <= limit for x in body):
                raise AlistFormatError(f"line {lineno}: {kind} index out of range 1..{limit}")
            if any(b >= a for a, b in zip(body[1:], body)):
                raise AlistFormatError(f"line {lineno}: indices must be strictly increasing")
            out.append([x - 1 for x in body])
        return out

    cols = read_block(5, n_cols, col_deg, n_rows, max_col, "row")
    rows = read_block(5 + n_cols, n_rows, row_deg, n_cols, max_row, "column")
    if 5 + n_cols + n_rows < len(lines) and any(
        line.strip() for line in lines[5 + n_cols + n_rows :]
    ):
        raise AlistFormatError(f"line {5 + n_cols + n_rows + 1}: trailing content")

    # cross-check the two redundant views of the matrix
    rebuilt = [[] for _ in range(n_cols)]
    for i, r in enumerate(rows):
        for c in r:
            rebuilt[c].append(i)
    for c in range(n_cols):
        if rebuilt[c] != cols[c]:
            raise AlistFormatError(
                f"line {6 + c}: column list disagrees with the row lists for column {c + 1}"
            )

    for i, r in enumerate(rows):
        par = [c for c in r if c >= k]
        want = [k] if i == 0 else [k + i - 1, k + i]
        if par != want:
            raise AlistFormatError(
                f"line {6 + n_cols + i}: row {i} staircase columns are {par}, expected {want}"
            )

    return SparseParityMatrix(
        n_rows=n_rows, n_cols=n_cols, k=k, rows=rows, design_p=design_p
    )
