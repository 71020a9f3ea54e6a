"""Integer-metric belief propagation over the full staircase Tanner graph.

Log-likelihood ratios are quantized to integers scaled by 2**q and clipped
to +-s_max; the convention for stored values is that positive favors bit 1.
Internally the decoder negates everything so that the textbook check-node
rule applies without degree-dependent sign flips. The check-node kernel is
selectable: an exact pairwise reduction with a small integer correction
table (default), or pure min-sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import SparseParityMatrix
from .encoding import as_bit_array

__all__ = [
    "DEFAULT_Q",
    "DEFAULT_S_MAX",
    "LlrqVector",
    "DecodeOutcome",
    "quantize_llr",
    "make_correction_table",
    "init_from_side_info",
    "bp_decode",
    "hard_syndrome",
]

DEFAULT_Q = 3
DEFAULT_S_MAX = 10000

KERNELS = ("table", "minsum")


@dataclass
class LlrqVector:
    """Quantized LLRs for all n bits: scaled by 2**q, magnitudes <= s_max."""

    values: np.ndarray
    q: int = DEFAULT_Q
    s_max: int = DEFAULT_S_MAX
    k: int | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int32)
        if self.values.ndim != 1:
            raise ValueError("LLR vector must be one-dimensional")
        if self.s_max <= 0 or self.q < 0:
            raise ValueError(f"need s_max > 0 and q >= 0, got {self.s_max}, {self.q}")
        if np.abs(self.values, dtype=np.int64).max(initial=0) > self.s_max:
            raise ValueError(f"LLR magnitudes must not exceed s_max={self.s_max}")


@dataclass
class DecodeOutcome:
    """Result of one belief-propagation run.

    c2v holds the check-to-variable messages of the last round, one per edge
    in row-major order, the order of np.concatenate(h.rows) (all zero when no
    round ran from a cold start); passing it back to bp_decode warm-starts
    the next run. Inside bp_decode the messages live in the code's padded
    EdgeLayout and are converted through its valid mask on entry and exit.
    """

    hard_bits: np.ndarray
    posterior: LlrqVector
    iterations_used: int
    syndrome_ok: bool
    c2v: np.ndarray | None = None


def quantize_llr(l: float, q: int = DEFAULT_Q, s_max: int = DEFAULT_S_MAX) -> int:
    """Map a real LLR to the integer grid: floor(2**q * l + 0.5), clipped."""
    if not math.isfinite(l):
        raise ValueError(f"LLR must be finite, got {l}")
    v = math.floor(2**q * l + 0.5)
    return max(-s_max, min(s_max, v))


_TABLES: dict = {}


def make_correction_table(q: int) -> np.ndarray:
    """Integer correction term t[u] = round(2**q * ln(1 + exp(-u / 2**q))).

    The table ends at the first zero entry; its length stays within 8 * 2**q.
    """
    scale = float(2**q)
    out = []
    u = 0
    while True:
        val = math.floor(scale * math.log1p(math.exp(-u / scale)) + 0.5)
        if val == 0:
            break
        out.append(val)
        u += 1
    table = np.asarray(out, dtype=np.int32)
    assert table.size <= 8 * 2**q
    return table


def _table_for(q: int) -> np.ndarray:
    if q not in _TABLES:
        # one trailing zero so clipped lookups land on "no correction"
        _TABLES[q] = np.concatenate([make_correction_table(q), [0]]).astype(np.int32)
    return _TABLES[q]


def init_from_side_info(
    y,
    z,
    alpha: float,
    q: int = DEFAULT_Q,
    s_max: int = DEFAULT_S_MAX,
) -> LlrqVector:
    """Build the decoder's starting LLRs from side information and parity.

    Systematic positions get the quantized LLR (2*y - 1) * |alpha|, so the
    favored value is always y itself; parity positions are known exactly and
    saturate to (2*z - 1) * s_max.
    """
    y = as_bit_array(y, np.asarray(y).size, "side information")
    z = as_bit_array(z, np.asarray(z).size, "parity block")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    l_sys = (2.0 * y - 1.0) * abs(alpha)
    v_sys = np.clip(np.floor(2**q * l_sys + 0.5), -s_max, s_max).astype(np.int32)
    v_par = ((2 * z.astype(np.int32) - 1) * s_max).astype(np.int32)
    return LlrqVector(np.concatenate([v_sys, v_par]), q=q, s_max=s_max, k=int(y.size))


def hard_syndrome(h: SparseParityMatrix, bits) -> np.ndarray:
    """Parity of every check for a full hard-decision word of length n."""
    bits = as_bit_array(bits, h.n_cols, "codeword")
    return h.decode_plan().row_parity(np.append(bits, np.uint8(0)))


def _box_table(a, b, table, tmax):
    mag = np.minimum(np.abs(a), np.abs(b))
    out = np.sign(a) * np.sign(b) * mag
    out += table[np.minimum(np.abs(a + b), tmax)]
    out -= table[np.minimum(np.abs(a - b), tmax)]
    return out


def _box_minsum(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def bp_decode(
    h: SparseParityMatrix,
    init: LlrqVector,
    max_local_iters: int = 50,
    kernel: str = "table",
    c2v: np.ndarray | None = None,
) -> DecodeOutcome:
    """Flooding-schedule decoding with integer messages.

    Each round updates every check node and then every bit node; hard
    decisions are bit = 1 iff the posterior is positive (ties resolve to 0).
    The run stops as soon as the hard decisions satisfy every check, so a
    clean starting point reports zero iterations. All messages stay within
    [-s_max, s_max].

    c2v, the messages of an earlier run on the same code (DecodeOutcome.c2v),
    warm-starts the run: the bit nodes are first updated from those messages
    and init's channel values, so new channel values take effect at once and
    the hard decisions are tested before any further round. Without c2v the
    run starts from the channel values alone.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if init.values.size != h.n_cols:
        raise ValueError(f"init has {init.values.size} values for n={h.n_cols}")
    lay = h.decode_plan()
    s_max = init.s_max
    if c2v is not None:
        c2v = np.asarray(c2v, dtype=np.int32)
        n_edges = np.count_nonzero(lay.valid)
        if c2v.shape != (n_edges,):
            raise ValueError(f"c2v has shape {c2v.shape} for {n_edges} edges")
        if np.abs(c2v, dtype=np.int64).max(initial=0) > s_max:
            raise ValueError(f"c2v magnitudes must not exceed s_max={s_max}")
    ident = np.int32(2 * s_max)
    table = _table_for(init.q)
    tmax = table.size - 1

    if kernel == "table":
        def box(a, b):
            return _box_table(a, b, table, tmax)
    else:
        box = _box_minsum

    # internal domain: positive favors bit 0; entry n is the sentinel column
    lam0 = np.append(-init.values.astype(np.int64), 0)
    pads = ~lay.valid
    d_max = lay.cols.shape[0]

    def variable_pass(c2v):
        # float64 column sums are exact: each is at most d_v * s_max << 2**53
        col_sum = np.bincount(lay.cols.ravel(), weights=c2v.ravel(), minlength=lam0.size)
        tot = lam0 + col_sum.astype(np.int64)
        tot[-1] = 0  # the sentinel collects the pads' messages; it must read as bit 0
        v2c = np.clip(tot[lay.cols] - c2v, -s_max, s_max).astype(np.int32)
        v2c[pads] = ident  # |m +- 2*s_max| > tmax: both kernels return m exactly
        return tot, v2c

    # messages are padded (d_max, m) arrays inside, row-major edge lists outside
    padded = np.zeros(lay.cols.T.shape, dtype=np.int32)
    if c2v is not None:
        padded[lay.valid.T] = c2v
    c2v = np.ascontiguousarray(padded.T)
    tot, v2c = variable_pass(c2v)
    bits = (tot < 0).astype(np.uint8)

    iterations = 0
    ok = not lay.row_parity(bits).any()
    if not ok:
        for iterations in range(1, max_local_iters + 1):
            # exclusive scans: left[t] reduces a row's messages before t, right[t] after t
            left = np.full_like(v2c, ident)
            for t in range(1, d_max):
                left[t] = box(left[t - 1], v2c[t - 1])
            right = np.full_like(v2c, ident)
            for t in range(d_max - 2, -1, -1):
                right[t] = box(right[t + 1], v2c[t + 1])
            c2v = np.clip(box(left, right), -s_max, s_max).astype(np.int32)
            tot, v2c = variable_pass(c2v)
            bits = (tot < 0).astype(np.uint8)
            if not lay.row_parity(bits).any():
                ok = True
                break

    posterior = LlrqVector(
        np.clip(-tot[:-1], -s_max, s_max).astype(np.int32),
        q=init.q,
        s_max=s_max,
        k=init.k,
    )
    return DecodeOutcome(
        hard_bits=bits[:-1],
        posterior=posterior,
        iterations_used=iterations,
        syndrome_ok=bool(ok),
        c2v=c2v.T[lay.valid.T],
    )
