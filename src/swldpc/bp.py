"""Integer-metric belief propagation over the full staircase Tanner graph.

Log-likelihood ratios are quantized to integers on one fixed grid, scaled
by 2**DEFAULT_Q and clipped to +-DEFAULT_S_MAX; the convention for stored
values is that positive favors bit 1.
Internally the decoder negates everything so that the textbook check-node
rule applies without degree-dependent sign flips. The check-node rule is
the sum-product rule's pairwise reduction on that grid: the signed minimum
of the two inputs plus a small integer correction table.

BP has one entry: side_info_pass, which runs one pass of the joint decoder
on a SideInfoFrame. The frame holds a frame's side information and parity
and the messages its passes share; the first pass starts cold, and later
ones continue from the messages. The pass builds the channel values from
y, z and alpha itself. bp_decode is the first pass of a new frame, reported
as a DecodeOutcome. Each backend has one BP loop, bp_run in _kernels.c and
_bp_loop here, called only by that backend's pass; both take the code's
matrix, the messages in its padded edge layout, updated in place, and
output buffers for the hard bits and the posterior. Messages take no other
form: the row-major edge order is only that of SparseParityMatrix.rows and
the alist.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native
from .codes import SparseParityMatrix, _is_int, _is_real
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
_ITERS_LIMIT = 2**31 - 1  # the compiled loop counts rounds in an int32


@dataclass
class LlrqVector:
    """Quantized LLRs for all n bits: scaled by 2**DEFAULT_Q, magnitudes
    <= DEFAULT_S_MAX."""

    values: np.ndarray
    k: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.dtype != np.int32:  # convert only what int32 holds exactly
            with np.errstate(invalid="ignore"):  # NaN and inf then compare unequal
                out = arr.astype(np.int32) if arr.dtype.kind in "biuf" else None
            if out is None or not np.array_equal(out, arr):
                raise ValueError("LLR values must be integers in the int32 range")
            arr = out
        if arr.ndim != 1:
            raise ValueError("LLR vector must be one-dimensional")
        if arr.size and max(-int(arr.min()), int(arr.max())) > DEFAULT_S_MAX:
            raise ValueError(f"LLR magnitudes must not exceed s_max={DEFAULT_S_MAX}")
        self.values = arr


@dataclass
class DecodeOutcome:
    """Result of one cold belief-propagation run: the hard decisions, the
    clipped posterior (stored sign), the rounds run and whether the hard
    decisions satisfy every check. A run that must continue from its
    messages is made on a SideInfoFrame instead."""

    hard_bits: np.ndarray
    posterior: LlrqVector
    iterations_used: int
    syndrome_ok: bool


def quantize_llr(l: float) -> int:
    """Map a real LLR to the decoder's grid: floor(2**DEFAULT_Q * l + 0.5),
    clipped to +-DEFAULT_S_MAX."""
    # The bounds test, unlike math.isfinite, keeps a finite np.longdouble past
    # a float's range; ldexp scales as a float, where numpy's scalar multiply
    # would warn on overflow.
    try:
        if _is_real(l) and -math.inf < l < math.inf:
            grid = math.floor(math.ldexp(l, DEFAULT_Q) + 0.5)
            return max(-DEFAULT_S_MAX, min(DEFAULT_S_MAX, grid))
    except OverflowError:  # a finite l that a float, or 2**DEFAULT_Q * l, cannot hold
        return DEFAULT_S_MAX if l > 0 else -DEFAULT_S_MAX
    raise ValueError(f"LLR must be a finite real number, got {l!r}")


def make_correction_table() -> np.ndarray:
    """The decoder's integer correction term on its grid, q = DEFAULT_Q:
    t[u] = round(2**q * ln(1 + exp(-u / 2**q))).

    The table ends at the first zero entry; its length stays within 8 * 2**q.
    """
    scale = float(2**DEFAULT_Q)
    out = []
    u = 0
    while True:
        val = math.floor(scale * math.log1p(math.exp(-u / scale)) + 0.5)
        if val == 0:
            break
        out.append(val)
        u += 1
    return np.asarray(out, dtype=np.int32)


# the decoder's table, with one trailing zero so clipped lookups land on
# "no correction"
_TABLE = np.append(make_correction_table(), np.int32(0))


def init_from_side_info(y, z, alpha: float) -> LlrqVector:
    """Build the decoder's starting LLRs from side information and parity.

    Systematic positions get the quantized LLR (2*y - 1) * |alpha|, so the
    favored value is always y itself; parity positions are known exactly and
    saturate to (2*z - 1) * DEFAULT_S_MAX.
    """
    y = as_bit_array(y, np.asarray(y).size, "side information")
    z = as_bit_array(z, np.asarray(z).size, "parity block")
    if not (_is_real(alpha) and abs(alpha) < math.inf):  # an int too large for a float is finite too
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    a = abs(alpha)
    return LlrqVector(_channel_values(y, z, quantize_llr(a), quantize_llr(-a)), k=int(y.size))


def _channel_values(y, z, level1, level0) -> np.ndarray:
    """The stored channel values of a frame, as int32: level1 where the
    bit array y is 1 and level0 where it is 0, then +-DEFAULT_S_MAX on the
    parity bits as the bit array z says. side_info_pass in _kernels.c
    builds the same values."""
    values = np.empty(y.size + z.size, dtype=np.int32)
    values[: y.size] = np.where(y, level1, level0)
    values[y.size :] = np.where(z, DEFAULT_S_MAX, -DEFAULT_S_MAX)
    return values


def hard_syndrome(h: SparseParityMatrix, bits) -> np.ndarray:
    """Parity of every check for a full hard-decision word of length n."""
    bits = as_bit_array(bits, h.n_cols, "codeword")
    return h.row_parity(np.append(bits, np.uint8(0)))


def _box_table(a, b, table, tmax):
    mag = np.minimum(np.abs(a), np.abs(b))
    out = np.sign(a) * np.sign(b) * mag
    out += table[np.minimum(np.abs(a + b), tmax)]
    out -= table[np.minimum(np.abs(a - b), tmax)]
    return out


def _pad(h: SparseParityMatrix) -> int:
    """The value a BP run on h keeps on its pads, given _TABLE."""
    # Pads hold a box-plus identity P: box(x, P) == x for every x a scan can
    # hold. Reductions of real messages stay within X = max(s_max, table[0]);
    # P >= X + tmax + 1 keeps |x +- P| > tmax, where no correction applies,
    # also after a row's pads are reduced with each other, which lowers P by
    # at most table[0] per step. On the fixed grid P = 10023 + 6 d_max.
    tmax = _TABLE.size - 1
    return max(DEFAULT_S_MAX, int(_TABLE[0])) + tmax + 1 + h.cols.shape[0] * int(_TABLE[0])


def _check_iters(max_iters: int, name: str, low: int = 0) -> None:
    if not _is_int(max_iters):
        raise ValueError(f"{name} must be an integer, got {max_iters!r}")
    if not low <= max_iters <= _ITERS_LIMIT:
        raise ValueError(f"{name} must be >= {low} and <= {_ITERS_LIMIT}, got {max_iters}")


def bp_decode(
    h: SparseParityMatrix, y, z, alpha: float, max_local_iters: int = 50
) -> DecodeOutcome:
    """Flooding-schedule decoding of side information y and parity block z
    at the correlation log-odds alpha, from a cold start: the first
    side_info_pass, of at most max_local_iters rounds, on a new
    SideInfoFrame(h, y, z), with the frame's hard bits and posterior.

    The run starts from the channel values of init_from_side_info(y, z,
    alpha) alone, with every message zero. Each round updates every check
    node and then every bit node; hard decisions are bit = 1 iff the
    posterior is positive (ties resolve to 0). The run stops as soon as the
    hard decisions satisfy every check, so a clean starting point reports
    zero iterations. To continue BP from the messages, run side_info_pass on
    a SideInfoFrame.
    """
    frame = SideInfoFrame(h, y, z)
    out = side_info_pass(frame, alpha, max_local_iters)
    return DecodeOutcome(
        hard_bits=frame.hard_bits,
        posterior=LlrqVector(frame.posterior, k=h.k),
        iterations_used=out.iterations_used,
        syndrome_ok=out.syndrome_ok,
    )


class PassOutcome(NamedTuple):
    """One side_info_pass: its rounds, whether the hard decisions satisfy
    every check, whether their parity bits equal z, and how many of their
    systematic bits differ from y."""

    iterations_used: int
    syndrome_ok: bool
    parity_ok: bool
    disagreements: int


class SideInfoFrame:
    """One frame's side information y and parity block z, and the buffers
    the BP passes that decode it share.

    The passes continue from one set of check-to-variable messages, kept in
    the padded edge layout of h.cols; the first pass starts cold. hard_bits and
    posterior (stored sign) hold the last pass's n values and are overwritten
    by the next pass. y and z are checked once, here, to be k and m bits,
    and kept as encoding.as_bit_array returns them (y as the frame's y); the
    passes only read them. The compiled kernels are picked once, when the
    frame is made.
    """

    def __init__(self, h: SparseParityMatrix, y, z):
        z = as_bit_array(z, h.m, "parity block")
        self.y = y = as_bit_array(y, h.k, "side information")
        self.c2v = np.zeros(h.cols.shape, dtype=np.int32)
        self.hard_bits = np.empty(h.n_cols, dtype=np.uint8)
        self.posterior = np.empty(h.n_cols, dtype=np.int32)
        args = (h, y, z, DEFAULT_S_MAX, _pad(h), _TABLE, self.c2v, self.hard_bits,
                self.posterior)
        dll = _native.lib()
        self.run = (
            functools.partial(_pass_numpy, *args) if dll is None
            else _native.SideInfoPass(dll, *args)
        )


def side_info_pass(frame: SideInfoFrame, alpha: float, max_iters: int) -> PassOutcome:
    """One BP pass of frame at the correlation log-odds alpha.

    The systematic channel values are those of init_from_side_info: the
    quantized LLR (2*y - 1) * |alpha|; the parity bits saturate to
    (2*z - 1) * DEFAULT_S_MAX. The pass runs at most max_iters rounds, which
    must lie in [0, 2**31 - 1], continuing from the frame's messages, and
    leaves its hard decisions and posterior in the frame.
    """
    _check_iters(max_iters, "max_iters")
    if not _is_real(alpha):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    a = abs(alpha)
    return PassOutcome(*frame.run(quantize_llr(a), quantize_llr(-a), max_iters))


def _bp_loop(h, llr, s_max, pad, table, max_iters, c2v, bits, posterior):
    """The numpy flooding loop, with the arguments and results of bp_run in
    _kernels.c; _pass_numpy is its one caller. c2v holds the starting
    messages in the padded layout, whose pad entries are never read, and
    receives the last round's; bits and posterior receive the hard decisions
    and the clipped posterior (stored sign). Returns (iterations,
    syndrome_ok)."""
    tmax = table.size - 1

    def box(a, b):
        return _box_table(a, b, table, tmax)

    d_max = h.cols.shape[0]
    pad = np.int32(pad)
    # internal domain: positive favors bit 0; entry n is the sentinel column
    lam0 = np.append(-llr.astype(np.int64), 0)
    pads = ~h.valid

    def variable_pass():
        # float64 column sums are exact: each is at most d_v * s_max << 2**53
        col_sum = np.bincount(h.cols.ravel(), weights=c2v.ravel(), minlength=lam0.size)
        tot = lam0 + col_sum.astype(np.int64)
        tot[-1] = 0  # the sentinel collects the pads' messages; it must read as bit 0
        v2c = np.clip(tot[h.cols] - c2v, -s_max, s_max).astype(np.int32)
        v2c[pads] = pad
        return tot, v2c

    tot, v2c = variable_pass()
    iterations = 0
    ok = not h.row_parity((tot < 0).astype(np.uint8)).any()
    if not ok:
        for iterations in range(1, max_iters + 1):
            # exclusive scans: left[t] reduces a row's messages before t, right[t] after t
            left = np.full_like(v2c, pad)
            for t in range(1, d_max):
                left[t] = box(left[t - 1], v2c[t - 1])
            right = np.full_like(v2c, pad)
            for t in range(d_max - 2, -1, -1):
                right[t] = box(right[t + 1], v2c[t + 1])
            c2v[...] = np.clip(box(left, right), -s_max, s_max)
            tot, v2c = variable_pass()
            if not h.row_parity((tot < 0).astype(np.uint8)).any():
                ok = True
                break
    bits[:] = tot[:-1] < 0
    posterior[:] = np.clip(-tot[:-1], -s_max, s_max)
    return iterations, bool(ok)


def _pass_numpy(h, y, z, s_max, pad, table, c2v, bits, posterior, level1, level0, max_iters):
    """side_info_pass in numpy, with _native.SideInfoPass's arguments and results."""
    k = h.k
    llr = _channel_values(y, z, level1, level0)
    iterations, ok = _bp_loop(h, llr, s_max, pad, table, max_iters, c2v, bits, posterior)
    return (iterations, ok, bool(np.array_equal(bits[k:], z)),
            int(np.count_nonzero(bits[:k] != y)))
