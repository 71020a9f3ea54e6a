"""Systematic encoding: only the parity block is ever transmitted.

The staircase makes encoding a single forward pass: row i's parity bit is
the XOR of its systematic entries and the previous parity bit, so the whole
block is the prefix-XOR of the per-row systematic parities. Cost is linear
in the number of ones in the matrix.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .codes import CodeSpec, SparseParityMatrix

__all__ = ["encode", "compression_rate"]


def as_bit_array(bits, length: int, name: str) -> np.ndarray:
    """Validate and convert a bit sequence to a uint8 array of given length."""
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size != length:
        raise ValueError(f"{name} must be a flat sequence of {length} bits, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0s and 1s")
    return arr.astype(np.uint8)


def encode(h: SparseParityMatrix, x) -> np.ndarray:
    """Compress source block x to its parity block z of length n - k.

    z[0] is the parity of row 0's systematic entries; each later z[i] adds
    row i's systematic parity onto z[i-1] (all mod 2). The loop runs in the
    compiled kernel when swldpc.backend() is "c" and in numpy otherwise.
    """
    x = as_bit_array(x, h.k, "source block")
    dll = _native.lib()
    return _encode_numpy(h, x) if dll is None else _native.encode(dll, h, x)


def _encode_numpy(h: SparseParityMatrix, x: np.ndarray) -> np.ndarray:
    """encode in numpy, with _native.encode's arguments and result."""
    x_ext = np.zeros(h.n_cols + 1, dtype=np.uint8)  # parity columns read 0
    x_ext[: h.k] = x
    return (np.cumsum(h.row_parity(x_ext)) & 1).astype(np.uint8)


def compression_rate(spec: CodeSpec) -> float:
    """Parity bits per source bit, (n - k) / k."""
    return (spec.n - spec.k) / spec.k
