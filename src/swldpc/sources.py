"""Correlated binary source model and the entropy bounds it is measured against.

Two length-k binary sequences x and y are modelled as a uniform source
observed through a binary symmetric channel whose crossover probability is
drawn once per block: actual_p ~ Uniform[mean_p - delta_p, mean_p + delta_p].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import _is_int, _is_real

__all__ = [
    "CorrelationConfig",
    "FramePair",
    "generate_pair",
    "binary_entropy",
    "sw_limits",
]


@dataclass(frozen=True)
class CorrelationConfig:
    """Block-wise correlation model between a source and its side information.

    mean_p is the long-run average flip probability, delta_p the maximum
    absolute deviation of the per-block draw. The per-block flip probability
    is drawn once per block, uniformly from [mean_p - delta_p, mean_p + delta_p].
    """

    mean_p: float
    delta_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mean_p", "delta_p"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        # NaN fails every comparison, so the range checks below would pass it
        if self.mean_p != self.mean_p or self.delta_p != self.delta_p:
            raise ValueError(
                f"mean_p and delta_p must not be NaN, got {self.mean_p}, {self.delta_p}"
            )
        if not 0.0 < self.mean_p < 0.5:
            raise ValueError(f"mean_p must lie in (0, 0.5), got {self.mean_p}")
        if self.delta_p < 0.0:
            raise ValueError(f"delta_p must be >= 0, got {self.delta_p}")
        if self.mean_p + self.delta_p >= 0.5:
            raise ValueError(
                f"mean_p + delta_p must stay below 0.5, got {self.mean_p + self.delta_p}"
            )
        if self.mean_p - self.delta_p < 0.0:
            raise ValueError(
                f"mean_p - delta_p must not be negative, got {self.mean_p - self.delta_p}"
            )


@dataclass
class FramePair:
    """One source block x, its side information y, and the realized flip rate."""

    x: np.ndarray
    y: np.ndarray
    actual_p: float


def generate_pair(k: int, cfg: CorrelationConfig, rng: np.random.Generator) -> FramePair:
    """Draw one correlated (x, y) block of length k from rng.

    Draw order is fixed, so the block is reproducible from rng's state alone:
    first the per-block flip probability, then x, then the flip pattern. The
    sweep and the simulate command derive one generator per frame from a seed.
    """
    if not _is_int(k) or k <= 0:
        raise ValueError(f"block length k must be a positive integer, got {k!r}")
    actual_p = float(rng.uniform(cfg.mean_p - cfg.delta_p, cfg.mean_p + cfg.delta_p))
    x = rng.integers(0, 2, size=k, dtype=np.uint8)
    flips = (rng.random(k) < actual_p).astype(np.uint8)
    y = x ^ flips
    return FramePair(x=x, y=y, actual_p=actual_p)


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; 0 at p = 0 and p = 1."""
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def sw_limits(p: float) -> dict:
    """Compression limits for decoding x with y known only at the decoder.

    Returns the minimum rate for the compressed source, H(x|y) = H(p) bits
    per source bit, and the total joint rate 1 + H(p) once the side
    information is counted at its own entropy.
    """
    if not (_is_real(p) and 0.0 < p < 0.5):
        raise ValueError(f"flip probability must lie in (0, 0.5), got {p!r}")
    h = binary_entropy(p)
    return {"h_x_given_y": h, "joint": 1.0 + h}
