"""Two-stage decoding: belief propagation wrapped in a correlation-tracking loop.

The decoder does not know the realized flip probability between the source
and the side information. It starts from the design value, decodes, measures
the disagreement between the reconstruction and the side information, and
repeats with the refreshed log-odds until a pass decodes, the estimate moves
by less than 1e-4, or the global-iteration cap is reached.

Each global iteration continues belief propagation from the messages the
previous one ended with, so the local-iteration budget accumulates across
global iterations instead of restarting from the channel values. After a pass
that decodes the parity exactly, the estimate is the exact disagreement count
of its hard decisions; after a failed pass, whose hard decisions are biased
towards the side information, it is the posterior expectation of that count.
The first pass that decodes exactly ends the loop: its estimate is the exact
count, so another pass has nothing left to track.

The static baseline, the decoder that does not use the knowledge that the
correlation exists, is this loop stopped after its first pass:
non_iterative_decode is joint_decode with max_global=1.

Each pass is one bp.side_info_pass over a bp.SideInfoFrame made once per
decode: under the compiled backend a single call, free of the interpreter
lock, builds the channel values, runs BP, checks the parity bits against z
and counts the disagreements with y. The frame keeps the messages between
passes in the padded edge layout the code's matrix is stored in. Python
computes the quantized channel levels and the estimates, and reads the
posterior only after a failed pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bp import (
    DEFAULT_Q,
    LlrqVector,
    SideInfoFrame,
    _check_iters,
    side_info_pass,
)
from .codes import SparseParityMatrix, _is_real
from .encoding import as_bit_array

__all__ = [
    "ALPHA_TOLERANCE",
    "GlobalIterationRecord",
    "CorrelationState",
    "JointDecodeResult",
    "initial_alpha",
    "estimate_alpha",
    "estimate_alpha_posterior",
    "joint_decode",
    "non_iterative_decode",
]

ALPHA_TOLERANCE = 1e-4


@dataclass
class GlobalIterationRecord:
    """One global iteration: its estimate and whether decoding converged."""

    index: int
    alpha: float
    p_hat: float
    syndrome_ok: bool


@dataclass
class CorrelationState:
    """Current correlation estimate: log-odds alpha = ln(p_hat / (1 - p_hat))."""

    alpha: float
    p_hat: float
    trace: list = field(default_factory=list)


@dataclass
class JointDecodeResult:
    """Reconstruction of the k source bits plus convergence bookkeeping."""

    x_hat: np.ndarray
    success: bool
    global_iters_used: int
    local_iters_total: int
    final_state: CorrelationState


def initial_alpha(design_p: float) -> float:
    """Log-odds of the design flip probability; negative for design_p < 0.5."""
    if not (_is_real(design_p) and 0.0 < design_p < 0.5):
        raise ValueError(f"design_p must lie in (0, 0.5), got {design_p}")
    return math.log(design_p / (1.0 - design_p))


def estimate_alpha(x_hat, y) -> CorrelationState:
    """Empirical correlation between a tentative reconstruction and y.

    The disagreement count is clamped to [1, k-1] so the log-odds stay
    finite. alpha is computed as log(w) - log(k - w), which makes the
    estimate exactly antisymmetric in w <-> k - w.
    """
    x_hat = np.asarray(x_hat)
    y = as_bit_array(y, x_hat.size, "side information")
    x_hat = as_bit_array(x_hat, y.size, "reconstruction")
    _check_two_bits(y.size)
    return _log_odds(int(np.count_nonzero(x_hat ^ y)), y.size)


def estimate_alpha_posterior(posterior: LlrqVector, y) -> CorrelationState:
    """Expected correlation between the source and y under a BP posterior.

    The expected disagreement count w = sum_i P(x_i != y_i) is read from the
    first y.size posterior LLRs (positive favors bit 1, scaled by
    2**DEFAULT_Q). As in estimate_alpha, w is clamped to [1, k-1] and
    alpha = log(w) - log(k - w).
    """
    y = as_bit_array(y, np.asarray(y).size, "side information")
    _check_two_bits(y.size)
    if posterior.values.size < y.size:
        raise ValueError(f"posterior has {posterior.values.size} values for k={y.size}")
    return _posterior_estimate(posterior.values, y)


def _check_two_bits(k: int) -> None:
    if k < 2:
        raise ValueError("need at least two bits to estimate a flip rate")


def _log_odds(w, k: int) -> CorrelationState:
    w = min(max(w, 1), k - 1)
    return CorrelationState(alpha=math.log(w) - math.log(k - w), p_hat=w / k)


def _posterior_estimate(values: np.ndarray, y: np.ndarray) -> CorrelationState:
    """estimate_alpha_posterior on posterior LLRs values and a checked 0/1
    array y of length k >= 2, at most len(values)."""
    k = y.size
    llr = values[:k] / float(2**DEFAULT_Q)
    # P(x_i != y_i) = 1 / (1 + exp(+-llr)), written with tanh to stay finite
    return _log_odds(float(np.sum(0.5 - 0.5 * np.tanh(0.5 * (2.0 * y - 1.0) * llr))), k)


def joint_decode(
    h: SparseParityMatrix,
    z,
    y,
    design_p: float,
    max_global: int = 5,
    max_local: int = 50,
) -> JointDecodeResult:
    """Decode the source bits from parity z and side information y.

    Each global iteration runs belief propagation seeded with the current
    correlation log-odds, continuing from the messages the previous global
    iteration ended with, then re-estimates the log-odds from the result. A
    pass decodes when its hard decisions satisfy every check and reproduce
    the received parity exactly; its estimate is then the exact disagreement
    count with y. After a pass that does not decode, the estimate is the
    posterior expectation of that count (estimate_alpha_posterior), because
    the hard decisions of a failed pass lean towards y.

    The loop returns at the first pass that decodes. A run of passes that do
    not decode ends when the estimate moves by less than ALPHA_TOLERANCE or
    at max_global. The result is the last pass run: success is True exactly
    when it decoded, and final_state holds its estimate and the trace of
    every pass. max_global must lie in [1, 2**31 - 1], max_local in [0, 2**31 - 1].
    """
    frame = SideInfoFrame(h, y, z)
    _check_two_bits(h.k)
    _check_iters(max_global, "max_global", 1)
    _check_iters(max_local, "max_local")
    alpha = initial_alpha(design_p)

    trace: list[GlobalIterationRecord] = []
    local_total = 0
    for i in range(1, max_global + 1):
        out = side_info_pass(frame, alpha, max_local)
        local_total += out.iterations_used
        decoded = out.syndrome_ok and out.parity_ok
        if decoded:
            est = _log_odds(out.disagreements, h.k)
        else:
            est = _posterior_estimate(frame.posterior, frame.y)
        trace.append(
            GlobalIterationRecord(
                index=i, alpha=est.alpha, p_hat=est.p_hat, syndrome_ok=out.syndrome_ok
            )
        )
        if decoded or abs(est.alpha - alpha) < ALPHA_TOLERANCE:
            break
        alpha = est.alpha

    return JointDecodeResult(
        x_hat=frame.hard_bits[: h.k].copy(),
        success=decoded,
        global_iters_used=len(trace),
        local_iters_total=local_total,
        final_state=CorrelationState(alpha=est.alpha, p_hat=est.p_hat, trace=trace),
    )


def non_iterative_decode(
    h: SparseParityMatrix,
    z,
    y,
    design_p: float,
    max_local: int = 50,
) -> JointDecodeResult:
    """The static baseline: joint_decode's first pass, at the design log-odds.

    This is the decoder that does not track the correlation. A failed pass
    reports joint_decode's posterior estimate.
    """
    return joint_decode(h, z, y, design_p, max_global=1, max_local=max_local)
