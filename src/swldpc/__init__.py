"""Slepian-Wolf compression of correlated binary sources.

One source is compressed to a short parity block of a staircase LDPC code;
the decoder reconstructs it from that block plus a correlated side-information
sequence, estimating the actual correlation while it iterates.
"""

from ._native import backend
from .codes import (
    CODE_REGISTRY,
    AlistFormatError,
    CodeSpec,
    ConstructionError,
    SparseParityMatrix,
    build_code,
    get_code_spec,
    load_alist,
    save_alist,
)
from .encoding import compression_rate, encode
from .bp import (
    DEFAULT_Q,
    DEFAULT_S_MAX,
    DecodeOutcome,
    LlrqVector,
    bp_decode,
    hard_syndrome,
    init_from_side_info,
    make_correction_table,
    quantize_llr,
)
from .joint import (
    ALPHA_TOLERANCE,
    CorrelationState,
    GlobalIterationRecord,
    JointDecodeResult,
    estimate_alpha,
    estimate_alpha_posterior,
    initial_alpha,
    joint_decode,
    non_iterative_decode,
)
from .sources import (
    CorrelationConfig,
    FramePair,
    binary_entropy,
    generate_pair,
    sw_limits,
)
from .sweep import (
    CSV_COLUMNS,
    CodeSummary,
    FrameResult,
    PointReport,
    SweepConfig,
    SweepReport,
    emit_report,
    run_sweep,
)

__version__ = "0.1.0"
