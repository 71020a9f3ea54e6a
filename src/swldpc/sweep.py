"""Monte-Carlo rate/distortion sweeps with deterministic, worker-safe seeding.

Every frame's random stream is derived solely from (seed, code index, point
index, frame index), and frames are tallied in index order with a fixed
chunk size, so reports are byte-identical no matter how many workers run.
Wall-clock timing is kept out of the CSV for the same reason; it appears in
the JSON report only.

The calling thread draws each chunk's frames (source pair and parity), and
the workers only decode them, one frame per task: the draw is many short
numpy calls, each of which would hand the GIL between threads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bp import KERNELS, _check_iters
from .codes import CODE_REGISTRY, SparseParityMatrix, _is_int, _is_real, build_code, load_alist
from .encoding import encode
from .joint import joint_decode
from .sources import CorrelationConfig, binary_entropy, generate_pair

__all__ = [
    "SweepConfig",
    "FrameResult",
    "PointReport",
    "CodeSummary",
    "SweepReport",
    "run_sweep",
    "emit_report",
    "CSV_COLUMNS",
    "REFERENCE_TOTAL_RATES",
]

# Published total-rate baselines (compressed source + side information, bits
# per source bit) at matching flip probabilities, used by demos for context.
REFERENCE_TOTAL_RATES = {
    "punctured_turbo": {0.025: 1.31, 0.05: 1.435, 0.1: 1.63},
    "syndrome_ldpc": {0.025: 1.276, 0.05: 1.402, 0.1: 1.60},
}

_CHUNK = 32  # frames evaluated per scheduling round, independent of workers

_INT_FIELDS = ("frames", "error_frame_target", "max_local", "max_global", "seed", "build_seed")


CSV_COLUMNS = [
    "code",
    "mean_p",
    "delta_p",
    "joint_entropy",
    "joint_entropy_realized",
    "frames",
    "bit_errs",
    "frame_errs",
    "ber",
    "fer",
    "mean_global_iters",
    "mean_local_iters",
    "reached_error_target",
]


@dataclass
class SweepConfig:
    """One sweep: codes x correlation points, a frame budget per point.

    codes may hold registry ids or alist file paths. decoder selects the
    correlation-tracking decoder ("joint") or the static baseline
    ("non_iterative", its first pass alone), so an A/B comparison is two
    sweeps sharing a seed (frames are then identical).
    error_frame_target stops a point early once that many erroneous frames
    have been counted; ber_target is recorded and flagged per point.
    """

    codes: list
    points: list
    frames: int
    error_frame_target: int = 30
    ber_target: float = 1e-6
    max_local: int = 50
    max_global: int = 5
    kernel: str = "table"
    decoder: str = "joint"
    seed: int = 0
    build_seed: int = 0
    record_frames: bool = False

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _is_real(self.ber_target) or self.ber_target != self.ber_target:  # or NaN
            raise ValueError(f"ber_target must be a number, got {self.ber_target!r}")
        if not isinstance(self.record_frames, bool):
            raise ValueError(f"record_frames must be true or false, got {self.record_frames!r}")
        if not isinstance(self.codes, (list, tuple)) or not all(
            isinstance(c, (str, os.PathLike)) for c in self.codes
        ):
            raise ValueError(f"codes must be a list of registry ids or alist paths, got {self.codes!r}")
        self.codes = [os.fsdecode(c) for c in self.codes]  # paths as str, which JSON holds
        if not isinstance(self.points, (list, tuple)) or not all(
            isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_real, pt))
            for pt in self.points
        ):
            raise ValueError(f"points must be a list of [mean_p, delta_p] pairs, got {self.points!r}")
        if self.frames < 0:
            raise ValueError(f"frame budget must be >= 0, got {self.frames}")
        if self.seed < 0 or self.build_seed < 0:
            raise ValueError("seed and build_seed must be >= 0")
        if not self.points:
            raise ValueError("sweep needs at least one (mean_p, delta_p) point")
        if not self.codes:
            raise ValueError("sweep needs at least one code")
        if self.decoder not in ("joint", "non_iterative"):
            raise ValueError(f"decoder must be 'joint' or 'non_iterative', got {self.decoder!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        _check_iters(self.max_local, "max_local", 1)
        _check_iters(self.max_global, "max_global", 1)
        if self.error_frame_target < 1:
            raise ValueError("error_frame_target must be >= 1")
        try:
            self.points = [(float(p), float(d)) for p, d in self.points]
        except OverflowError:  # an integer too large for a float
            raise ValueError("sweep points must be numbers a float can hold") from None
        for mean_p, delta_p in self.points:
            CorrelationConfig(mean_p=mean_p, delta_p=delta_p)  # reuse its validation

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"sweep config must be a JSON object, got {type(raw).__name__}")
        fields = dataclasses.fields(cls)
        extra = set(raw) - {f.name for f in fields}
        if extra:
            raise ValueError(f"unknown sweep config fields: {sorted(extra)}")
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in raw]
        if missing:
            raise ValueError(f"missing sweep config fields: {missing}")
        return cls(**raw)


@dataclass
class FrameResult:
    """Outcome of one frame: error counts against the true source bits."""

    frame_index: int
    actual_p: float
    bit_errors: int
    success: bool
    global_iters: int
    local_iters: int


@dataclass
class PointReport:
    code: str
    mean_p: float
    delta_p: float
    joint_entropy: float
    joint_entropy_realized: float
    frames: int
    bit_errs: int
    frame_errs: int
    ber: float
    fer: float
    mean_global_iters: float
    mean_local_iters: float
    reached_error_target: bool
    ber_target_met: bool
    wall_seconds: float
    frame_results: list | None = None


@dataclass
class CodeSummary:
    """One code of a sweep. setup_seconds is the wall time spent loading or
    building it; like all timing it stays out of the CSV, and reports
    written before it was recorded read back as 0.0."""

    code: str
    k: int
    n: int
    rate_x: float
    total_rate: float
    design_p: float | None
    entropy_limit: float | None
    setup_seconds: float = 0.0


@dataclass
class SweepReport:
    codes: list
    points: list

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        raw = json.loads(text)
        codes = [CodeSummary(**c) for c in raw["codes"]]
        points = []
        for p in raw["points"]:
            frames = p.pop("frame_results", None)
            if frames is not None:
                frames = [FrameResult(**f) for f in frames]
            points.append(PointReport(**p, frame_results=frames))
        return cls(codes=codes, points=points)


def _resolve_code(ref: str, build_seed: int) -> tuple[str, SparseParityMatrix]:
    if ref in CODE_REGISTRY:
        return ref, build_code(CODE_REGISTRY[ref], seed=build_seed)
    path = Path(ref)
    if path.exists():
        return path.stem, load_alist(path)
    raise ValueError(f"code {ref!r} is neither a registry id nor an alist file")


def _draw(h: SparseParityMatrix, corr: CorrelationConfig, key: tuple):
    """One frame's source pair and its parity, from the random stream of its
    key (seed, code index, point index, frame index)."""
    pair = generate_pair(h.k, corr, rng=np.random.default_rng(np.random.SeedSequence(key)))
    return pair, encode(h, pair.x)


def _run_point(
    h: SparseParityMatrix,
    code_id: str,
    cfg: SweepConfig,
    code_index: int,
    point_index: int,
    pool: ThreadPoolExecutor | None,
) -> PointReport:
    mean_p, delta_p = cfg.points[point_index]
    corr = CorrelationConfig(mean_p=mean_p, delta_p=delta_p)
    design_p = h.design_p if h.design_p is not None else mean_p
    max_global = 1 if cfg.decoder == "non_iterative" else cfg.max_global

    def decode_one(drawn):
        pair, z = drawn
        return joint_decode(
            h, z, pair.y, design_p,
            max_global=max_global, max_local=cfg.max_local, kernel=cfg.kernel,
        )

    run = pool.map if pool is not None else map
    start = time.perf_counter()
    results: list[FrameResult] = []
    stopped_early = False
    done = 0
    errs_so_far = 0
    while done < cfg.frames and not stopped_early:
        hi = min(done + _CHUNK, cfg.frames)
        drawn = [_draw(h, corr, (cfg.seed, code_index, point_index, fi)) for fi in range(done, hi)]
        decoded = list(run(decode_one, drawn))
        for fi, (pair, _), res in zip(range(done, hi), drawn, decoded):
            # scan in frame order so early stop is worker-independent
            fr = FrameResult(
                frame_index=fi,
                actual_p=pair.actual_p,
                bit_errors=int(np.count_nonzero(res.x_hat ^ pair.x)),
                success=res.success,
                global_iters=res.global_iters_used,
                local_iters=res.local_iters_total,
            )
            results.append(fr)
            if fr.bit_errors > 0:
                errs_so_far += 1
                if errs_so_far >= cfg.error_frame_target:
                    stopped_early = True
                    break
        done = hi
    wall = time.perf_counter() - start

    frames = len(results)
    bit_errs = sum(fr.bit_errors for fr in results)
    frame_errs = sum(1 for fr in results if fr.bit_errors > 0)
    ber = bit_errs / (frames * h.k) if frames else 0.0
    fer = frame_errs / frames if frames else 0.0
    mean_g = sum(fr.global_iters for fr in results) / frames if frames else 0.0
    mean_l = sum(fr.local_iters for fr in results) / frames if frames else 0.0
    realized = (
        1.0 + binary_entropy(sum(fr.actual_p for fr in results) / frames)
        if frames
        else 1.0 + binary_entropy(mean_p)
    )
    return PointReport(
        code=code_id,
        mean_p=mean_p,
        delta_p=delta_p,
        joint_entropy=1.0 + binary_entropy(mean_p),
        joint_entropy_realized=realized,
        frames=frames,
        bit_errs=bit_errs,
        frame_errs=frame_errs,
        ber=ber,
        fer=fer,
        mean_global_iters=mean_g,
        mean_local_iters=mean_l,
        reached_error_target=frame_errs >= cfg.error_frame_target,
        ber_target_met=ber <= cfg.ber_target,
        wall_seconds=wall,
        frame_results=list(results) if cfg.record_frames else None,
    )


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepReport:
    """Run every (code, point) cell of the sweep and aggregate statistics.

    The calling thread draws every frame of a chunk in frame order; with
    workers > 1 that many threads decode the chunk's frames concurrently, one
    frame per task. Results never depend on the worker count. A zero frame
    budget produces rows with empty tallies.
    """
    if not _is_int(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    code_summaries = []
    point_reports = []
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for ci, ref in enumerate(cfg.codes):
            start = time.perf_counter()
            code_id, h = _resolve_code(ref, cfg.build_seed)
            setup_seconds = time.perf_counter() - start
            rate_x = h.m / h.k
            code_summaries.append(
                CodeSummary(
                    code=code_id,
                    k=h.k,
                    n=h.n,
                    rate_x=rate_x,
                    total_rate=1.0 + rate_x,
                    design_p=h.design_p,
                    entropy_limit=(
                        1.0 + binary_entropy(h.design_p) if h.design_p is not None else None
                    ),
                    setup_seconds=setup_seconds,
                )
            )
            for pi in range(len(cfg.points)):
                point_reports.append(_run_point(h, code_id, cfg, ci, pi, pool))
    finally:
        if pool is not None:
            pool.shutdown()
    return SweepReport(codes=code_summaries, points=point_reports)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: SweepReport, csv_path=None, json_path=None) -> str:
    """Serialize the report; returns the CSV text and optionally writes files.

    The CSV holds one row per sweep point with deterministic formatting.
    The JSON mirror carries everything, including wall-clock timing and any
    per-frame records.
    """
    lines = [",".join(CSV_COLUMNS)]
    for p in report.points:
        row = [_csv_cell(getattr(p, col)) for col in CSV_COLUMNS]
        lines.append(",".join(row))
    csv_text = "\n".join(lines) + "\n"
    if csv_path is not None:
        Path(csv_path).write_text(csv_text)
    if json_path is not None:
        Path(json_path).write_text(report.to_json() + "\n")
    return csv_text
