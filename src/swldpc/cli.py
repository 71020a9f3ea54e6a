"""Command-line front end: design, encode, decode, simulate, sweep.

Bit files hold packed frames: each frame occupies ceil(bits/8) bytes, most
significant bit first, zero-padded at the end. Parity files carry a 16-byte
header (magic, k, n, code hash) so a decoder can refuse mismatched inputs.
Exit codes: 0 success, 1 decode failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import io
import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .bp import KERNELS
from .codes import CodeSpec, SparseParityMatrix, build_code, load_alist, save_alist
from .encoding import encode
from .joint import joint_decode, non_iterative_decode
from .sources import CorrelationConfig, generate_pair
from .sweep import SweepConfig, emit_report, run_sweep

__all__ = ["main", "entry", "PARITY_MAGIC"]

PARITY_MAGIC = b"SWZ1"
_HEADER = struct.Struct("<4sIII")  # magic, k, n, crc32 of canonical alist text


def code_content_hash(h: SparseParityMatrix) -> int:
    buf = io.StringIO()
    save_alist(h, buf)
    return zlib.crc32(buf.getvalue().encode())


def _frame_bytes(bits: int) -> int:
    return (bits + 7) // 8


def _read_bit_frames(path: str, bits_per_frame: int, fmt: str) -> np.ndarray:
    raw = Path(path).read_bytes()
    if fmt == "hex":
        try:
            raw = bytes.fromhex(raw.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise ValueError(f"{path}: not valid hex text") from None
    per = _frame_bytes(bits_per_frame)
    if len(raw) == 0 or len(raw) % per != 0:
        raise ValueError(
            f"{path}: size {len(raw)} is not a multiple of {per} bytes per {bits_per_frame}-bit frame"
        )
    frames = len(raw) // per
    data = np.frombuffer(raw, dtype=np.uint8).reshape(frames, per)
    return np.unpackbits(data, axis=1)[:, :bits_per_frame]


def _write_bit_frames(path: str, frames: np.ndarray, fmt: str) -> None:
    packed = np.packbits(frames.astype(np.uint8), axis=1)
    raw = packed.tobytes()
    if fmt == "hex":
        Path(path).write_text(raw.hex())
    else:
        Path(path).write_bytes(raw)


# -- subcommands --------------------------------------------------------------


def _cmd_design(args) -> int:
    spec = CodeSpec(
        id=args.id,
        k=args.k,
        n=args.n,
        dv_target=args.dv,
        design_p=args.design_p,
    )
    h = build_code(spec, seed=args.seed)
    save_alist(h, args.output)
    print(f"wrote {args.output}: k={h.k} n={h.n} rate_x={h.m / h.k:.4f}")
    return 0


def _cmd_encode(args) -> int:
    h = load_alist(args.code)
    x = _read_bit_frames(args.infile, h.k, args.format)
    z = np.stack([encode(h, frame) for frame in x])
    header = _HEADER.pack(PARITY_MAGIC, h.k, h.n, code_content_hash(h))
    packed = np.packbits(z, axis=1).tobytes()
    Path(args.output).write_bytes(header + packed)
    print(f"encoded {x.shape[0]} frame(s): {h.k} -> {h.m} bits each")
    return 0


def _read_parity(path: str, h: SparseParityMatrix) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: too short for a parity header")
    magic, k, n, digest = _HEADER.unpack_from(raw)
    if magic != PARITY_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if (k, n) != (h.k, h.n):
        raise ValueError(f"{path}: parity is for k={k}, n={n}, code has k={h.k}, n={h.n}")
    if digest != code_content_hash(h):
        raise ValueError(f"{path}: parity was produced with a different code")
    body = raw[_HEADER.size :]
    per = _frame_bytes(h.m)
    if len(body) == 0 or len(body) % per != 0:
        raise ValueError(f"{path}: parity body size {len(body)} not a multiple of {per}")
    data = np.frombuffer(body, dtype=np.uint8).reshape(-1, per)
    return np.unpackbits(data, axis=1)[:, : h.m]


def _cmd_decode(args) -> int:
    h = load_alist(args.code)
    z_frames = _read_parity(args.parity, h)
    y_frames = _read_bit_frames(args.side_info, h.k, args.format)
    if z_frames.shape[0] != y_frames.shape[0]:
        raise ValueError(
            f"frame count mismatch: {z_frames.shape[0]} parity vs {y_frames.shape[0]} side-info"
        )
    design_p = args.design_p if args.design_p is not None else h.design_p
    if design_p is None:
        raise ValueError("no design flip probability: pass --design-p or use an alist that records one")

    out = np.empty((z_frames.shape[0], h.k), dtype=np.uint8)
    traces = []
    failures = 0
    for i, (z, y) in enumerate(zip(z_frames, y_frames)):
        if args.no_global_iter:
            res = non_iterative_decode(
                h, z, y, design_p, max_local=args.max_local, kernel=args.kernel
            )
        else:
            res = joint_decode(
                h, z, y, design_p,
                max_global=args.max_global, max_local=args.max_local, kernel=args.kernel,
            )
        out[i] = res.x_hat
        if not res.success:
            failures += 1
        traces.append(
            {
                "frame": i,
                "success": res.success,
                "trace": [
                    {
                        "iteration": r.index,
                        "alpha": r.alpha,
                        "p_hat": r.p_hat,
                        "syndrome_ok": r.syndrome_ok,
                    }
                    for r in res.final_state.trace
                ],
            }
        )
    _write_bit_frames(args.output, out, args.format)
    if args.trace:
        Path(args.trace).write_text(json.dumps(traces, indent=2) + "\n")
    if failures:
        print(f"decode FAILED on {failures}/{z_frames.shape[0]} frame(s)", file=sys.stderr)
        return 1
    print(f"decoded {z_frames.shape[0]} frame(s) ok")
    return 0


def _cmd_simulate(args) -> int:
    cfg = CorrelationConfig(mean_p=args.mean_p, delta_p=args.delta_p, seed=args.seed)
    xs = np.empty((args.frames, args.k), dtype=np.uint8)
    ys = np.empty_like(xs)
    actual = []
    for i in range(args.frames):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, i)))
        pair = generate_pair(args.k, cfg, rng=rng)
        xs[i], ys[i] = pair.x, pair.y
        actual.append(pair.actual_p)
    prefix = args.output
    _write_bit_frames(f"{prefix}.x.bin", xs, "bin")
    _write_bit_frames(f"{prefix}.y.bin", ys, "bin")
    meta = {
        "k": args.k,
        "frames": args.frames,
        "mean_p": args.mean_p,
        "delta_p": args.delta_p,
        "seed": args.seed,
        "actual_p": actual,
    }
    Path(f"{prefix}.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {prefix}.x.bin, {prefix}.y.bin, {prefix}.json")
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(Path(args.config).read_text())
    report = run_sweep(cfg, workers=args.workers)
    json_path = args.json if args.json else None
    emit_report(report, csv_path=args.output, json_path=json_path)
    print(f"wrote {args.output}" + (f" and {json_path}" if json_path else ""))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swldpc",
        description="Slepian-Wolf compression with staircase LDPC codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="construct a code and write it as an alist file")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--dv", type=float, required=True, help="mean systematic column weight")
    d.add_argument("--design-p", type=float, required=True, dest="design_p")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--id", default="custom")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_cmd_design)

    e = sub.add_parser("encode", help="compress source frames to a parity stream")
    e.add_argument("--code", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out", dest="output", required=True)
    e.add_argument("--format", choices=["bin", "hex"], default="bin")
    e.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct source frames from parity + side info")
    dec.add_argument("--code", required=True)
    dec.add_argument("--parity", required=True)
    dec.add_argument("--side-info", dest="side_info", required=True)
    dec.add_argument("--out", dest="output", required=True)
    dec.add_argument("--design-p", type=float, default=None, dest="design_p")
    dec.add_argument("--max-global", type=int, default=5)
    dec.add_argument("--max-local", type=int, default=50)
    dec.add_argument("--kernel", choices=KERNELS, default="table")
    dec.add_argument("--no-global-iter", action="store_true")
    dec.add_argument("--trace", default=None, help="write per-frame estimate traces as JSON")
    dec.add_argument("--format", choices=["bin", "hex"], default="bin")
    dec.set_defaults(func=_cmd_decode)

    s = sub.add_parser("simulate", help="draw correlated source/side-info frames")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--mean-p", type=float, required=True, dest="mean_p")
    s.add_argument("--delta-p", type=float, default=0.0, dest="delta_p")
    s.add_argument("--frames", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", required=True, help="output path prefix")
    s.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a JSON config")
    sw.add_argument("--config", required=True)
    sw.add_argument("-o", "--output", required=True, help="CSV report path")
    sw.add_argument("--json", default=None, help="also write the full JSON report")
    sw.add_argument("--workers", type=int, default=1)
    sw.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse and construction errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
