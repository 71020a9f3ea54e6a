"""swldpc benchmark: throughput, latency and set-up time of the codec.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload d1-design --seed 11 --seconds 55 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. Workloads (see bench/NOTES.md for why each exists):

- ``d1-design``: one caller runs encode -> joint_decode on D1 at p = 0.05;
- ``d2-waterfall``: the same on D2 at mean p = 0.025, delta 0.005, where about
  a quarter of frames fail, many of them after the full iteration cap. It is
  run by hand only and is not listed in BENCHMARK.json;
- ``sweep-2w``: repeated ``run_sweep`` calls of one 32-frame chunk on D1 at
  p = 0.05 with two worker threads.

Every decoded frame is checked against its true source block. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Run metadata (machine,
alist CRC32s, output digests, tail percentile) is printed on the line before
it and written with the spans to ``.bench_out/``. The exit code is 1 when an
output is wrong and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import struct
import sys
import tempfile
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

from layers import ROUND, layer_metrics, median
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPS = 5  # set-up is repeated and its median reported
STRATA = 16  # block size of the stratified per-frame flip probabilities
STREAM_TAG = 0xB3C4  # keeps benchmark inputs apart from the test suites' streams
PROBE_SIZE = 32  # back-to-back encode calls timed after each 32-frame round
PROBE_POOL = 256  # distinct source blocks the encode probe cycles through

WORKLOADS = {
    # prefix: frames (sweep: calls) whose outputs and counts must repeat
    # exactly at one seed; every run completes at least this many.
    # pool: distinct frames drawn before timing, cycled if the run outlasts it;
    # the encode probe uses the first PROBE_POOL, and is all sweep-2w uses.
    # tail_pct: the latency tail reported, the highest of p75/p95/p99 with at
    # least ten samples beyond it in a 30-55 s run; a run continues until it
    # has them. On D2 it lands among frames that run to the iteration cap.
    # D1 takes p95: its p99 is set by frames the host preempts (NOTES.md).
    "d1-design": dict(code="D1", mean_p=0.05, delta_p=0.0, prefix=256, pool=4096,
                      tail_pct=95.0),
    "d2-waterfall": dict(code="D2", mean_p=0.025, delta_p=0.005, prefix=64, pool=512,
                         tail_pct=95.0),
    "sweep-2w": dict(code="D1", mean_p=0.05, delta_p=0.0, prefix=4, pool=PROBE_POOL, workers=2,
                     tail_pct=75.0),
}


def load_package():
    src = ROOT / "src"
    if not (src / "swldpc" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'swldpc'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import swldpc

    if Path(swldpc.__file__).resolve().parent != (src / "swldpc").resolve():
        print(f"bench: imported swldpc from {swldpc.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return swldpc


def machine_info(api) -> dict:
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda d: int((d / "level").read_text()))
        llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "swldpc": api.__version__,
    }


def alist_crc32(api, h) -> str:
    buf = io.StringIO()
    api.save_alist(h, buf)
    return f"{zlib.crc32(buf.getvalue().encode()):08x}"


def tail(values, pct):
    """Nearest-rank percentile pct of values, and the number of samples beyond it."""
    ordered = sorted(values)
    if not ordered:  # every frame raised; the run is already marked incorrect
        return 0.0, 0
    rank = max(math.ceil(len(ordered) * pct / 100.0), 1)
    return ordered[rank - 1], len(ordered) - rank


def tail_samples(pct):
    """Samples needed for at least ten beyond the nearest-rank percentile pct."""
    return math.ceil(10 / (1 - pct / 100.0))


def setup(api, code_id):
    """Build the code and its encode/decode plans SETUP_REPS times."""
    times, crcs = [], set()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        h = api.build_code(api.get_code_spec(code_id), seed=0)
        h.encode_plan()
        h.decode_plan()
        times.append(time.perf_counter() - t0)
        crcs.add(alist_crc32(api, h))
    return h, statistics.median(times), crcs


def make_pool(api, h, wl, seed):
    """Seed-derived (x, y) frames; flip probabilities are stratified per block."""
    rng = np.random.default_rng(np.random.SeedSequence((STREAM_TAG, seed)))
    lo, hi = wl["mean_p"] - wl["delta_p"], wl["mean_p"] + wl["delta_p"]
    pool = []
    while len(pool) < wl["pool"]:
        for j in rng.permutation(STRATA):
            p = lo + (hi - lo) * (j + rng.random()) / STRATA
            pair = api.generate_pair(h.k, api.CorrelationConfig(mean_p=p, delta_p=0.0), rng)
            pool.append((pair.x, pair.y))
    return pool


class Tally:
    """Per-frame outcomes: correctness violations, failures and the digest."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.attempted = 0
        self.failed = 0  # raised, or claimed success with wrong bits
        self.unrecovered_prefix = 0
        self.digest = hashlib.sha256()

    def frame(self, index, success, exact, bits: bytes, local_iters, global_iters):
        self.attempted += 1
        if success and not exact:
            self.failed += 1
            print(f"bench: frame {index} claimed success with wrong bits", file=sys.stderr)
        if index < self.prefix:
            self.unrecovered_prefix += not (success and exact)
            self.digest.update(struct.pack("<?ii", success, local_iters, global_iters) + bits)

    def raised(self, index, frames=1):
        self.attempted += frames
        self.failed += frames
        if index < self.prefix:
            self.unrecovered_prefix += frames
            self.digest.update(b"raised")
        if self.failed <= 3 * frames:  # the first few tracebacks are enough
            traceback.print_exc()


class EncodeProbe:
    """The encoder-side cost: PROBE_SIZE back-to-back encode calls in the
    calling thread after each round of the workload, cycling through the
    source blocks, so the samples span the whole run. The time it takes is
    kept apart and left out of the workload's wall time."""

    def __init__(self, api, h, blocks):
        self.api, self.h, self.blocks = api, h, blocks
        self.us = []
        self.seconds = 0.0

    def run(self):
        p0 = time.perf_counter()
        for _ in range(PROBE_SIZE):
            x = self.blocks[len(self.us) % len(self.blocks)]
            t0 = time.perf_counter_ns()
            self.api.encode(self.h, x)
            self.us.append((time.perf_counter_ns() - t0) / 1e3)
        self.seconds += time.perf_counter() - p0


def run_single(api, h, pool, wl, seconds, tracer, probe):
    tally = Tally(wl["prefix"])
    frame_ms = []
    n = 0
    start = time.perf_counter()
    least = max(wl["prefix"], tail_samples(wl["tail_pct"]))
    while n < least or time.perf_counter() - start < seconds:
        x, y = pool[n % len(pool)]
        if tracer is not None:
            tracer.unit = n
            tracer.new_frame()
        try:
            t0 = time.perf_counter_ns()
            z = api.encode(h, x)
            res = api.joint_decode(h, z, y, h.design_p)
            t1 = time.perf_counter_ns()
        except Exception:
            tally.raised(n)
        else:
            frame_ms.append((t1 - t0) / 1e6)
            exact = res.x_hat.shape == x.shape and bool(np.array_equal(res.x_hat, x))
            tally.frame(n, bool(res.success), exact, np.packbits(res.x_hat).tobytes(),
                        res.local_iters_total, res.global_iters_used)
        n += 1
        if probe is not None and n % ROUND == 0:
            probe.run()
    wall = time.perf_counter() - start - (probe.seconds if probe else 0.0)
    if tracer is not None:
        tracer.unit = None
    return tally, wall, frame_ms, {}


def run_sweep_calls(api, h, wl, seed, seconds, tracer, probe):
    """Repeated one-chunk sweeps of the code saved as an alist file; call i
    uses the sweep seed derived from (seed, i)."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        alist = Path(tmp) / f"{wl['code']}.alist"  # the CSV names the code by file stem
        api.save_alist(h, alist)
        return _sweep_loop(api, alist, wl, seed, seconds, tracer, probe)


def _sweep_loop(api, alist, wl, seed, seconds, tracer, probe):
    tally = Tally(wl["prefix"] * ROUND)
    csv_digest = hashlib.sha256()
    frame_ms = []
    calls = 0
    start = time.perf_counter()
    least = max(wl["prefix"], tail_samples(wl["tail_pct"]))
    while calls < least or time.perf_counter() - start < seconds:
        cfg = api.SweepConfig(
            codes=[str(alist)],
            points=[(wl["mean_p"], wl["delta_p"])],
            frames=ROUND,
            error_frame_target=ROUND + 1,  # no early stop
            seed=seed * 100_000 + calls,
            record_frames=True,
        )
        if tracer is not None:
            tracer.unit = calls
        try:
            t0 = time.perf_counter_ns()
            report = api.run_sweep(cfg, workers=wl["workers"])
            t1 = time.perf_counter_ns()
            csv = api.emit_report(report)
            results = report.points[0].frame_results
            if len(results) != ROUND:
                raise RuntimeError(f"sweep returned {len(results)} frames, not {ROUND}")
        except Exception:
            tally.raised(calls * ROUND, ROUND)
        else:
            frame_ms.append((t1 - t0) / 1e6 / ROUND)
            if calls < wl["prefix"]:
                csv_digest.update(csv.encode())
            for fr in results:
                tally.frame(calls * ROUND + fr.frame_index, fr.success,
                            fr.bit_errors == 0, b"", fr.local_iters, fr.global_iters)
        calls += 1
        if probe is not None:
            probe.run()
    wall = time.perf_counter() - start - (probe.seconds if probe else 0.0)
    if tracer is not None:
        tracer.unit = None
    return tally, wall, frame_ms, {"csv_sha256": csv_digest.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    api = load_package()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    h, setup_s, crcs = setup(api, wl["code"])
    pool = make_pool(api, h, wl, args.seed)
    # A traced run reports no encode_us_p50 and runs no probe, so that its
    # encode spans are the workload's own.
    probe = None
    if tracer is None:
        probe = EncodeProbe(api, h, [x for x, _ in pool[:PROBE_POOL]])
    if "workers" in wl:
        tally, wall, frame_ms, extra = run_sweep_calls(
            api, h, wl, args.seed, args.seconds, tracer, probe)
    else:
        tally, wall, frame_ms, extra = run_single(
            api, h, pool, wl, args.seconds, tracer, probe)

    frames_per_s = tally.attempted / wall
    tail_ms, beyond = tail(frame_ms, wl["tail_pct"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(api),
        "alist_crc32": {wl["code"]: sorted(crcs)},
        "prefix_frames": tally.prefix,
        "prefix_unrecovered": tally.unrecovered_prefix,
        "output_sha256": tally.digest.hexdigest()[:16],
        **extra,
        "frames_per_s": frames_per_s,
        "frame_ms_tail_pct": wl["tail_pct"],
        "frame_ms_samples": len(frame_ms),
        "frame_ms_beyond_tail": beyond,
    }
    correct = tally.failed == 0 and len(crcs) == 1
    if len(crcs) != 1:
        print(f"bench: {wl['code']} built differently across set-ups: {sorted(crcs)}",
              file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "frames_per_s": (frames_per_s, "1/s"),
            "frame_ms_p50": (median(frame_ms), "ms"),
            "frame_ms_tail": (tail_ms, "ms"),
            "encode_us_p50": (median(probe.us), "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, layer_self = layer_metrics(tracer, h, wl["prefix"], tally)
        meta["layer_self_s"] = layer_self
        tracer.write_jsonl(OUT / f"{args.workload}-s{args.seed}.spans.jsonl")

    print("meta: " + json.dumps(meta))
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
