"""Check that a workload's counts and output digests repeat exactly at one seed.

Usage, from the root of a source checkout:

    python3 bench/check_repeat.py --seed 11 [--seconds 2] [--workload d1-design ...]

For each workload it makes two traced runs and one untraced run of
bench/run.py with the same seed. The count metrics of the two traced runs,
and the output digests, sweep CSV digest, alist CRC32s and unrecovered-frame
count of all three, must be identical; timing is ignored. Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

COUNTS = [
    "codes.edges",
    "codes.max_row_degree",
    "bp.local_iters",
    "bp.edge_updates",
    "bp.bp_decode_calls",
    "bp.syndrome_ok_ratio",
    "joint.global_iters",
    "joint.confirm_share",
    "joint.fer",
]
META = ["alist_crc32", "prefix_frames", "prefix_unrecovered", "output_sha256", "csv_sha256"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2].removeprefix("meta: "))
    counts = {k: result["metrics"][k]["value"] for k in COUNTS} if trace else {}
    return counts, {k: meta.get(k) for k in META}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or list(WORKLOADS):
        counts_a, meta_a = run(workload, args.seed, args.seconds, 1)
        counts_b, meta_b = run(workload, args.seed, args.seconds, 1)
        _, meta_c = run(workload, args.seed, args.seconds, 0)
        same = counts_a == counts_b and meta_a == meta_b == meta_c
        ok &= same
        print(f"{workload}: {'repeat' if same else 'DIFFER'}")
        print("  counts:", json.dumps(counts_a))
        print("  outputs:", json.dumps(meta_a))
        if not same:
            print("  second traced run:", json.dumps(counts_b), json.dumps(meta_b))
            print("  untraced run:", json.dumps(meta_c))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
