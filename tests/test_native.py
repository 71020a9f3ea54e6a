"""The loader of the compiled kernels: fallback, one build, threads."""

import json
import os
import platform
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import swldpc as sw
from swldpc import _native, codes

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(script: str, cache_dir: Path) -> dict:
    """Run script in a new interpreter whose loader builds into cache_dir;
    script prints one JSON object as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), str(cache_dir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_missing_compiler_falls_back_to_numpy(tmp_path):
    result = _run_fresh(
        """
        import json, math, sys, warnings
        from pathlib import Path
        import numpy as np
        from swldpc import _native
        _native._CACHE_DIR = Path(sys.argv[1])
        _native._CC = str(Path(sys.argv[1]) / "no-such-cc")
        import swldpc as sw
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = sw.CodeSpec(id="T", k=256, n=384, dv_target=3.0, design_p=0.05)
            h = sw.build_code(spec, seed=3)
            rng = np.random.default_rng(5)
            decoded = 0
            for _ in range(10):
                x = rng.integers(0, 2, h.k).astype(np.uint8)
                y = (x ^ (rng.random(h.k) < 0.02)).astype(np.uint8)
                out = sw.bp_decode(h, y, sw.encode(h, x), math.log(0.02 / 0.98))
                decoded += bool(out.syndrome_ok and np.array_equal(out.hard_bits[: h.k], x))
            backend = sw.backend()
        print(json.dumps({
            "backend": backend,
            "warnings": [str(w.message) for w in caught],
            "decoded": decoded,
            "left": sorted(p.name for p in Path(sys.argv[1]).iterdir()),
        }))
        """,
        tmp_path,
    )
    assert result["backend"] == "numpy"
    assert len(result["warnings"]) == 1 and "numpy" in result["warnings"][0]
    assert result["decoded"] == 10
    assert result["left"] == []  # the failed build leaves no temporary file


def test_first_use_from_many_threads_builds_once(c_backend, tmp_path):
    result = _run_fresh(
        """
        import json, sys, threading
        from pathlib import Path
        from swldpc import _native
        _native._CACHE_DIR = Path(sys.argv[1])
        seen, start = [], threading.Barrier(4)
        def first_use():
            start.wait()
            seen.append(id(_native.lib()))
        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        print(json.dumps({
            "libraries": len(set(seen)), "calls": len(seen), "backend": _native.backend(),
            "files": sorted(p.name for p in Path(sys.argv[1]).iterdir()),
        }))
        """,
        tmp_path,
    )
    assert result["calls"] == 4 and result["libraries"] == 1 and result["backend"] == "c"
    assert result["files"] == [_native.library_path().name]


def test_concurrent_decodes_match_serial(desk_code):
    # More threads than cores, a short switch interval, and decodes that
    # overlap inside the compiled loop: each must equal its serial result.
    rng = np.random.default_rng(77)
    frames = []
    for _ in range(24):
        x = rng.integers(0, 2, desk_code.k).astype(np.uint8)
        y = (x ^ (rng.random(desk_code.k) < 0.06)).astype(np.uint8)
        frames.append((y, sw.encode(desk_code, x)))
    serial = [sw.bp_decode(desk_code, y, z, -2.94) for y, z in frames]
    results = [None] * len(frames)

    def work(j):
        for i in range(j, len(frames), 6):
            results[i] = sw.bp_decode(desk_code, *frames[i], -2.94)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got.iterations_used == want.iterations_used
        assert np.array_equal(got.hard_bits, want.hard_bits)
        assert np.array_equal(got.posterior.values, want.posterior.values)


def test_concurrent_joint_decodes_match_serial(d2_code):
    # More threads than cores, a short switch interval, and D2 frames in its
    # waterfall, where passes fail and later passes continue from their
    # messages: decodes share no buffers, so each must equal its serial one.
    rng = np.random.default_rng(np.random.SeedSequence((2525, 6)))
    frames = []
    for _ in range(18):
        p = 0.02 + 0.01 * rng.random()
        x = rng.integers(0, 2, d2_code.k).astype(np.uint8)
        y = (x ^ (rng.random(d2_code.k) < p)).astype(np.uint8)
        frames.append((sw.encode(d2_code, x), y))

    def decode(i):
        z, y = frames[i]
        res = sw.joint_decode(d2_code, z, y, d2_code.design_p)
        trace = [(r.index, r.alpha, r.p_hat, r.syndrome_ok) for r in res.final_state.trace]
        return (res.x_hat.tobytes(), res.success, res.global_iters_used,
                res.local_iters_total, res.final_state.alpha, res.final_state.p_hat, trace)

    serial = [decode(i) for i in range(len(frames))]
    assert any(not ok for *_, trace in serial for *_, ok in trace)  # some passes failed
    results = [None] * len(frames)

    def work(j):
        for i in range(j, len(frames), 6):
            results[i] = decode(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_kernels_compile_without_warnings(tmp_path):
    # The kernels build with warnings as errors, so a change that draws a
    # warning from the compiler shows here rather than in a user's build;
    # -Wconversion and -Wsign-conversion catch an implicit narrowing in the
    # int32 loops.
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(void) { return 0; }\n")
    try:
        works = subprocess.run(
            [_native._CC, "-shared", "-fPIC", "-o", str(tmp_path / "probe.so"), str(probe)],
            capture_output=True, text=True, timeout=120,
        )
    except OSError as exc:
        pytest.skip(f"no working C compiler ({_native._CC}: {exc})")
    if works.returncode != 0:
        pytest.skip(f"no working C compiler ({_native._CC}: {works.stderr.strip()})")
    built = subprocess.run(
        [_native._CC, "-O3", "-Wall", "-Wextra", "-Wconversion", "-Wsign-conversion", "-Werror",
         "-shared", "-fPIC", "-o", str(tmp_path / "kernels.so"), str(_native._SOURCE)],
        capture_output=True, text=True, timeout=300,
    )
    assert built.returncode == 0, built.stderr


def test_loop_helpers_inlined_into_each_clone(c_backend):
    # A loop helper that GCC outlines is built once, for the baseline
    # instruction set, and called from the AVX2 clone too, which then runs
    # the check pass unvectorised: the helpers must leave no symbol.
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        pytest.skip("the AVX2 and baseline clones are built on x86-64 glibc only")
    if shutil.which("nm"):
        tool = ["nm"]
    elif shutil.which("objdump"):
        tool = ["objdump", "-t"]
    else:
        pytest.skip("neither nm nor objdump is on PATH")
    listing = subprocess.run([*tool, str(_native.library_path())], capture_output=True,
                             text=True, check=True, timeout=60).stdout
    names = {line.split()[-1].split(".")[0] for line in listing.splitlines() if line.strip()}
    assert {"bp_run", "side_info_pass"} <= names
    assert not {"check_pass", "box_rows", "variable_pass"} & names


def test_library_exports_exactly_the_wrapped_kernels(c_backend):
    # The library exports the functions _native gives a signature, and no
    # other: the BP loop is internal to side_info_pass, so a caller cannot
    # reach it past the frame's checks of y and z.
    if not shutil.which("nm"):
        pytest.skip("nm is not on PATH, so the dynamic symbol table cannot be listed")
    listed = subprocess.run(["nm", "-D", "--defined-only", str(_native.library_path())],
                            capture_output=True, text=True, timeout=60)
    if listed.returncode != 0:
        pytest.skip(f"nm -D cannot list this library: {listed.stderr.strip()}")
    # the linker's own symbols (_init, _fini, _edata, ...) begin with an underscore
    names = {line.split()[-1] for line in listed.stdout.splitlines() if line.strip()}
    assert {name for name in names if not name.startswith("_")} == set(_native._SIGNATURES)


def test_peg_scratch_stays_within_its_stated_size(c_backend):
    # peg_place appends without a branch, storing each node at the end of
    # its list before it knows the node is new: front is stated as m + 1
    # checks and vars as k columns. Both are the head of a longer array
    # filled with a canary, on a code whose every column has degree m, so
    # that searches reach every check: the last entry of each is written,
    # and no canary beyond them.
    k, m, canary = 6, 6, -7
    degrees = np.full(k, m, dtype=np.int32)
    var_ptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(degrees, out=var_ptr[1:])
    edge_var = np.repeat(np.arange(k, dtype=np.int32), degrees)
    edge_chk, nxt = (np.empty(k * m, dtype=np.int32) for _ in range(2))
    chk_deg, chk_head, seen_c = (np.zeros(m, dtype=np.int32) for _ in range(3))
    seen_v = np.zeros(k, dtype=np.int32)
    front = np.full(m + 1 + 16, canary, dtype=np.int32)
    vars_ = np.full(k + 16, canary, dtype=np.int32)
    ptr = _native._ptr
    status = c_backend.peg_place(
        k, m, m, ptr(var_ptr), ptr(edge_var), ptr(edge_chk), ptr(chk_deg), ptr(chk_head),
        ptr(nxt), ptr(seen_c), ptr(seen_v), ptr(front), ptr(vars_),
    )
    assert status == 0
    assert front[m] != canary and vars_[k - 1] != canary
    assert (front[m + 1:] == canary).all() and (vars_[k:] == canary).all()
    assert np.array_equal(edge_chk, codes._place_edges(degrees, m, m))
