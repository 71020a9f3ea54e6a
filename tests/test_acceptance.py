"""Acceptance gate: one test per numbered criterion, run at stated tolerances.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible with
`pytest -s`) and then asserts. The expensive k=16400 builds and Monte-Carlo
runs are session fixtures shared across criteria.
"""

import io
import math
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

import swldpc as sw
from oracles import gf2_solve_unit_lower, quantize_ref

DESIGN_SEED = 0


def _verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num}: {word} — {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def _frames(k: int, mean_p: float, delta_p: float, count: int, tag: int):
    cfg = sw.CorrelationConfig(mean_p=mean_p, delta_p=delta_p)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((tag, i)))
        yield sw.generate_pair(k, cfg, rng)


@pytest.fixture(scope="session")
def l2_code():
    return sw.build_code(sw.get_code_spec("L2"), seed=DESIGN_SEED)


@pytest.fixture(scope="session")
def l3_code():
    return sw.build_code(sw.get_code_spec("L3"), seed=DESIGN_SEED)


def _alist_crc32(h) -> str:
    buf = io.StringIO()
    sw.save_alist(h, buf)
    return f"{zlib.crc32(buf.getvalue().encode()):08x}"


def test_l2_l3_alist_crc32_at_design_seed(l2_code, l3_code):
    # Pinned so that a change to construction or alist output cannot move the
    # codes the criteria below measure without being noticed.
    assert _alist_crc32(l2_code) == "3cc6df31"
    assert _alist_crc32(l3_code) == "3b82f9da"


def test_l1_l4_alist_crc32_at_design_seed(c_backend):
    # The other two production codes, pinned once compiled placement builds
    # them in seconds; numpy placement takes minutes per code.
    assert _alist_crc32(sw.build_code(sw.get_code_spec("L1"), seed=DESIGN_SEED)) == "0e664e26"
    assert _alist_crc32(sw.build_code(sw.get_code_spec("L4"), seed=DESIGN_SEED)) == "cefa5703"


@pytest.fixture(scope="session")
def waterfall_stats(l2_code):
    """Criterion 5 experiment, shared with criterion 7: 200 frames of the
    L2 geometry at fixed p = 0.05 through the full joint decoder."""
    h = l2_code
    frames = 200
    t0 = time.time()
    frame_errs = 0
    globals_used = []
    locals_used = []
    for pair in _frames(h.k, 0.05, 0.0, frames, tag=5001):
        z = sw.encode(h, pair.x)
        res = sw.joint_decode(h, z, pair.y, design_p=0.05)
        frame_errs += not (res.success and np.array_equal(res.x_hat, pair.x))
        globals_used.append(res.global_iters_used)
        locals_used.append(res.local_iters_total)
    return {
        "frames": frames,
        "frame_errs": frame_errs,
        "fer": frame_errs / frames,
        "mean_globals": float(np.mean(globals_used)),
        "mean_locals": float(np.mean(locals_used)),
        "wall": time.time() - t0,
    }


def test_criterion_1_syndrome_linearity_suite():
    t0 = time.time()
    violations = 0
    frames = 1000
    for cid in ("D1", "D2"):
        h = sw.build_code(sw.get_code_spec(cid), seed=DESIGN_SEED)
        dense = h.to_dense()
        hx = dense[:, : h.k].astype(np.float64)
        hz = dense[:, h.k :]
        rng = np.random.default_rng(np.random.SeedSequence((1001, cid == "D2")))
        xs = rng.integers(0, 2, size=(frames, h.k)).astype(np.uint8)
        rhs = np.mod(xs.astype(np.float64) @ hx.T, 2.0)
        z_oracle = gf2_solve_unit_lower(hz, rhs)
        z_enc = np.stack([sw.encode(h, x) for x in xs])
        violations += int(np.count_nonzero(np.any(z_enc != z_oracle, axis=1)))
        cw = np.concatenate([xs, z_enc], axis=1).astype(np.float64)
        synd = np.mod(cw @ dense.T.astype(np.float64), 2.0)
        violations += int(np.count_nonzero(np.any(synd != 0.0, axis=1)))
    wall = time.time() - t0
    _verdict(
        1,
        violations == 0 and wall < 60.0,
        f"{violations} violations over {frames} frames on each of D1, D2; "
        f"dense-solve and dense-syndrome oracles agree; {wall:.1f}s (< 60s)",
    )


def test_criterion_2_quantizer_oracle():
    t0 = time.time()
    grid = np.linspace(-20.0, 20.0, 1_000_000)
    mismatches = sum(
        1 for l in grid if sw.quantize_llr(float(l)) != quantize_ref(float(l))
    )
    # Parity branch: saturated at exactly +/- 10000 for either bit value.
    y = np.zeros(4, dtype=np.uint8)
    z0 = np.zeros(3, dtype=np.uint8)
    z1 = np.ones(3, dtype=np.uint8)
    k = 4
    init0 = sw.init_from_side_info(y, z0, -2.9444389791664403)
    init1 = sw.init_from_side_info(y, z1, -2.9444389791664403)
    parity_exact = (
        init0.values[k:].tolist() == [-10000] * 3
        and init1.values[k:].tolist() == [10000] * 3
    )
    wall = time.time() - t0
    _verdict(
        2,
        mismatches == 0 and parity_exact,
        f"{mismatches} mismatches on 10^6 grid points in [-20, 20] against "
        f"the exact-rational floor oracle; parity branch exactly ±10000; {wall:.1f}s",
    )


def test_criterion_3_entropy_table():
    table = {0.015: 1.112, 0.025: 1.169, 0.05: 1.286, 0.1: 1.469}
    errs = {p: abs(1.0 + sw.binary_entropy(p) - v) for p, v in table.items()}
    worst = max(errs.values())
    _verdict(
        3,
        worst <= 1e-3,
        f"H(p)+1 vs published row: worst |error| = {worst:.2e} (<= 1e-3) "
        f"at p in {sorted(table)}",
    )


def test_criterion_4_rate_table():
    rate_row = {"L1": 0.5976, "L2": 0.3659, "L3": 0.2378, "L4": 0.1890}
    total_row = {"L1": 1.597, "L2": 1.365, "L3": 1.237, "L4": 1.189}
    worst_rate = max(
        abs(sw.compression_rate(sw.get_code_spec(c)) - v)
        for c, v in rate_row.items()
    )
    worst_total = max(
        abs(1.0 + sw.compression_rate(sw.get_code_spec(c)) - v)
        for c, v in total_row.items()
    )
    _verdict(
        4,
        worst_rate <= 1e-3 and worst_total <= 1e-3,
        f"compression_rate worst |error| = {worst_rate:.2e}, total-rate row "
        f"worst |error| = {worst_total:.2e} (both <= 1e-3)",
    )


def test_criterion_5_desk_scale_waterfall(waterfall_stats):
    s = waterfall_stats
    _verdict(
        5,
        s["fer"] <= 0.05,
        f"L2 at fixed p=0.05, delta=0: FER {s['frame_errs']}/{s['frames']} "
        f"= {s['fer']:.1%} (required <= 5%); mean globals {s['mean_globals']:.2f}, "
        f"mean locals {s['mean_locals']:.1f}; {s['wall']:.0f}s",
    )


def test_criterion_6_iterative_vs_static_separation(l3_code):
    h = l3_code
    frames = 300
    t0 = time.time()
    bits = h.k * frames
    errs_joint = 0
    errs_static = 0
    wins = 0
    losses = 0
    for pair in _frames(h.k, 0.025, 0.005, frames, tag=6001):
        z = sw.encode(h, pair.x)
        res_j = sw.joint_decode(h, z, pair.y, design_p=0.025)
        res_n = sw.non_iterative_decode(h, z, pair.y, design_p=0.025)
        ej = int(np.count_nonzero(res_j.x_hat ^ pair.x))
        en = int(np.count_nonzero(res_n.x_hat ^ pair.x))
        errs_joint += ej
        errs_static += en
        wins += ej < en
        losses += ej > en
    ber_j = errs_joint / bits
    ber_n = errs_static / bits
    # One-sided paired sign test: joint strictly better per frame more often
    # than chance among discordant frames, at 95% confidence.
    discordant = wins + losses
    pvalue = (
        binomtest(wins, discordant, 0.5, alternative="greater").pvalue
        if discordant
        else 1.0
    )
    wall = time.time() - t0
    _verdict(
        6,
        ber_j < ber_n and pvalue < 0.05,
        f"L3 at mean p=0.025, delta=0.005, {frames} frames: joint BER "
        f"{ber_j:.3e} vs static BER {ber_n:.3e}; per-frame wins {wins}, "
        f"losses {losses}, one-sided sign-test p = {pvalue:.3f} "
        f"(need joint < static and p < 0.05); {wall:.0f}s",
    )


def test_criterion_7_global_iteration_efficiency(waterfall_stats):
    s = waterfall_stats
    if s["fer"] >= 0.05:
        line = (
            f"[acceptance] criterion 7: SKIP — no operating point from "
            f"criterion 5 has FER < 5% (measured {s['fer']:.1%}), so the "
            f"efficiency statistic has no qualifying sample"
        )
        print("\n" + line, flush=True)
        pytest.skip(line)
    _verdict(
        7,
        1.0 <= s["mean_globals"] <= 2.0 and s["mean_locals"] <= 120.0,
        f"mean global iterations {s['mean_globals']:.2f} (need within [1, 2]); "
        f"mean local iterations per frame {s['mean_locals']:.1f} (need <= 120)",
    )


def test_criterion_8_estimator_correctness():
    rng = np.random.default_rng(8001)
    worst_alpha = 0.0
    exact_p = True
    antisym = True
    for _ in range(10_000):
        k = int(rng.integers(2, 4096))
        w = int(rng.integers(0, k + 1))
        x_hat = np.zeros(k, dtype=np.uint8)
        y = np.zeros(k, dtype=np.uint8)
        y[:w] = 1
        st = sw.estimate_alpha(x_hat, y)
        wc = min(max(w, 1), k - 1)
        exact_p &= st.p_hat == wc / k
        worst_alpha = max(worst_alpha, abs(st.alpha - (math.log(wc) - math.log(k - wc))))
        y2 = np.zeros(k, dtype=np.uint8)
        y2[: k - wc] = 1
        antisym &= sw.estimate_alpha(x_hat, y2).alpha == -st.alpha
    _verdict(
        8,
        exact_p and worst_alpha <= 1e-12 and antisym,
        f"10^4 random pairs: p_hat exact = {exact_p}, worst |alpha error| = "
        f"{worst_alpha:.2e} (<= 1e-12), antisymmetry exact = {antisym}",
    )


def test_criterion_9_sweep_determinism():
    cfg = sw.SweepConfig(
        codes=["D1"],
        points=[(0.02, 0.005), (0.05, 0.0)],
        frames=48,
        error_frame_target=10,
        seed=9001,
    )
    csv_1 = sw.emit_report(sw.run_sweep(cfg, workers=1))
    csv_4 = sw.emit_report(sw.run_sweep(cfg, workers=4))
    _verdict(
        9,
        csv_1 == csv_4,
        "CSV reports byte-identical between workers=1 and workers=4 "
        f"({len(csv_1)} bytes)",
    )
