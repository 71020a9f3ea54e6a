"""Watch the decoder discover the real correlation between the sources.

The decoder starts from a design-point guess for the inter-source flip
probability. A pass that decodes ends the decode: its reconstruction is
exact, so the flip fraction it measures from (x_hat, y) is exact too. A pass
that fails re-estimates the flip fraction from its posterior, and the next
pass runs with the corrected value. The traces below record the correction
factor alpha = ln(p / (1 - p)) at every global iteration: one frame that the
first pass decodes, and one that needs the corrected second pass.
"""

import math

import numpy as np

import swldpc as sw

spec = sw.get_code_spec("D2")
h = sw.build_code(spec, seed=0)
print(f"code {spec.id}: k={h.k}, designed for p = {spec.design_p}")


def show(actual, seed):
    cfg = sw.CorrelationConfig(mean_p=actual, delta_p=0.0)
    pair = sw.generate_pair(h.k, cfg, np.random.default_rng(seed))
    true_w = int(np.count_nonzero(pair.x ^ pair.y))
    print(f"\nframe drawn at actual p = {actual} ({true_w}/{h.k} flips)")
    res = sw.joint_decode(h, sw.encode(h, pair.x), pair.y, design_p=spec.design_p)
    print(f"success={res.success} in {res.global_iters_used} global iteration(s)")
    print(f"{'global':>6} {'alpha':>9} {'p_hat':>9} {'syndrome':>9}")
    a0 = sw.initial_alpha(spec.design_p)
    print(f"{'start':>6} {a0:9.4f} {spec.design_p:9.4f} {'-':>9}")
    for rec in res.final_state.trace:
        print(f"{rec.index:>6} {rec.alpha:9.4f} {rec.p_hat:9.4f} "
              f"{str(rec.syndrome_ok):>9}")
    # The estimate lands on the empirical flip fraction of the frame.
    p_emp = true_w / h.k
    print(f"empirical flip fraction: {p_emp:.4f} "
          f"(alpha = {math.log(p_emp / (1 - p_emp)):.4f})")


# A pessimistic design point: the decoder assumes p = 0.02 while this frame
# flips far fewer bits. The first pass decodes and measures the exact count.
show(0.004, seed=3)

# An optimistic one: this frame flips more bits than the design assumes. The
# first pass fails, its posterior raises the estimate, and the second pass,
# run with the corrected value, decodes.
show(0.025, seed=33)

# Each decoded frame also yields a calibrated measurement of its own
# correlation, not of the design point the decoder started from.
print("\nper-frame estimates at three different actual correlations:")
for p_true in (0.002, 0.008, 0.015):
    c = sw.CorrelationConfig(mean_p=p_true, delta_p=0.0)
    fr = sw.generate_pair(h.k, c, np.random.default_rng(99))
    r = sw.joint_decode(h, sw.encode(h, fr.x), fr.y, design_p=spec.design_p)
    w = int(np.count_nonzero(fr.x ^ fr.y))
    print(f"  actual {p_true:.3f} ({w:3d} flips) -> p_hat {r.final_state.p_hat:.4f} "
          f"(exact fraction {w}/{h.k} = {w / h.k:.4f})")
