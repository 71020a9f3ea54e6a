"""Correlated source generation and entropy limits."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

import swldpc as sw
from oracles import entropy_ref


class TestCorrelationConfig:
    def test_valid_config(self):
        cfg = sw.CorrelationConfig(mean_p=0.025, delta_p=0.005)
        assert cfg.mean_p == 0.025
        assert cfg.delta_p == 0.005

    @pytest.mark.parametrize(
        "mean_p,delta_p",
        [
            (0.0, 0.0),
            (0.5, 0.0),
            (-0.1, 0.0),
            (0.6, 0.0),
            (0.1, -0.001),
            (0.45, 0.06),   # mean + delta reaches 0.51
            (0.004, 0.005), # mean - delta goes negative
            (0.05, math.nan),  # fails no comparison
            (math.nan, 0.0),
            ("0.1", 0.0),  # a string failed with TypeError inside a comparison
            (0.1, "0"),
            (None, 0.0),
            (0.1, False),
        ],
    )
    def test_invalid_config_rejected(self, mean_p, delta_p):
        with pytest.raises(ValueError, match="mean_p|delta_p"):
            sw.CorrelationConfig(mean_p=mean_p, delta_p=delta_p)


class TestGeneratePair:
    def test_shapes_and_dtypes(self, rng):
        cfg = sw.CorrelationConfig(mean_p=0.1, delta_p=0.02)
        pair = sw.generate_pair(257, cfg, rng)
        assert pair.x.shape == (257,)
        assert pair.y.shape == (257,)
        assert pair.x.dtype == np.uint8
        assert pair.y.dtype == np.uint8
        assert set(np.unique(np.concatenate([pair.x, pair.y]))) <= {0, 1}
        assert 0.08 <= pair.actual_p <= 0.12

    def test_block_length_must_be_a_positive_integer(self, rng):
        # a float or a string failed with TypeError inside numpy
        cfg = sw.CorrelationConfig(mean_p=0.1)
        for k in (2.5, 64.0, "64", True, 0, -3):
            with pytest.raises(ValueError, match="block length k must be a positive integer"):
                sw.generate_pair(k, cfg, rng)
        assert sw.generate_pair(np.int64(64), cfg, rng).x.size == 64

    def test_delta_zero_pins_actual_p(self, rng):
        cfg = sw.CorrelationConfig(mean_p=0.05, delta_p=0.0)
        for _ in range(20):
            assert sw.generate_pair(64, cfg, rng).actual_p == 0.05

    def test_reproducible_from_seed(self):
        cfg = sw.CorrelationConfig(mean_p=0.1, delta_p=0.05)
        a = sw.generate_pair(300, cfg, np.random.default_rng(99))
        b = sw.generate_pair(300, cfg, np.random.default_rng(99))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert a.actual_p == b.actual_p

    def test_flip_fraction_concentrates(self):
        # At k=16400 and fixed p=0.1 the empirical flip fraction should sit
        # within 3*sqrt(p(1-p)/k) ~ 0.007 of p in at least 99 frames of 100.
        cfg = sw.CorrelationConfig(mean_p=0.1, delta_p=0.0)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(100):
            pair = sw.generate_pair(16400, cfg, rng)
            frac = np.count_nonzero(pair.x ^ pair.y) / 16400
            hits += abs(frac - 0.1) <= 0.007
        assert hits >= 99

    def test_mean_flip_rate_converges(self):
        # Law-of-large-numbers check at 4 sigma over pooled frames.
        cfg = sw.CorrelationConfig(mean_p=0.05, delta_p=0.0)
        rng = np.random.default_rng(11)
        k, frames = 2048, 200
        total = 0
        for _ in range(frames):
            pair = sw.generate_pair(k, cfg, rng)
            total += int(np.count_nonzero(pair.x ^ pair.y))
        n = k * frames
        sigma = math.sqrt(0.05 * 0.95 / n)
        assert abs(total / n - 0.05) <= 4 * sigma

    def test_actual_p_uniform_over_band(self):
        # Coarse chi-squared uniformity check: 10 bins, 1e4 blocks, 99% level.
        cfg = sw.CorrelationConfig(mean_p=0.025, delta_p=0.005)
        rng = np.random.default_rng(17)
        draws = np.array(
            [sw.generate_pair(8, cfg, rng).actual_p for _ in range(10_000)]
        )
        assert draws.min() >= 0.02 and draws.max() <= 0.03
        counts, _ = np.histogram(draws, bins=10, range=(0.02, 0.03))
        stat = ((counts - 1000.0) ** 2 / 1000.0).sum()
        assert stat < chi2.ppf(0.99, df=9)

    def test_x_is_balanced(self, rng):
        cfg = sw.CorrelationConfig(mean_p=0.1, delta_p=0.0)
        ones = sum(
            int(np.count_nonzero(sw.generate_pair(4096, cfg, rng).x))
            for _ in range(20)
        )
        n = 4096 * 20
        assert abs(ones / n - 0.5) < 4 * math.sqrt(0.25 / n)


class TestEntropy:
    def test_endpoints_and_peak(self):
        assert sw.binary_entropy(0.0) == 0.0
        assert sw.binary_entropy(1.0) == 0.0
        assert sw.binary_entropy(0.5) == 1.0

    def test_symmetry_and_monotonicity(self):
        ps = np.linspace(0.01, 0.49, 49)
        for p in ps:
            assert sw.binary_entropy(p) == pytest.approx(
                sw.binary_entropy(1.0 - p), abs=1e-14
            )
        vals = [sw.binary_entropy(p) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_reference_on_grid(self):
        for p in np.linspace(0.001, 0.999, 199):
            assert sw.binary_entropy(float(p)) == pytest.approx(
                entropy_ref(float(p)), abs=1e-12
            )

    @pytest.mark.parametrize(
        "p,expected",
        [(0.015, 0.112), (0.025, 0.169), (0.05, 0.286), (0.1, 0.469)],
    )
    def test_frozen_values(self, p, expected):
        assert sw.binary_entropy(p) == pytest.approx(expected, abs=1e-3)


class TestSwLimits:
    def test_structure(self):
        lim = sw.sw_limits(0.05)
        assert set(lim) == {"h_x_given_y", "joint"}
        assert lim["h_x_given_y"] == pytest.approx(sw.binary_entropy(0.05))
        assert lim["joint"] == pytest.approx(1.0 + sw.binary_entropy(0.05))

    @pytest.mark.parametrize("p,joint", [(0.025, 1.169), (0.05, 1.286)])
    def test_frozen_joint_values(self, p, joint):
        assert sw.sw_limits(p)["joint"] == pytest.approx(joint, abs=1e-3)

    def test_vanishing_p_limit(self):
        assert sw.sw_limits(1e-9)["joint"] == pytest.approx(1.0, abs=1e-6)
