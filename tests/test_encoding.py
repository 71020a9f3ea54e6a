"""Linear-time staircase encoding against dense GF(2) oracles."""

import numpy as np
import pytest

import swldpc as sw
from swldpc.encoding import as_bit_array
from oracles import gf2_solve_unit_lower, gf2_syndrome


def _handmade_k3():
    """The k=3, n=5 matrix with systematic rows {0,2} and {1,2}."""
    rows = [
        np.array([0, 2, 3], dtype=np.int32),
        np.array([1, 2, 3, 4], dtype=np.int32),
    ]
    return sw.SparseParityMatrix(n_rows=2, n_cols=5, k=3, rows=rows, design_p=None)


class TestEncode:
    def test_frozen_k3_example(self):
        # z1 = x1 + x3, z2 = z1 + x2 + x3 (mod 2) for x = [1, 1, 0].
        h = _handmade_k3()
        z = sw.encode(h, np.array([1, 1, 0], dtype=np.uint8))
        assert z.tolist() == [1, 0]
        c = np.array([1, 1, 0, 1, 0], dtype=np.uint8)
        assert not gf2_syndrome(h.to_dense(), c).any()

    def test_all_zero_source(self, small_code):
        z = sw.encode(small_code, np.zeros(small_code.k, dtype=np.uint8))
        assert not z.any()
        assert z.shape == (small_code.n_rows,)
        assert z.dtype == np.uint8

    def test_linearity(self, small_code, rng):
        for _ in range(20):
            x1 = rng.integers(0, 2, small_code.k).astype(np.uint8)
            x2 = rng.integers(0, 2, small_code.k).astype(np.uint8)
            lhs = sw.encode(small_code, x1 ^ x2)
            rhs = sw.encode(small_code, x1) ^ sw.encode(small_code, x2)
            assert np.array_equal(lhs, rhs)

    def test_syndrome_is_zero(self, small_code, rng):
        dense = small_code.to_dense()
        for _ in range(100):
            x = rng.integers(0, 2, small_code.k).astype(np.uint8)
            c = np.concatenate([x, sw.encode(small_code, x)])
            assert not gf2_syndrome(dense, c).any()

    def test_matches_dense_triangular_solve(self, desk_code, rng):
        # 500 random frames on the k=1024 code: encode must agree with a
        # generic GF(2) forward substitution through the dense parity block.
        dense = desk_code.to_dense()
        hx = dense[:, : desk_code.k].astype(np.int64)
        hz = dense[:, desk_code.k :]
        xs = rng.integers(0, 2, size=(500, desk_code.k)).astype(np.uint8)
        rhs = (xs.astype(np.int64) @ hx.T) & 1
        zs_oracle = gf2_solve_unit_lower(hz, rhs)
        for x, z_ref in zip(xs, zs_oracle):
            assert np.array_equal(sw.encode(desk_code, x), z_ref)

    def test_length_mismatch_rejected(self, small_code):
        with pytest.raises(ValueError):
            sw.encode(small_code, np.zeros(small_code.k + 1, dtype=np.uint8))

    def test_accepts_plain_lists(self, small_code):
        x = [0] * small_code.k
        x[3] = 1
        z = sw.encode(small_code, x)
        assert z.shape == (small_code.n_rows,)

    def test_rejects_non_binary(self, small_code):
        bad = np.zeros(small_code.k, dtype=np.uint8)
        bad[0] = 2
        with pytest.raises(ValueError):
            sw.encode(small_code, bad)

    @pytest.mark.parametrize(
        "bits,ok",
        [
            (np.array([0.0, 1.0, 1.0]), True),
            (np.array([False, True, True]), True),
            (np.array([0.0, 0.5, 1.0]), False),
            (np.array([0, 2, 1]), False),
            (np.array([0, -1, 1]), False),
            (np.array([0.0, np.nan, 1.0]), False),
            (np.array(["0", "1", "1"]), False),
        ],
        ids=["float", "bool", "half", "two", "minus-one", "nan", "str"],
    )
    def test_bit_check_verdicts(self, bits, ok):
        if ok:
            out = as_bit_array(bits, 3, "bits")
            assert out.dtype == np.uint8 and out.tolist() == [0, 1, 1]
        else:
            with pytest.raises(ValueError, match="only 0s and 1s"):
                as_bit_array(bits, 3, "bits")

    def test_uint8_input_read_in_place(self, small_code):
        # A C-contiguous, writable uint8 array is returned as it is; one the
        # compiled kernels cannot take, read-only or strided, is copied.
        k = small_code.k
        x = np.zeros(2 * k, dtype=np.uint8)
        x[::3] = 1
        assert as_bit_array(x[:k], k, "x").base is x
        frozen = x[:k].copy()
        frozen.flags.writeable = False
        for arr in (x[::2], frozen):
            out = as_bit_array(arr, k, "x")
            assert out.base is None and out.flags.c_contiguous and out.flags.writeable
            assert np.array_equal(out, arr)
            assert np.array_equal(sw.encode(small_code, arr), sw.encode(small_code, out))

    def test_throughput_scales_with_edges(self, desk_code, d2_code):
        # Soft linearity guard: a k=4096 code has ~4x the edges of the
        # k=1024 one, so per-edge cost should stay within a small factor.
        import time

        big = d2_code

        def per_edge_seconds(h, frames=50):
            x = np.random.default_rng(0).integers(0, 2, (frames, h.k)).astype(np.uint8)
            edges = sum(len(r) for r in h.rows)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for f in range(frames):
                    sw.encode(h, x[f])
                best = min(best, (time.perf_counter() - t0) / (frames * edges))
            return best

        small_cost = per_edge_seconds(desk_code)
        big_cost = per_edge_seconds(big)
        assert big_cost < 5 * small_cost


class TestCompressionRate:
    @pytest.mark.parametrize(
        "cid,expected",
        [
            ("L1", 9800 / 16400),
            ("L2", 6000 / 16400),
            ("L3", 3900 / 16400),
            ("L4", 3100 / 16400),
            ("D1", 0.5),
            ("D2", 0.25),
        ],
    )
    def test_exact_ratio(self, cid, expected):
        assert sw.compression_rate(sw.get_code_spec(cid)) == expected

    @pytest.mark.parametrize(
        "cid,published",
        [("L1", 0.5976), ("L2", 0.3659), ("L3", 0.2378), ("L4", 0.1890)],
    )
    def test_published_rounding(self, cid, published):
        assert sw.compression_rate(sw.get_code_spec(cid)) == pytest.approx(
            published, abs=1e-3
        )
