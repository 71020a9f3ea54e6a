"""Quantized belief propagation: quantizer, correction table, decoding."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import swldpc as sw
from swldpc import _native
from swldpc.bp import (
    DEFAULT_Q,
    DEFAULT_S_MAX,
    SideInfoFrame,
    _TABLE,
    _box_table,
    _bp_setup,
    side_info_pass,
)
from oracles import bp_ref, boxplus_ref, correction_table_ref, gf2_syndrome, quantize_ref


class TestQuantizer:
    def test_frozen_examples(self):
        # ln(1/9) = -2.1972... -> floor(-17.578 + 0.5) = -18 at q=3.
        assert sw.quantize_llr(math.log(1 / 9)) == -18
        assert sw.quantize_llr(math.log(9)) == 18
        assert sw.quantize_llr(0.0) == 0
        assert sw.quantize_llr(-0.0625) == 0   # floor(-0.5 + 0.5)
        assert sw.quantize_llr(-0.0626) == -1
        assert sw.quantize_llr(np.float32(math.log(9))) == 18
        # numpy floats are scaled as doubles, not in their own precision: here
        # 8 * l + 0.5 is just below 1, which float32 or float16 arithmetic rounds to 1
        for kind in (np.float32, np.float16):
            below_half = np.nextafter(kind(0.0625), kind(0))
            assert sw.quantize_llr(below_half) == quantize_ref(float(below_half)) == 0

    def test_clipping(self):
        # so do finite values that a float cannot hold once scaled by 2**q,
        # integers too large for a float and a long double past a float's
        # range; numpy floats clip without an overflow warning
        big = [1e9, 1e308, 10**400, np.float64(1e308), np.float32(3e38), np.float16(6e4)]
        if np.finfo(np.longdouble).maxexp > np.finfo(np.float64).maxexp:
            big.append(np.longdouble("1e4000"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in big:
                assert sw.quantize_llr(value) == 10000
                assert sw.quantize_llr(-value) == -10000

    def test_non_finite_rejected(self):
        bad_values = (math.nan, math.inf, -math.inf, None, "x", 1j, True,
                      np.float64(math.nan), np.float16(math.inf), np.longdouble("-inf"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in bad_values:
                with pytest.raises(ValueError):
                    sw.quantize_llr(bad)

    def test_matches_exact_rational_floor_on_grid(self):
        vals = np.linspace(-20.0, 20.0, 100_000)
        for l in vals[::7]:
            assert sw.quantize_llr(float(l)) == quantize_ref(float(l))


class TestCorrectionTable:
    def test_frozen_q3_table(self):
        expected = [6, 5, 5, 4, 4, 3, 3, 3, 3, 2, 2,
                    2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        assert sw.make_correction_table(3).tolist() == expected

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4, 5])
    def test_matches_reference(self, q):
        assert sw.make_correction_table(q).tolist() == correction_table_ref(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_length_bound(self, q):
        assert len(sw.make_correction_table(q)) <= 8 * 2**q

    @pytest.mark.parametrize("q", range(7))
    def test_threshold_count_equals_lookup(self, q):
        # The compiled check pass counts the thresholds T_j = min{u : table[u] < j},
        # j = 1 .. table[0], above u in place of the lookup table[min(u, tmax)].
        # The identity holds for every table of the family; the pass counts a
        # fixed 6 thresholds, which only tables up to q = 3 stay within, and the
        # decoder's own table is the q = DEFAULT_Q one. Tables carry the
        # decoder's trailing zero, so that clipped lookups find no correction.
        table = np.append(sw.make_correction_table(q), np.int32(0))
        if q == DEFAULT_Q:
            assert np.array_equal(table, _TABLE) and table[0] <= 6
        assert (table[0] <= 6) == (q <= 3)
        tmax = table.size - 1
        thr = [int(np.argmax(table < j)) for j in range(1, table[0] + 1)]
        u = np.arange(3 * tmax + 1)
        count = sum((u < t).astype(np.int32) for t in thr)
        assert np.array_equal(count, table[np.minimum(u, tmax)])

    def test_table_kernel_tracks_exact_boxplus(self):
        # Integer box-plus with the correction table must stay within two
        # quantization steps of the exact float rule across a message grid.
        table = _TABLE
        tmax = len(table) - 1
        grid = np.arange(-64, 65, 3, dtype=np.int64)
        a, b = np.meshgrid(grid, grid)
        got = _box_table(a, b, table, tmax)
        for ai, bi, gi in zip(a.ravel(), b.ravel(), got.ravel()):
            if ai == 0 or bi == 0:
                continue
            exact = 8.0 * boxplus_ref(ai / 8.0, bi / 8.0)
            assert abs(gi - exact) <= 2.0


class TestLlrqVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            sw.LlrqVector(values=np.array([[1, 2]]), k=1)
        sw.LlrqVector(values=np.array([-10000, 10000]), k=1)
        for bad in (10001, -10001):
            with pytest.raises(ValueError, match="s_max"):
                sw.LlrqVector(values=np.array([0, bad]), k=1)
        # values int32 cannot hold exactly are refused, not wrapped or truncated
        for bad in ([2**32 + 5, -3], [0.9, -3.7], [float("nan"), 0], [2**70, 0]):
            with pytest.raises(ValueError, match="int32"):
                sw.LlrqVector(values=np.array(bad), k=1)
        exact = sw.LlrqVector(values=np.array([5.0, -3.0]), k=1)
        assert exact.values.dtype == np.int32 and exact.values.tolist() == [5, -3]

    def test_init_from_side_info_fields(self, small_code):
        k, m = small_code.k, small_code.n_rows
        y = np.zeros(k, dtype=np.uint8)
        y[5] = 1
        z = np.zeros(m, dtype=np.uint8)
        z[0] = 1
        alpha = math.log(0.05 / 0.95)  # -2.9444
        init = sw.init_from_side_info(y, z, alpha)
        assert init.k == k
        assert init.values.shape == (k + m,)
        # Systematic magnitudes: floor(8 * 2.9444 + 0.5) = 24, sign from y.
        assert init.values[0] == -24
        assert init.values[5] == 24
        # Parity bits are saturated at exactly +/- s_max.
        assert init.values[k] == 10000
        assert set(np.unique(init.values[k:]).tolist()) <= {-10000, 10000}

    def test_init_sign_of_alpha_irrelevant(self, small_code):
        y = np.zeros(small_code.k, dtype=np.uint8)
        z = np.zeros(small_code.n_rows, dtype=np.uint8)
        a = sw.init_from_side_info(y, z, -2.9444389791664403)
        b = sw.init_from_side_info(y, z, +2.9444389791664403)
        assert np.array_equal(a.values, b.values)
        # an integer too large for a float is a finite alpha: the priors saturate
        sat = sw.init_from_side_info(y, z, 1e9).values
        for huge in (10**400, -(10**400)):
            assert np.array_equal(sw.init_from_side_info(y, z, huge).values, sat)


class TestBpDecode:
    def _decode_with_flips(self, h, flips, p=0.05, max_iters=50):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 2, h.k).astype(np.uint8)
        y = x.copy()
        y[flips] ^= 1
        z = sw.encode(h, x)
        init = sw.init_from_side_info(y, z, math.log(p / (1 - p)))
        out = sw.bp_decode(h, init, max_local_iters=max_iters)
        return x, out

    def test_clean_side_info_exits_at_round_zero(self, desk_code):
        x, out = self._decode_with_flips(desk_code, [])
        assert out.syndrome_ok
        assert out.iterations_used == 0
        assert np.array_equal(out.hard_bits[: desk_code.k], x)

    def test_single_flip_recovery_exhaustive(self, toy_code):
        # Every single-bit flip on the k=32 toy must be corrected quickly.
        for j in range(toy_code.k):
            x, out = self._decode_with_flips(toy_code, [j])
            assert out.syndrome_ok, f"flip at {j} not corrected"
            assert np.array_equal(out.hard_bits[: toy_code.k], x)
            assert out.iterations_used <= 10

    def test_double_flip_recovery(self, toy_code):
        x, out = self._decode_with_flips(toy_code, [3, 17])
        assert out.syndrome_ok
        assert np.array_equal(out.hard_bits[: toy_code.k], x)

    def test_decodes_below_threshold(self, desk_code):
        # k=1024 rate-1/2 staircase at p=0.01: every frame should decode.
        rng = np.random.default_rng(7)
        ok = 0
        for _ in range(100):
            x = rng.integers(0, 2, desk_code.k).astype(np.uint8)
            y = (x ^ (rng.random(desk_code.k) < 0.01)).astype(np.uint8)
            z = sw.encode(desk_code, x)
            init = sw.init_from_side_info(y, z, math.log(0.01 / 0.99))
            out = sw.bp_decode(desk_code, init)
            ok += out.syndrome_ok and np.array_equal(out.hard_bits[: desk_code.k], x)
        assert ok >= 99

    def test_iteration_cap_and_failure_reporting(self, toy_code):
        # Hopeless side information: decoder must run to the cap and say so.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, toy_code.k).astype(np.uint8)
        y = rng.integers(0, 2, toy_code.k).astype(np.uint8)
        z = sw.encode(toy_code, x)
        init = sw.init_from_side_info(y, z, math.log(0.4 / 0.6))
        out = sw.bp_decode(toy_code, init, max_local_iters=5)
        if not out.syndrome_ok:
            assert out.iterations_used == 5

    def test_outcome_structure(self, small_code):
        x, out = self._decode_with_flips(small_code, [2, 100])
        assert out.hard_bits.shape == (small_code.n_cols,)
        assert out.hard_bits.dtype == np.uint8
        assert isinstance(out.posterior, sw.LlrqVector)
        assert np.abs(out.posterior.values).max() <= 10000
        if out.syndrome_ok:
            assert not sw.hard_syndrome(small_code, out.hard_bits).any()

    def test_syndrome_ok_consistent_with_hard_syndrome(self, small_code, rng):
        for trial in range(10):
            x = rng.integers(0, 2, small_code.k).astype(np.uint8)
            y = (x ^ (rng.random(small_code.k) < 0.03)).astype(np.uint8)
            z = sw.encode(small_code, x)
            init = sw.init_from_side_info(y, z, math.log(0.03 / 0.97))
            out = sw.bp_decode(small_code, init)
            assert out.syndrome_ok == (not sw.hard_syndrome(small_code, out.hard_bits).any())

    def test_posterior_parity_sign_matches_z(self, small_code):
        # Transmitted parity bits are pinned by saturated priors; the decoded
        # parity section must reproduce z whenever the syndrome is satisfied.
        rng = np.random.default_rng(12)
        x = rng.integers(0, 2, small_code.k).astype(np.uint8)
        y = (x ^ (rng.random(small_code.k) < 0.02)).astype(np.uint8)
        z = sw.encode(small_code, x)
        init = sw.init_from_side_info(y, z, math.log(0.02 / 0.98))
        out = sw.bp_decode(small_code, init)
        assert out.syndrome_ok
        assert np.array_equal(out.hard_bits[small_code.k :], z)

    def test_warm_start_continues_the_same_run(self, desk_code):
        # Splitting one frame's run into passes of 8 and 12 rounds at one
        # alpha, the second continuing from the first one's messages, must
        # reproduce a 20-round pass on a fresh frame exactly.
        rng = np.random.default_rng(19)
        x = rng.integers(0, 2, desk_code.k).astype(np.uint8)
        y = (x ^ (rng.random(desk_code.k) < 0.075)).astype(np.uint8)
        z = sw.encode(desk_code, x)
        alpha = math.log(0.05 / 0.95)
        whole = SideInfoFrame(desk_code, y, z)
        whole_out = side_info_pass(whole, alpha, 20)
        split = SideInfoFrame(desk_code, y, z)
        head = side_info_pass(split, alpha, 8)
        assert not head.syndrome_ok and head.iterations_used == 8
        tail = side_info_pass(split, alpha, 12)
        assert head.iterations_used + tail.iterations_used == whole_out.iterations_used
        assert tail[1:] == whole_out[1:]
        for a, b in ((split.hard_bits, whole.hard_bits), (split.posterior, whole.posterior),
                     (split.c2v[desk_code.valid], whole.c2v[desk_code.valid])):
            assert np.array_equal(a, b)
        # A decoded state is tested before any round: nothing left to do.
        assert whole_out.syndrome_ok
        bits = whole.hard_bits.copy()
        again = side_info_pass(whole, alpha, 50)
        assert again.syndrome_ok and again.iterations_used == 0
        assert np.array_equal(whole.hard_bits, bits)

    def test_frame_checks_side_info_and_parity(self, toy_code):
        # The compiled pass reads k bytes of y and m of z: shorter arrays, or
        # values other than bits, are refused when the frame is made.
        y, z = np.zeros(toy_code.k, np.uint8), np.zeros(toy_code.m, np.uint8)
        for bad_y, bad_z in ((y[:-1], z), (y, z[:-1]), (y + 2, z), (y, z.astype(np.int64) - 1)):
            with pytest.raises(ValueError, match="side information|parity block"):
                SideInfoFrame(toy_code, bad_y, bad_z)
        frame = SideInfoFrame(toy_code, y.astype(np.int64), z.tolist())
        assert frame.y.dtype == np.uint8
        assert side_info_pass(frame, -2.9, 5) == (0, True, True, 0)

    def test_pass_checks_its_cap(self, backend, desk_code):
        # A cap outside [0, 2**31 - 1] is refused before any round runs, on
        # both backends: ctypes would wrap 2**32 + 3 to 3 rounds in C, and
        # numpy would run up to 2**32 + 3 on a frame that does not decode.
        # So is an alpha that is not a real number: abs(1j) would run at 1.
        _, y, z = _noisy_frame(desk_code, 0.3, 5)
        frame = SideInfoFrame(desk_code, y, z)
        for bad in (2**32 + 3, 2**31, -5, -1, 2.0):
            with pytest.raises(ValueError, match="max_iters"):
                side_info_pass(frame, -2.9, bad)
            assert not frame.c2v.any()
        for bad in (None, "x", 1j, True, math.nan):
            with pytest.raises(ValueError, match="alpha|LLR"):
                side_info_pass(frame, bad, 3)
            assert not frame.c2v.any()
        assert side_info_pass(frame, -2.9, 3)[:2] == (3, False)
        # an integer too large for a float is a finite alpha, run as 1e9 is
        huge, sat = SideInfoFrame(desk_code, y, z), SideInfoFrame(desk_code, y, z)
        assert side_info_pass(huge, -(10**400), 3) == side_info_pass(sat, 1e9, 3)
        assert np.array_equal(huge.posterior, sat.posterior)


def _noisy_frame(h, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, h.k).astype(np.uint8)
    y = (x ^ (rng.random(h.k) < p)).astype(np.uint8)
    return x, y, sw.encode(h, x)


def _one_edge_row_code():
    """k=6 code whose check 0 holds parity column 6 alone."""
    rows = [[6], [0, 1, 2, 6, 7], [2, 3, 4, 7, 8], [0, 4, 5, 8, 9]]
    return sw.SparseParityMatrix(n_rows=4, n_cols=10, k=6, rows=rows)


def _assert_same_outcome(got, want):
    assert got.iterations_used == want.iterations_used
    assert got.syndrome_ok == want.syndrome_ok
    for a, b in ((got.hard_bits, want.hard_bits), (got.posterior.values, want.posterior.values)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.posterior.k == want.posterior.k


def _one_row_code(d):
    """A code of one check on d columns, so that its padded layout has d_max = d."""
    return sw.SparseParityMatrix(n_rows=1, n_cols=d, k=d - 1, rows=[list(range(d))])


@pytest.mark.parametrize("table", [_TABLE], ids=["table"])
def test_pad_is_a_boxplus_identity(table):
    # A scan reduces a row's pads with each other: left and right start at the
    # pad and take in a further pad at each of a row's up to d_max - 1 pad
    # positions. Each of those values must leave every message unchanged.
    def box(a, b):
        return _box_table(a, b, table, table.size - 1)

    x = np.arange(-DEFAULT_S_MAX, DEFAULT_S_MAX + 1, dtype=np.int32)
    for d_max in range(1, 31):
        pad, *_ = _bp_setup(_one_row_code(d_max))
        pads = np.full_like(x, pad)
        acc = pads
        for _ in range(d_max):
            assert np.array_equal(box(x, acc), x) and np.array_equal(box(acc, x), x), d_max
            acc = box(acc, pads)


# the check rule and the decoder's fixed grid, as rule-q-s_max
_ON_GRID = f"table-{DEFAULT_Q}-{DEFAULT_S_MAX}"


class TestReferenceDecoder:
    """bp_decode and the joint decoder's passes against the unpadded,
    row-by-row decoder of oracles.py."""

    @pytest.mark.parametrize("table", [correction_table_ref(DEFAULT_Q)], ids=[_ON_GRID])
    def test_matches_reference(self, backend, toy_code, small_code, ragged_code, table):
        cases = [(toy_code, 6), (small_code, 2), (_one_edge_row_code(), 4), (ragged_code, 2)]
        for h, frames in cases:
            for seed in range(frames):
                _, y, z = _noisy_frame(h, 0.08, seed)
                frame = SideInfoFrame(h, y, z)
                start = None  # a cold pass, then one warm from its messages at another alpha
                for p in (0.08, 0.03):
                    alpha = math.log(p / (1 - p))
                    init = sw.init_from_side_info(y, z, alpha)
                    out = side_info_pass(frame, alpha, 12)
                    bits, rounds, ok, post, c2v = bp_ref(
                        h.rows, init.values, DEFAULT_S_MAX, table, 12, c2v=start
                    )
                    assert out.iterations_used == rounds and out.syndrome_ok == ok
                    assert frame.hard_bits.tolist() == bits
                    assert frame.posterior.tolist() == post
                    start = frame.c2v.T[h.valid.T]  # the messages in row order
                    assert start.tolist() == c2v
                    if p == 0.08:
                        cold = sw.bp_decode(h, init, max_local_iters=12)
                        assert cold.iterations_used == rounds and cold.syndrome_ok == ok
                        assert cold.hard_bits.tolist() == bits
                        assert cold.posterior.values.tolist() == post


class TestBackendsAgree:
    """The compiled loop against the numpy one, field by field."""

    @staticmethod
    def _codes():
        """Row-irregular codes from 4 to 119 rows and one with a single-edge check."""
        rng = np.random.default_rng(4004)
        codes = [_one_edge_row_code()]
        for i in range(24):
            k = int(rng.integers(8, 120))
            m = int(rng.integers(4, k + 1))
            dv = round(float(rng.uniform(1.0, min(3.5, m - 0.5))), 2)
            spec = sw.CodeSpec(id=f"r{i}", k=k, n=k + m, dv_target=dv, design_p=0.1)
            codes.append(sw.build_code(spec, seed=i))
        return codes

    def test_random_codes(self, c_backend, monkeypatch):
        # Cold runs at the design alpha and at the frame's own; passes that
        # continue from earlier messages are test_side_info_passes'.
        for c, h in enumerate(self._codes()):
            for f in range(3):
                p = 0.03 + 0.04 * f
                _, y, z = _noisy_frame(h, p, [c, f])
                inits = [sw.init_from_side_info(y, z, math.log(r / (1 - r))) for r in (0.05, p)]
                for iters in (0, 1, 2, 7, 50):
                    runs = []
                    for lib in (c_backend, None):  # None: the numpy code
                        with monkeypatch.context() as mp:
                            mp.setattr(_native, "_lib", lib)
                            runs.append([sw.bp_decode(h, init, iters) for init in inits])
                    for got, want in zip(*runs):
                        _assert_same_outcome(got, want)

    def test_side_info_passes(self, c_backend, monkeypatch):
        # Three passes per frame that share their messages, as joint_decode
        # runs them, with the caps and estimates changing between passes.
        overruled = 0  # passes that satisfy every check with a parity bit unlike z
        for c, h in enumerate(self._codes()):
            for f in range(3):
                p = 0.03 + 0.04 * f
                _, y, z = _noisy_frame(h, p, [c, f, 1])
                if f > 0:  # a corrupted parity block, which BP may overrule
                    z = z ^ (np.arange(h.m) % (f + 2) == 0).astype(np.uint8)
                runs = []
                for lib in (c_backend, None):  # None: the numpy code
                    with monkeypatch.context() as mp:
                        mp.setattr(_native, "_lib", lib)
                        frame = SideInfoFrame(h, y, z)
                    passes = []
                    for alpha, iters in ((-2.9, 2), (math.log(p / (1 - p)), 7), (-0.4, 0)):
                        out = side_info_pass(frame, alpha, iters)
                        bits = frame.hard_bits
                        assert out.parity_ok == np.array_equal(bits[h.k :], z)
                        assert out.disagreements == np.count_nonzero(bits[: h.k] != y)
                        overruled += out.syndrome_ok and not out.parity_ok
                        passes.append((out, frame.hard_bits.copy(), frame.posterior.copy(),
                                       frame.c2v[h.valid].copy()))
                    runs.append(passes)
                for got, want in zip(*runs):
                    assert got[0] == want[0]
                    for a, b in zip(got[1:], want[1:]):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert overruled > 0

    @staticmethod
    def _one_column_in_every_row(m, k=1):
        """The padded layout of a code whose m rows each hold systematic
        column i % k and the staircase: column 0 has degree ceil(m / k)."""
        i = np.arange(m)
        cols = np.stack([i % k, k + i - 1, k + i])
        cols[1:, 0] = (k, k + m)  # row 0: one parity column, then a pad
        return sw.SparseParityMatrix._from_cols(k + m, k, cols, None)

    @staticmethod
    def _spy(mp, name, made):
        """Wrap _native's name so that each call appends name to made."""
        real = getattr(_native, name)

        def spy(*args):
            made.append(name)
            return real(*args)

        mp.setattr(_native, name, spy)

    def test_int32_total_bound(self, c_backend, monkeypatch):
        # The compiled loop sums a column's channel value and messages in
        # int32, exact while (degree + 1) * s_max <= 2**31 - 1, and a column
        # of 214,747 edges is the heaviest SparseParityMatrix accepts. On a
        # frame whose messages all hold +s_max, column 0 totals degree * s_max
        # plus its channel value, which the decoder negates. alpha = 1e4
        # quantizes to +-s_max, so y = 0 (a stored -s_max) reaches
        # (degree + 1) * s_max. At the bound C must equal numpy.
        degree = sw.codes._MAX_COLUMN_DEGREE
        h = self._one_column_in_every_row(degree)
        assert h.column_weights()[0] == degree == 214_747
        assert (degree + 1) * DEFAULT_S_MAX <= 2**31 - 1 < (degree + 2) * DEFAULT_S_MAX
        assert sw.quantize_llr(1e4) == DEFAULT_S_MAX
        made = []
        for bit in (0, 1):
            y, z = np.full(h.k, bit, np.uint8), np.full(h.m, bit, np.uint8)
            for iters in (0, 1):
                runs = []
                for lib in (c_backend, None):  # None: the numpy code
                    with monkeypatch.context() as mp:
                        mp.setattr(_native, "_lib", lib)
                        self._spy(mp, "SideInfoPass", made)
                        frame = SideInfoFrame(h, y, z)
                    frame.c2v[h.valid] = DEFAULT_S_MAX
                    out = side_info_pass(frame, 1e4, iters)
                    runs.append((out, frame.hard_bits, frame.posterior, frame.c2v[h.valid]))
                (got, *got_arrays), (want, *want_arrays) = runs
                assert got == want
                for a, b in zip(got_arrays, want_arrays):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(made) == 4

    def test_int32_bound_on_tall_and_padded_matrices(self, c_backend, monkeypatch):
        # Past 214,747 rows the degrees decide, and a tall matrix of light
        # columns is accepted. A matrix's pads do not bound its int32 totals:
        # each pad's message lands on the sentinel column, whose total may
        # wrap (in unsigned arithmetic) and is reset before it is read. This
        # one has 429,785 pads, whose messages sum past 2**31 on the
        # sentinel, and runs the compiled loop, which must equal numpy field
        # by field.
        assert self._one_column_in_every_row(214_748, k=2).column_weights().max() == 107_374
        h = sw.SparseParityMatrix(
            n_rows=2000, n_cols=2216, k=216,
            rows=[list(range(217))] + [[215 + i, 216 + i] for i in range(1, 2000)],
        )
        assert h.cols.size - h.edges == 429_785
        # z is all ones, so every staircase row sends its pads messages of
        # one sign; three flips leave check 0 unsatisfied for every round
        x = np.random.default_rng(4006).integers(0, 2, h.k).astype(np.uint8)
        z = sw.encode(h, x)
        y = x.copy()
        y[[3, 50, 99]] ^= 1
        made = []
        runs = []
        for lib in (c_backend, None):  # None: the numpy code
            with monkeypatch.context() as mp:
                mp.setattr(_native, "_lib", lib)
                self._spy(mp, "SideInfoPass", made)
                self._spy(mp, "bp_run", made)
                frame = SideInfoFrame(h, y, z)
                passes = []
                for alpha, iters in ((-2.9, 3), (-0.4, 2), (1e4, 0)):
                    out = side_info_pass(frame, alpha, iters)
                    passes.append((out, frame.hard_bits.copy(), frame.posterior.copy(),
                                   frame.c2v.copy()))
                assert abs(frame.c2v[~h.valid].sum(dtype=np.int64)) > 2**31
                init = sw.init_from_side_info(y, z, -2.9)
                runs.append((passes, sw.bp_decode(h, init, 4)))
        (got, got_cold), (want, want_cold) = runs
        assert got[0][0].iterations_used == 3 and not got[0][0].syndrome_ok
        for g, w in zip(got, want):
            assert g[0] == w[0]
            for a, b in zip(g[1:], w[1:]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        _assert_same_outcome(got_cold, want_cold)
        assert made == ["SideInfoPass", "bp_run"]

    def test_encode(self, c_backend, monkeypatch, toy_code, ragged_code):
        rng = np.random.default_rng(4005)
        for h in [toy_code, *self._codes(), ragged_code]:
            xs = [np.zeros(h.k, np.uint8), np.ones(h.k, np.uint8)]
            xs += [rng.integers(0, 2, h.k).astype(np.uint8) for _ in range(8)]
            for x in xs:
                runs = []
                for lib in (c_backend, None):  # None: the numpy code
                    with monkeypatch.context() as mp:
                        mp.setattr(_native, "_lib", lib)
                        runs.append(sw.encode(h, x))
                got, want = runs
                assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want)
                assert not sw.hard_syndrome(h, np.concatenate([x, got])).any()


class TestHardSyndrome:
    def test_zero_codeword(self, small_code):
        bits = np.zeros(small_code.n_cols, dtype=np.uint8)
        assert not sw.hard_syndrome(small_code, bits).any()

    def test_valid_codeword(self, small_code, rng):
        x = rng.integers(0, 2, small_code.k).astype(np.uint8)
        c = np.concatenate([x, sw.encode(small_code, x)])
        assert not sw.hard_syndrome(small_code, c).any()
        c[0] ^= 1
        s = sw.hard_syndrome(small_code, c)
        assert s.any()
        # Flipping one systematic bit trips exactly its column's checks.
        assert s.sum() == int(small_code.column_weights()[0])

    def test_random_words_match_dense_oracle(self, toy_code, small_code, rng):
        # Words that are not codewords: every check's parity must agree with
        # the dense matrix product, not only the all-satisfied case.
        for h in (toy_code, small_code):
            dense = h.to_dense()
            for _ in range(20):
                c = rng.integers(0, 2, h.n_cols).astype(np.uint8)
                want = gf2_syndrome(dense, c)
                assert want.any()
                assert np.array_equal(sw.hard_syndrome(h, c), want)


# sha256 digests of the outputs below, computed before the padded edge
# layout replaced the decoder's index arrays; any rewrite must match them.
GOLDEN = {
    "desk_code-table": "a68cf1855b2b3ec4fa42850dd647e22602552f5c77f90130a8b44a4f90553702",
    "irregular_code-table": "266f08d71bd4d845aeb380cddabaabc85ec7489735f01b8c2bc24d68ca2ba95f",
    "small-table": "b0cb170de1c881ed1746bd0c66dfafffa513d2fd80c87bcf5200979c8bbe4135",
    "joint": "ef2dec2281b3f27724fdf0c11aa4226be72a36b383b8aa81228b7a764f4329f0",
    "sweep-csv": "588a0ab0bd982c367f75400643be394ee2b9d5d5720d9a7eb7275be47675aea1",
}


def _digest(*items) -> bytes:
    """Hex sha256 over integer arrays (as int64) and the repr of everything else."""
    md = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            md.update(np.ascontiguousarray(item, dtype=np.int64).tobytes())
        else:
            md.update(repr(item).encode())
        md.update(b"|")
    return md.hexdigest().encode()


def _pass_digest(h, frame, out) -> bytes:
    """The digest of a pass on frame: its hard bits, rounds, syndrome flag,
    posterior and messages, these in row order."""
    return _digest(frame.hard_bits, out.iterations_used, out.syndrome_ok, frame.posterior,
                   frame.c2v.T[h.valid.T])


def _assert_cold_run_is_first_pass(h, y, z, alpha, iters, frame, out):
    """bp_decode from init_from_side_info(y, z, alpha) equals the first pass
    out on frame, field by field."""
    cold = sw.bp_decode(h, sw.init_from_side_info(y, z, alpha), iters)
    assert (cold.iterations_used, cold.syndrome_ok) == (out.iterations_used, out.syndrome_ok)
    assert np.array_equal(cold.hard_bits, frame.hard_bits)
    assert np.array_equal(cold.posterior.values, frame.posterior)


class TestGoldenOutputs:
    """Digests of decoder and sweep outputs on fixed frames, pinned so that a
    rewrite of the edge layout or the kernels must reproduce them bit for bit."""

    P = np.linspace(0.03, 0.09, 40)

    def _frames(self, h, every=1):
        for i, p in enumerate(self.P[::every]):
            rng = np.random.default_rng(np.random.SeedSequence((3003, i)))
            x = rng.integers(0, 2, h.k).astype(np.uint8)
            y = (x ^ (rng.random(h.k) < p)).astype(np.uint8)
            yield float(p), x, y, sw.encode(h, x)

    @pytest.fixture(scope="class")
    def irregular_code(self):
        # fractional dv: rows of weight 8, 9 and 10
        spec = sw.CodeSpec(id="R256", k=256, n=384, dv_target=3.3, design_p=0.05)
        return sw.build_code(spec, seed=5)

    # the ids, like the GOLDEN keys, name the check rule the digests are of
    @pytest.mark.parametrize("code", ["desk_code", "irregular_code"], ids="table-{}".format)
    def test_bp_decode_cold_and_warm(self, request, code):
        h = request.getfixturevalue(code)
        md = hashlib.sha256()
        design = math.log(0.05 / 0.95)
        for p, x, y, z in self._frames(h):
            frame = SideInfoFrame(h, y, z)
            cold = side_info_pass(frame, design, 12)
            _assert_cold_run_is_first_pass(h, y, z, design, 12, frame, cold)
            md.update(_pass_digest(h, frame, cold))
            warm = side_info_pass(frame, math.log(p / (1 - p)), 50)
            md.update(_pass_digest(h, frame, warm))
        assert md.hexdigest() == GOLDEN[f"{code}-table"]

    @pytest.mark.parametrize("key", ["small-table"], ids=["table"])
    def test_bp_decode_small_random_codes(self, key):
        # Codes of 4 to 39 rows with uneven row weights, stopped after 1, 2
        # and 7 rounds: a pad leaking into a row's parity shows here first.
        rng = np.random.default_rng(2024)
        md = hashlib.sha256()
        design = math.log(0.05 / 0.95)
        for i in range(40):
            k = int(rng.integers(8, 40))
            m = int(rng.integers(4, k + 1))
            dv = round(float(rng.uniform(1.0, min(3.5, m - 0.5))), 2)
            spec = sw.CodeSpec(id=f"r{i}", k=k, n=k + m, dv_target=dv, design_p=0.1)
            h = sw.build_code(spec, seed=i)
            for p, x, y, z in self._frames(h, every=4):
                for iters in (1, 2, 7):
                    frame = SideInfoFrame(h, y, z)
                    out = side_info_pass(frame, design, iters)
                    _assert_cold_run_is_first_pass(h, y, z, design, iters, frame, out)
                    md.update(_pass_digest(h, frame, out))
        assert md.hexdigest() == GOLDEN[key]

    def test_joint_decode(self, desk_code):
        md = hashlib.sha256()
        for p, x, y, z in self._frames(desk_code):
            res = sw.joint_decode(desk_code, z, y, design_p=0.05)
            trace = [(r.index, r.alpha, r.p_hat, r.syndrome_ok) for r in res.final_state.trace]
            md.update(_digest(
                res.x_hat, res.success, res.global_iters_used, res.local_iters_total,
                res.final_state.alpha, res.final_state.p_hat, trace,
            ))
        assert md.hexdigest() == GOLDEN["joint"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sweep_csv(self, workers):
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.04, 0.0), (0.07, 0.01)], frames=24, seed=3003
        )
        csv = sw.emit_report(sw.run_sweep(cfg, workers=workers))
        assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN["sweep-csv"]


class TestGoldenOutputsNumpy(TestGoldenOutputs):
    """The same digests from the numpy code, the fallback of the compiled loop."""

    @pytest.fixture(autouse=True)
    def _numpy(self, numpy_backend):
        pass
