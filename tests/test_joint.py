"""Two-stage decoding: correlation estimation and the global loop."""

import dataclasses
import math

import numpy as np
import pytest

import swldpc as sw
from swldpc import _native
from oracles import alpha_ref


class TestInitialAlpha:
    def test_frozen_values(self):
        assert sw.initial_alpha(0.05) == pytest.approx(-2.9444, abs=1e-4)
        assert sw.initial_alpha(0.1) == pytest.approx(-2.1972, abs=1e-4)

    def test_symmetric_limit(self):
        assert sw.initial_alpha(0.4999999) == pytest.approx(0.0, abs=1e-5)
        assert sw.initial_alpha(0.4999999) < 0.0

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.9])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            sw.initial_alpha(bad)


class TestEstimateAlpha:
    def test_frozen_example(self):
        # k=16400 with 410 disagreements: p_hat = 0.025 exactly.
        x_hat = np.zeros(16400, dtype=np.uint8)
        y = np.zeros(16400, dtype=np.uint8)
        y[:410] = 1
        st = sw.estimate_alpha(x_hat, y)
        assert st.p_hat == 410 / 16400
        assert st.p_hat == 0.025
        assert st.alpha == pytest.approx(-3.6636, abs=1e-4)

    def test_exactness_on_random_pairs(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 3000))
            w = int(rng.integers(0, k + 1))
            x_hat = np.zeros(k, dtype=np.uint8)
            y = np.zeros(k, dtype=np.uint8)
            y[:w] = 1
            st = sw.estimate_alpha(x_hat, y)
            wc = min(max(w, 1), k - 1)
            assert st.p_hat == wc / k
            assert abs(st.alpha - alpha_ref(wc, k)) <= 1e-12

    def test_antisymmetry_exact(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 2000))
            w = int(rng.integers(1, k))
            x_hat = np.zeros(k, dtype=np.uint8)
            y = np.zeros(k, dtype=np.uint8)
            y[:w] = 1
            a_w = sw.estimate_alpha(x_hat, y).alpha
            y2 = np.zeros(k, dtype=np.uint8)
            y2[: k - w] = 1
            a_kw = sw.estimate_alpha(x_hat, y2).alpha
            assert a_w == -a_kw

    def test_half_split_is_zero(self):
        x_hat = np.zeros(100, dtype=np.uint8)
        y = np.zeros(100, dtype=np.uint8)
        y[:50] = 1
        assert sw.estimate_alpha(x_hat, y).alpha == 0.0

    def test_degenerate_clamps(self):
        k = 64
        same = np.ones(k, dtype=np.uint8)
        st = sw.estimate_alpha(same, same)
        assert st.p_hat == 1 / k
        assert math.isfinite(st.alpha)
        st2 = sw.estimate_alpha(same, 1 - same)
        assert st2.p_hat == (k - 1) / k
        assert st2.alpha == -st.alpha

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sw.estimate_alpha(np.zeros(4, np.uint8), np.zeros(5, np.uint8))


def _frame(h, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, h.k).astype(np.uint8)
    y = (x ^ (rng.random(h.k) < p)).astype(np.uint8)
    return x, y, sw.encode(h, x)


class TestJointDecode:
    def test_success_roundtrip_and_trace(self, desk_code):
        x, y, z = _frame(desk_code, 0.03, seed=21)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert res.success
        assert np.array_equal(res.x_hat, x)
        # Success means the reconstruction re-encodes to the transmitted z.
        assert np.array_equal(sw.encode(desk_code, res.x_hat), z)
        # On success the estimator sees the true disagreement count.
        true_frac = np.count_nonzero(x ^ y) / desk_code.k
        assert res.final_state.p_hat == true_frac
        # Trace entries stay internally consistent.
        for rec in res.final_state.trace:
            assert rec.alpha == pytest.approx(
                math.log(rec.p_hat / (1 - rec.p_hat)), abs=1e-12
            )
        assert res.global_iters_used == len(res.final_state.trace)

    def test_converged_frame_takes_one_global(self, desk_code, monkeypatch):
        # The first pass decodes, and a decoded pass ends the decode.
        x, y, z = _frame(desk_code, 0.02, seed=5)
        real = sw.bp.side_info_pass
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("swldpc.joint.side_info_pass", counting)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert res.success
        assert len(calls) == 1
        assert res.global_iters_used == len(res.final_state.trace) == 1

    def test_stopping_rule_shape(self, desk_code):
        # A decode ends at a decoded pass, at a stalled estimate or at the cap.
        x, y, z = _frame(desk_code, 0.02, seed=9)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=5)
        trace = res.final_state.trace
        assert 1 <= len(trace) <= 5
        if res.success:
            assert trace[-1].syndrome_ok
        elif len(trace) < 5:
            alphas = [sw.initial_alpha(0.05)] + [t.alpha for t in trace]
            assert abs(alphas[-1] - alphas[-2]) < sw.ALPHA_TOLERANCE

    def test_perfect_side_info(self, desk_code):
        x = np.random.default_rng(2).integers(0, 2, desk_code.k).astype(np.uint8)
        z = sw.encode(desk_code, x)
        res = sw.joint_decode(desk_code, z, x.copy(), design_p=0.05)
        assert res.success
        assert np.array_equal(res.x_hat, x)
        # w clamps to 1: p_hat pinned just above zero.
        assert res.final_state.p_hat == 1 / desk_code.k

    def test_alpha_adapts_to_actual_p(self, desk_code):
        # Design point 0.05, actual flips at 0.01: the trace must move
        # p_hat to the empirical fraction.
        x, y, z = _frame(desk_code, 0.01, seed=31)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert res.success
        assert res.final_state.p_hat == np.count_nonzero(x ^ y) / desk_code.k
        assert res.final_state.p_hat < 0.02

    def test_failure_path_runs_all_globals(self, desk_code):
        # Uncorrelated side information cannot be decoded: every global
        # round runs, every BP hits its local cap.
        rng = np.random.default_rng(77)
        x = rng.integers(0, 2, desk_code.k).astype(np.uint8)
        y = rng.integers(0, 2, desk_code.k).astype(np.uint8)
        z = sw.encode(desk_code, x)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05, max_local=10)
        assert not res.success
        assert res.global_iters_used == 5
        assert res.local_iters_total == 5 * 10
        assert len(res.final_state.trace) == 5

    def test_success_flag_demands_exact_parity(self, desk_code):
        # success requires both a satisfied syndrome and parity bits equal
        # to the transmitted z; a decodable frame delivers both.
        x, y, z = _frame(desk_code, 0.04, seed=55)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert res.success
        assert np.array_equal(sw.encode(desk_code, res.x_hat), z)

    def test_global_cap_respected(self, desk_code):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=1)
        assert res.global_iters_used == 1
        assert len(res.final_state.trace) == 1

    def test_input_validation(self, desk_code):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        with pytest.raises(ValueError):
            sw.joint_decode(desk_code, z[:-1], y, design_p=0.05)
        with pytest.raises(ValueError):
            sw.joint_decode(desk_code, z, y[:-1], design_p=0.05)
        with pytest.raises(ValueError):
            sw.joint_decode(desk_code, z, y, design_p=0.6)


    def test_failed_pass_estimates_from_posterior(self, desk_code):
        # p = 0.1 lies beyond the threshold of D1's (3, 6) ensemble (about
        # 0.084), so every pass fails. Its hard decisions lean towards y and
        # undercount the flips; the posterior expectation must land closer.
        x, y, z = _frame(desk_code, 0.1, seed=0)
        actual = np.count_nonzero(x ^ y) / desk_code.k
        for max_global in (1, 5):
            res = sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=max_global)
            assert not res.success
            hard = sw.estimate_alpha(res.x_hat, y).p_hat
            assert abs(res.final_state.p_hat - actual) < abs(hard - actual)
            assert res.final_state.p_hat == res.final_state.trace[-1].p_hat

    def test_decoded_first_pass_ends_the_decode(self, desk_code, monkeypatch):
        # Every pass after the first would be made to fail; none runs, because
        # the first pass satisfied every check and reproduced z.
        x, y, z = _frame(desk_code, 0.02, seed=5)
        real = sw.bp.side_info_pass
        calls = []

        def failing_after_first(frame, *args, **kwargs):
            out = real(frame, *args, **kwargs)
            calls.append(out)
            if len(calls) == 1:
                return out
            frame.hard_bits[:8] ^= 1  # the buffer the first pass's decode came from
            return out._replace(syndrome_ok=False)

        monkeypatch.setattr("swldpc.joint.side_info_pass", failing_after_first)
        res = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert len(calls) == 1
        assert [t.syndrome_ok for t in res.final_state.trace] == [True]
        assert res.success
        assert np.array_equal(res.x_hat, x)
        assert res.final_state.p_hat == np.count_nonzero(x ^ y) / desk_code.k


NOT_BITS = [2, 0.5, np.nan]


class TestValidation:
    """joint_decode checks y and z once; the public helpers it no longer
    calls per pass keep their own checks."""

    @pytest.mark.parametrize("bad", NOT_BITS)
    @pytest.mark.parametrize("which", ["y", "z"])
    def test_decoders_reject_non_bits(self, desk_code, which, bad):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        y, z = y.astype(float), z.astype(float)
        (y if which == "y" else z)[5] = bad
        with pytest.raises(ValueError, match="only 0s and 1s"):
            sw.joint_decode(desk_code, z, y, design_p=0.05)
        with pytest.raises(ValueError, match="only 0s and 1s"):
            sw.non_iterative_decode(desk_code, z, y, design_p=0.05)

    @pytest.mark.parametrize("max_global", [0, -1])
    def test_joint_decode_rejects_global_cap_below_one(self, desk_code, max_global):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        with pytest.raises(ValueError, match="max_global must be >= 1"):
            sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=max_global)

    def test_decoders_reject_negative_local_cap(self, desk_code):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        alpha = sw.initial_alpha(0.05)
        calls = [
            lambda: sw.joint_decode(desk_code, z, y, design_p=0.05, max_local=-1),
            lambda: sw.non_iterative_decode(desk_code, z, y, design_p=0.05, max_local=-3),
            lambda: sw.bp_decode(desk_code, y, z, alpha, max_local_iters=-1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be >= 0"):
                call()
        # a cap of 0 runs the bit-node update alone
        assert sw.joint_decode(desk_code, z, y, design_p=0.05, max_local=0).local_iters_total == 0

    def test_decoders_reject_non_integer_caps(self, backend, desk_code):
        # Caps are checked as integers before either backend sees them, so
        # both raise the same ValueError (the compiled call raised a ctypes
        # error, numpy a TypeError).
        x, y, z = _frame(desk_code, 0.02, seed=3)
        alpha = sw.initial_alpha(0.05)
        calls = [
            lambda: sw.bp_decode(desk_code, y, z, alpha, 2.5),
            lambda: sw.bp_decode(desk_code, y, z, alpha, True),
            lambda: sw.joint_decode(desk_code, z, y, design_p=0.05, max_local=2.5),
            lambda: sw.non_iterative_decode(desk_code, z, y, design_p=0.05, max_local=2.5),
            lambda: sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=2.5),
            lambda: sw.joint_decode(desk_code, z, y, design_p=0.05, max_global="3"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be an integer"):
                call()

    def test_decoders_accept_numpy_integer_caps(self, backend, desk_code):
        x, y, z = _frame(desk_code, 0.06, seed=8)
        alpha = sw.initial_alpha(0.05)
        a = sw.bp_decode(desk_code, y, z, alpha, np.int64(7))
        b = sw.bp_decode(desk_code, y, z, alpha, 7)
        assert a.iterations_used == b.iterations_used
        assert np.array_equal(a.posterior.values, b.posterior.values)
        a = sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=np.int32(3),
                            max_local=np.int64(7))
        b = sw.joint_decode(desk_code, z, y, design_p=0.05, max_global=3, max_local=7)
        assert a.final_state.trace == b.final_state.trace
        assert np.array_equal(a.x_hat, b.x_hat)
        a = sw.non_iterative_decode(desk_code, z, y, design_p=0.05, max_local=np.uint8(7))
        b = sw.non_iterative_decode(desk_code, z, y, design_p=0.05, max_local=7)
        assert a.final_state.trace == b.final_state.trace

    def test_decoders_reject_missing_design_p(self, tmp_path):
        # An alist whose header says design_p=none loads with design_p None;
        # passing that on is the decoders' ValueError, not a TypeError.
        spec = sw.CodeSpec(id="x", k=64, n=96, dv_target=3.0, design_p=None)
        path = tmp_path / "none.alist"
        sw.save_alist(sw.build_code(spec), path)
        assert "design_p=none" in path.read_text().splitlines()[0]
        h = sw.load_alist(path)
        assert h.design_p is None
        x, y, z = _frame(h, 0.02, seed=3)
        for bad in (h.design_p, "0.05", float("nan")):
            for call in (sw.joint_decode, sw.non_iterative_decode):
                with pytest.raises(ValueError, match=r"design_p must lie in \(0, 0.5\)"):
                    call(h, z, y, bad)

    def test_decoders_reject_local_cap_above_int32(self, backend, desk_code):
        # the compiled loop counts rounds in an int32; both backends share the bound
        x, y, z = _frame(desk_code, 0.02, seed=3)
        alpha = sw.initial_alpha(0.05)
        calls = [
            lambda: sw.joint_decode(desk_code, z, y, design_p=0.05, max_local=2**31),
            lambda: sw.non_iterative_decode(desk_code, z, y, design_p=0.05, max_local=2**40),
            lambda: sw.bp_decode(desk_code, y, z, alpha, max_local_iters=2**31),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="<= 2147483647"):
                call()

    @pytest.mark.parametrize("call", [
        lambda bad: sw.build_code(sw.get_code_spec("D1"), seed=bad),
        lambda bad: sw.build_code(sw.get_code_spec("D1"), max_bfs_levels=bad),
        sw.binary_entropy,
        sw.sw_limits,
    ], ids=["build_code-seed", "build_code-max_bfs_levels", "binary_entropy", "sw_limits"])
    @pytest.mark.parametrize("bad", [None, "3", 1j, True, 2.5, -1])
    def test_public_callables_reject_wrong_scalars(self, backend, call, bad):
        # one ValueError on both backends, never a TypeError or ctypes.ArgumentError
        with pytest.raises(ValueError):
            call(bad)

    @pytest.mark.parametrize("bad", NOT_BITS)
    def test_public_helpers_reject_non_bits(self, desk_code, bad):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        bad_y, bad_z = y.astype(float), z.astype(float)
        bad_y[7] = bad_z[7] = bad
        alpha = sw.initial_alpha(0.05)
        post = sw.bp_decode(desk_code, y, z, alpha).posterior
        calls = [
            lambda: sw.init_from_side_info(bad_y, z, alpha),
            lambda: sw.init_from_side_info(y, bad_z, alpha),
            lambda: sw.estimate_alpha(bad_y, y),
            lambda: sw.estimate_alpha(x, bad_y),
            lambda: sw.estimate_alpha_posterior(post, bad_y),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="only 0s and 1s"):
                call()

    def test_public_helpers_keep_their_other_checks(self, desk_code):
        x, y, z = _frame(desk_code, 0.02, seed=3)
        for bad in (math.inf, None, "x", 1j, True):
            with pytest.raises(ValueError, match="finite real"):
                sw.init_from_side_info(y, z, bad)
        with pytest.raises(ValueError, match="two bits"):
            sw.estimate_alpha(x[:1], y[:1])
        init = sw.init_from_side_info(y, z, -2.9)
        with pytest.raises(ValueError, match="two bits"):
            sw.estimate_alpha_posterior(init, y[:1])
        with pytest.raises(ValueError, match="posterior has"):
            sw.estimate_alpha_posterior(sw.LlrqVector(init.values[:10]), y)


def _joint_fields(res):
    trace = [dataclasses.astuple(r) for r in res.final_state.trace]
    return (res.x_hat.dtype, res.x_hat.tolist(), res.success, res.global_iters_used,
            res.local_iters_total, res.final_state.alpha, res.final_state.p_hat, trace)


class TestBackendsAgree:
    """joint_decode under the compiled loop and under numpy, field by field."""

    def _both(self, c_backend, monkeypatch, decode):
        results = []
        for lib in (c_backend, None):  # None: the numpy code
            with monkeypatch.context() as mp:
                mp.setattr(_native, "_lib", lib)
                results.append(decode())
        return results

    def test_d2_waterfall(self, c_backend, monkeypatch, d2_code):
        # p = 0.025 +- 0.005 on D2 (design 0.02): a share of the passes fail,
        # so the posterior estimate and the warm start between passes run.
        h = d2_code
        rng = np.random.default_rng(np.random.SeedSequence((2525, 40)))
        failed_passes = 0
        for f in range(40):
            p = 0.02 + 0.01 * rng.random()
            x = rng.integers(0, 2, h.k).astype(np.uint8)
            y = (x ^ (rng.random(h.k) < p)).astype(np.uint8)
            z = sw.encode(h, x)
            got, want = self._both(
                c_backend, monkeypatch, lambda: sw.joint_decode(h, z, y, h.design_p)
            )
            assert _joint_fields(got) == _joint_fields(want), f
            failed_passes += sum(not r.syndrome_ok for r in got.final_state.trace)
        assert failed_passes > 0

    def test_ragged_rows(self, c_backend, monkeypatch, ragged_code):
        h = ragged_code
        assert sorted(set(h.row_weights().tolist())) == list(range(1, 31))
        for f, p in enumerate(np.linspace(0.005, 0.06, 12)):
            x, y, z = _frame(h, p, seed=[f, 9])
            got, want = self._both(
                c_backend, monkeypatch,
                lambda: sw.joint_decode(h, z, y, 0.02),
            )
            assert _joint_fields(got) == _joint_fields(want), (f, p)

    def test_non_iterative(self, c_backend, monkeypatch, ragged_code):
        h = ragged_code
        outcomes = set()
        for f, p in enumerate(np.linspace(0.005, 0.08, 16)):
            x, y, z = _frame(h, p, seed=[f, 11])
            got, want = self._both(
                c_backend, monkeypatch,
                lambda: sw.non_iterative_decode(h, z, y, 0.02),
            )
            assert _joint_fields(got) == _joint_fields(want), (f, p)
            outcomes.add(got.success)
        assert outcomes == {True, False}


class TestNonIterativeDecode:
    def test_matches_single_global_joint(self, monkeypatch, desk_code, d2_code):
        # field for field, trace and final_state included, on each backend:
        # on D2 at p = 0.03 (design 0.02) the frame of seed 0 fails its pass
        # and that of seed 8 decodes, so a failed pass reports the posterior
        # estimate too
        cases = [(desk_code, 41, 0.05), (d2_code, 0, 0.02), (d2_code, 8, 0.02)]
        for lib in (_native.lib(), None):  # None: the numpy code
            monkeypatch.setattr(_native, "_lib", lib)
            outcomes = []
            for h, seed, design_p in cases:
                x, y, z = _frame(h, 0.03, seed=seed)
                a = sw.non_iterative_decode(h, z, y, design_p=design_p)
                b = sw.joint_decode(h, z, y, design_p=design_p, max_global=1)
                assert _joint_fields(a) == _joint_fields(b), (lib, seed)
                assert a.global_iters_used == 1
                outcomes.append(a.success)
            assert outcomes[1:] == [False, True]

    def test_identical_reconstruction_when_first_bp_converges(self, desk_code):
        x, y, z = _frame(desk_code, 0.03, seed=43)
        res_n = sw.non_iterative_decode(desk_code, z, y, design_p=0.05)
        res_j = sw.joint_decode(desk_code, z, y, design_p=0.05)
        assert res_n.success and res_j.success
        assert np.array_equal(res_n.x_hat, res_j.x_hat)

    def test_single_trace_entry(self, desk_code):
        x, y, z = _frame(desk_code, 0.03, seed=47)
        res = sw.non_iterative_decode(desk_code, z, y, design_p=0.05)
        assert len(res.final_state.trace) == 1
