"""Code registry, PEG construction, staircase invariants, alist i/o."""

import io
import zlib

import numpy as np
import pytest

import swldpc as sw
from swldpc import _native
from oracles import gf2_rank


class TestCodeSpec:
    @pytest.mark.parametrize(
        "cid,k,n,dv,p,rate",
        [
            ("L1", 16400, 26200, 3.0, 0.1, 0.597),
            ("L2", 16400, 22400, 3.21, 0.05, 0.365),
            ("L3", 16400, 20300, 3.45, 0.025, 0.237),
            ("L4", 16400, 19500, 3.0, 0.015, 0.189),
        ],
    )
    def test_registry_production_rows(self, cid, k, n, dv, p, rate):
        spec = sw.get_code_spec(cid)
        assert (spec.k, spec.n) == (k, n)
        assert spec.dv_target == dv
        assert spec.design_p == p
        assert spec.rate_x == rate
        assert spec.exact_rate_x == (n - k) / k
        assert spec.m == n - k

    def test_registry_desk_rows(self):
        d1 = sw.get_code_spec("D1")
        d2 = sw.get_code_spec("D2")
        assert (d1.k, d1.n, d1.exact_rate_x) == (1024, 1536, 0.5)
        assert (d2.k, d2.n, d2.exact_rate_x) == (4096, 5120, 0.25)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown code id"):
            sw.get_code_spec("L9")

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            sw.CodeSpec(id="x", k=0, n=10, dv_target=3.0, design_p=0.1)
        with pytest.raises(ValueError):
            sw.CodeSpec(id="x", k=10, n=10, dv_target=3.0, design_p=0.1)
        with pytest.raises(ValueError):
            sw.CodeSpec(id="x", k=10, n=20, dv_target=3.0, design_p=0.7)

    def test_rate_x_must_match_geometry(self):
        with pytest.raises(ValueError, match="disagrees"):
            sw.CodeSpec(id="x", k=100, n=150, dv_target=3.0, design_p=0.05, rate_x=0.7)

    def test_design_p_optional(self):
        spec = sw.CodeSpec(id="x", k=8, n=12, dv_target=2.0, design_p=None)
        assert spec.design_p is None


class TestStaircaseStructure:
    def test_tiny_staircase_dense(self):
        # k=4, n=6: the parity block must be the 2x2 unit lower bidiagonal.
        spec = sw.CodeSpec(id="tiny", k=4, n=6, dv_target=1.5, design_p=None)
        h = sw.build_code(spec, seed=0)
        dense = h.to_dense()
        assert np.array_equal(dense[:, 4:], np.array([[1, 0], [1, 1]]))

    def test_staircase_band_general(self, small_code):
        h = small_code
        dense = h.to_dense()
        stair = dense[:, h.k :]
        m = h.n_rows
        expect = np.zeros((m, m), dtype=np.uint8)
        expect[0, 0] = 1
        for i in range(1, m):
            expect[i, i - 1] = 1
            expect[i, i] = 1
        assert np.array_equal(stair, expect)

    def test_row_without_current_stair_column_rejected(self):
        spec = sw.CodeSpec(id="tiny", k=4, n=6, dv_target=1.5, design_p=None)
        h = sw.build_code(spec, seed=0)
        rows = [r.copy() for r in h.rows]
        rows[1] = np.array([0, 4], dtype=np.int32)
        with pytest.raises(ValueError, match="staircase"):
            sw.SparseParityMatrix(n_rows=2, n_cols=6, k=4, rows=rows, design_p=None)

    def test_non_integral_or_huge_entries_rejected(self):
        # Entries are neither truncated nor wrapped to fit an integer type;
        # the error names the row.
        for row, reason in (([1.7, 4, 5], "integers"), ([1, 2**40, 5], "increasing"),
                            ([1, 4, 2**40], "out of range"), ([1, 4, 2**80], "out of range"),
                            ([1, float("nan"), 5], "integers")):
            with pytest.raises(ValueError, match=rf"^row 1: .*{reason}"):
                sw.SparseParityMatrix(n_rows=2, n_cols=6, k=4, rows=[[0, 2, 4], row])
        # Order is tested exactly: these steps would wrap to positive in int32.
        with pytest.raises(ValueError, match="^row 1: .*increasing"):
            sw.SparseParityMatrix(n_rows=2, n_cols=6, k=4,
                                  rows=[[0, 2, 4], [1, 2**31 - 1, -2, 5]])
        h = sw.SparseParityMatrix(n_rows=2, n_cols=6, k=4, rows=[[0, 2, 4], [1.0, 4, 5]])
        assert [r.tolist() for r in h.rows] == [[0, 2, 4], [1, 4, 5]]

    def test_full_rank(self, desk_code):
        # The staircase block makes H full row rank by construction.
        assert gf2_rank(desk_code.to_dense()) == desk_code.n_rows


class TestConstruction:
    def test_two_valued_profile_exact_mean(self):
        # dv=3.21 on k=2000 splits into 420 columns of degree 4, 1580 of 3.
        spec = sw.CodeSpec(id="t2k", k=2000, n=2630, dv_target=3.21, design_p=0.05)
        h = sw.build_code(spec, seed=3)
        sysw = h.column_weights()[:2000]
        assert set(np.unique(sysw)) == {3, 4}
        assert np.count_nonzero(sysw == 4) == 420
        assert float(sysw.mean()) == pytest.approx(3.21)
        assert h.mean_systematic_column_weight() == pytest.approx(3.21)

    def test_explicit_profile_exact_counts(self):
        spec = sw.CodeSpec(
            id="tp", k=600, n=900, dv_target=3.1, design_p=0.05,
            degree_profile=((2, 180), (3, 300), (5, 120)),
        )
        sysw = sw.build_code(spec, seed=4).column_weights()[:600]
        assert np.bincount(sysw).tolist() == [0, 0, 180, 300, 0, 120]

    def test_registry_l2_profile(self):
        spec = sw.get_code_spec("L2")
        counts = dict(spec.degree_profile)
        assert sum(counts.values()) == spec.k
        assert sum(d * c for d, c in counts.items()) / spec.k == pytest.approx(3.21, abs=1e-12)
        # Only L2 carries an explicit profile; the other codes keep the split.
        others = [s.id for s in sw.CODE_REGISTRY.values() if s.degree_profile is not None]
        assert others == ["L2"]

    def test_explicit_profile_validation(self):
        with pytest.raises(ValueError, match="sum to k"):
            sw.CodeSpec(id="x", k=10, n=16, dv_target=3.0, design_p=0.05,
                        degree_profile=((3, 9),))
        with pytest.raises(ValueError, match="disagrees"):
            sw.CodeSpec(id="x", k=10, n=16, dv_target=3.0, design_p=0.05,
                        degree_profile=((2, 5), (3, 5)))
        with pytest.raises(ValueError, match="degrees >= 1"):
            sw.CodeSpec(id="x", k=10, n=16, dv_target=3.0, design_p=0.05,
                        degree_profile=((0, 1), (3, 9)))
        spec = sw.CodeSpec(id="x", k=10, n=14, dv_target=3.0, design_p=0.05,
                           degree_profile=((1, 5), (5, 5)))
        with pytest.raises(sw.ConstructionError, match="exceeds the row count"):
            sw.build_code(spec)

    def test_integral_profile_is_regular(self, small_code):
        sysw = small_code.column_weights()[: small_code.k]
        assert set(np.unique(sysw)) == {3}

    def test_row_weights_concentrated(self, desk_code):
        # PEG's lightest-row tie-break keeps systematic row weights tightly
        # concentrated: spread at most 2, with the bulk at the mean.
        stair = np.array(
            [1] + [2] * (desk_code.n_rows - 1), dtype=np.int64
        )
        sysw = desk_code.row_weights() - stair
        assert sysw.max() - sysw.min() <= 2
        mode_share = np.count_nonzero(sysw == 6) / sysw.size
        assert mode_share > 0.8

    def test_four_cycle_free_at_k1024(self, desk_code):
        assert desk_code.systematic_four_cycle_free()

    def test_deterministic_given_seed(self):
        # With an integral dv the seed has nothing to shuffle, so the result
        # must not depend on it at all; with a fractional dv the seed picks
        # the high-degree columns and different seeds give different graphs.
        spec = sw.CodeSpec(id="t", k=256, n=384, dv_target=3.0, design_p=0.05)
        assert sw.build_code(spec, seed=5) == sw.build_code(spec, seed=6)
        frac = sw.CodeSpec(id="tf", k=256, n=384, dv_target=3.3, design_p=0.05)
        a = sw.build_code(frac, seed=5)
        b = sw.build_code(frac, seed=5)
        c = sw.build_code(frac, seed=6)
        assert a == b
        assert a != c

    def test_profile_infeasible_raises(self):
        spec = sw.CodeSpec(id="t", k=16, n=18, dv_target=5.0, design_p=0.05)
        with pytest.raises(sw.ConstructionError, match="exceeds the row count"):
            sw.build_code(spec)
        spec = sw.CodeSpec(id="t", k=16, n=24, dv_target=0.4, design_p=0.05)
        with pytest.raises(sw.ConstructionError, match="dv_target"):
            sw.build_code(spec)

    def test_matrix_invariants(self, small_code):
        h = small_code
        assert h.n_cols == h.k + h.n_rows
        weights = h.column_weights()
        assert weights.sum() == sum(len(r) for r in h.rows)
        assert h.row_weights().tolist() == [len(r) for r in h.rows]
        # The matrix is its own edge layout.
        assert h.decode_plan() is h and h.encode_plan() is h
        deg = h.row_weights()
        assert h.cols.shape == (deg.max(), h.n_rows)
        # Row i's edges fill its first deg[i] slots, every other slot is a pad
        # on the sentinel column, and the edges read in row-major order are
        # exactly h.rows.
        assert np.array_equal(h.valid, np.arange(deg.max())[:, None] < deg)
        assert np.array_equal(h.valid, h.cols < h.n_cols)
        assert (h.cols[~h.valid] == h.n_cols).all()
        assert np.array_equal(h.cols.T[h.valid.T], np.concatenate(h.rows))
        assert h.edges == deg.sum()
        # The compiled kernels take cols as it is: C-contiguous, pointer-sized.
        assert h.cols.dtype == np.intp and h.cols.flags.c_contiguous

    def test_compiled_placement_matches_numpy(self, c_backend, monkeypatch):
        # Random geometries, BFS depths 1 to 6, two-valued and explicit
        # profiles: the compiled PEG must place every edge as numpy does.
        rng = np.random.default_rng(606)
        for i in range(72):
            k = int(rng.integers(8, 300))
            m = int(rng.integers(6, k + 1))
            if i % 3:
                dv, profile = round(float(rng.uniform(1.0, min(4.5, m - 0.5))), 2), None
            else:
                twos = int(rng.integers(0, k // 2))
                sixes = int(rng.integers(0, k // 4))
                profile = ((2, twos), (3, k - twos - sixes), (6, sixes))
                dv = sum(d * c for d, c in profile) / k
            spec = sw.CodeSpec(id=f"p{i}", k=k, n=k + m, dv_target=dv, design_p=None,
                               degree_profile=profile)
            depth = 1 + i % 6
            compiled = sw.build_code(spec, seed=i, max_bfs_levels=depth)
            with monkeypatch.context() as mp:
                mp.setattr(_native, "_lib", None)
                reference = sw.build_code(spec, seed=i, max_bfs_levels=depth)
            assert compiled == reference, (spec, depth)


class TestAlist:
    def _random_spec(self, rng, i):
        k = int(rng.integers(8, 40))
        m = int(rng.integers(4, k + 1))
        dv = float(rng.uniform(1.0, min(3.5, m - 0.5)))
        return sw.CodeSpec(
            id=f"r{i}", k=k, n=k + m, dv_target=round(dv, 2),
            design_p=float(rng.uniform(0.01, 0.4)) if i % 3 else None,
        )

    def test_roundtrip_on_100_random_codes(self):
        rng = np.random.default_rng(2024)
        for i in range(100):
            spec = self._random_spec(rng, i)
            h = sw.build_code(spec, seed=i)
            buf = io.StringIO()
            sw.save_alist(h, buf)
            h2 = sw.load_alist(io.StringIO(buf.getvalue()))
            assert h2 == h
            assert h2.design_p == h.design_p

    def test_roundtrip_via_file(self, tmp_path, desk_code):
        path = tmp_path / "d1.alist"
        sw.save_alist(desk_code, path)
        again = sw.load_alist(path)
        assert again == desk_code
        assert again.design_p == 0.05
        # Same matrix serializes to identical bytes.
        path2 = tmp_path / "d1b.alist"
        sw.save_alist(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_comment_carries_k_and_design_p(self, small_code):
        buf = io.StringIO()
        sw.save_alist(small_code, buf)
        first = buf.getvalue().splitlines()[0]
        assert first.startswith("# staircase-ldpc")
        assert "k=512" in first
        assert "design_p=0.05" in first

    def _tiny_text(self):
        spec = sw.CodeSpec(id="tiny", k=4, n=6, dv_target=1.5, design_p=None)
        h = sw.build_code(spec, seed=0)
        buf = io.StringIO()
        sw.save_alist(h, buf)
        return h, buf.getvalue()

    def test_rejects_bad_padding(self):
        _, text = self._tiny_text()
        lines = text.splitlines()
        lines[2] = "9 9"  # claims max degrees the body does not honor
        with pytest.raises(sw.AlistFormatError, match="line"):
            sw.load_alist(io.StringIO("\n".join(lines) + "\n"))

    def test_rejects_trailing_content(self):
        _, text = self._tiny_text()
        with pytest.raises(sw.AlistFormatError, match="trailing"):
            sw.load_alist(io.StringIO(text + "1 2\n"))

    def test_rejects_truncation(self):
        _, text = self._tiny_text()
        lines = text.splitlines()
        with pytest.raises(sw.AlistFormatError):
            sw.load_alist(io.StringIO("\n".join(lines[:-1]) + "\n"))

    def test_rejects_row_column_mismatch(self):
        _, text = self._tiny_text()
        lines = text.splitlines()
        # Swap one entry in a column list so it contradicts the row lists.
        idx = 5  # first column-list line
        parts = lines[idx].split()
        parts[0] = "2" if parts[0] == "1" else "1"
        lines[idx] = " ".join(parts)
        with pytest.raises(sw.AlistFormatError):
            sw.load_alist(io.StringIO("\n".join(lines) + "\n"))

    def test_rejects_non_staircase_body(self):
        _, text = self._tiny_text()
        lines = text.splitlines()
        # Point the second row's stair entries at the wrong columns.
        lines[-1] = "1 3 4 6"
        with pytest.raises(sw.AlistFormatError):
            sw.load_alist(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("tok", ["abc", "nan", "inf", "0.7", "0.5", "0", "-0.05"])
    def test_rejects_design_p_outside_open_interval(self, tok):
        _, text = self._tiny_text()
        text = text.replace("design_p=none", f"design_p={tok}", 1)
        with pytest.raises(sw.AlistFormatError, match=r"^line 1: design_p must be"):
            sw.load_alist(io.StringIO(text))

    def test_accepts_design_p_inside_open_interval(self):
        _, text = self._tiny_text()
        h = sw.load_alist(io.StringIO(text.replace("design_p=none", "design_p=0.25", 1)))
        assert h.design_p == 0.25

    @pytest.mark.parametrize("lineno,deg", [(4, "-1"), (4, "3"), (5, "-1"), (5, "6")])
    def test_rejects_degree_outside_line_3_maximum(self, lineno, deg):
        # Line 3 of the tiny code reads "2 5": column degrees lie in 0..2,
        # row degrees in 0..5.
        _, text = self._tiny_text()
        lines = text.splitlines()
        parts = lines[lineno - 1].split()
        parts[0] = deg
        lines[lineno - 1] = " ".join(parts)
        with pytest.raises(sw.AlistFormatError, match=rf"^line {lineno}: degree {deg} of"):
            sw.load_alist(io.StringIO("\n".join(lines) + "\n"))

    def test_rejects_missing_comment(self):
        _, text = self._tiny_text()
        body = "\n".join(text.splitlines()[1:]) + "\n"
        with pytest.raises(sw.AlistFormatError):
            sw.load_alist(io.StringIO(body))

    @pytest.mark.parametrize("cid,crc", [("D1", "4510b7aa"), ("D2", "784ce254")])
    def test_registry_alist_crc32_at_seed_0(self, cid, crc):
        # The alist bytes of a registry code are part of its identity: a
        # .swz file records their CRC32, so they must never drift.
        buf = io.StringIO()
        sw.save_alist(sw.build_code(sw.get_code_spec(cid), seed=0), buf)
        assert f"{zlib.crc32(buf.getvalue().encode()):08x}" == crc

    @pytest.mark.parametrize("cid,crc", [("D1", "4510b7aa"), ("D2", "784ce254")])
    def test_registry_alist_crc32_numpy(self, numpy_backend, cid, crc):
        # The same bytes from the numpy placement, the compiled one's fallback.
        self.test_registry_alist_crc32_at_seed_0(cid, crc)

    def test_load_regenerates_rate(self, desk_code):
        buf = io.StringIO()
        sw.save_alist(desk_code, buf)
        h = sw.load_alist(io.StringIO(buf.getvalue()))
        assert (h.n_cols - h.k) / h.k == 0.5
