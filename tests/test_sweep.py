"""Monte-Carlo sweep harness: configs, tallies, determinism, reports."""

import dataclasses
import io
import json
import math
import threading

import numpy as np
import pytest

import swldpc as sw


class TestSweepConfig:
    def test_roundtrip_json(self):
        cfg = sw.SweepConfig(
            codes=["D1", "D2"],
            points=[(0.02, 0.0), (0.05, 0.01)],
            frames=64,
            error_frame_target=10,
            seed=3,
            kernel="minsum",
            decoder="non_iterative",
        )
        again = sw.SweepConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_fields_rejected(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.02, 0.0)], frames=4)
        raw = json.loads(cfg.to_json())
        raw["typo_field"] = 1
        with pytest.raises(ValueError, match="unknown sweep config fields"):
            sw.SweepConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(codes=[], points=[(0.1, 0.0)], frames=4),
            dict(codes=["D1"], points=[], frames=4),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=-1),
            dict(codes=["D1"], points=[(0.6, 0.0)], frames=4),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, decoder="magic"),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, kernel="magic"),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, max_local=0),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, error_frame_target=0),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, seed=-1),
            dict(codes=["D1"], points=[(0.05, math.nan)], frames=4),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, ber_target=math.nan),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, max_local=2**31),
            dict(codes=["D1"], points=[(0.05, 10**400)], frames=4),
            dict(codes=["D1"], points=[(0.1, 0.0)], frames=4, max_global=2**31),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            sw.SweepConfig(**kwargs)


class TestReferenceRates:
    def test_frozen_literature_rates(self):
        turbo = sw.sweep.REFERENCE_TOTAL_RATES["punctured_turbo"]
        synd = sw.sweep.REFERENCE_TOTAL_RATES["syndrome_ldpc"]
        assert turbo == {0.025: 1.31, 0.05: 1.435, 0.1: 1.63}
        assert synd == {0.025: 1.276, 0.05: 1.402, 0.1: 1.60}


class TestRunSweep:
    def test_clean_point_tallies(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.01, 0.0)], frames=20, seed=1)
        rep = sw.run_sweep(cfg)
        assert len(rep.codes) == 1 and len(rep.points) == 1
        summary = rep.codes[0]
        assert summary.code == "D1"
        assert summary.rate_x == 0.5
        assert summary.total_rate == 1.5
        assert summary.design_p == 0.05
        assert summary.entropy_limit == pytest.approx(1 + sw.binary_entropy(0.05))
        pt = rep.points[0]
        assert pt.frames == 20
        assert pt.frame_errs == 0 and pt.bit_errs == 0
        assert pt.fer == 0.0 and pt.ber == 0.0
        assert pt.joint_entropy == pytest.approx(1 + sw.binary_entropy(0.01))
        assert 1.0 <= pt.mean_global_iters <= 5.0
        assert pt.wall_seconds > 0

    def test_conservation_invariants(self):
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.05, 0.01)], frames=24, seed=2,
            record_frames=True,
        )
        rep = sw.run_sweep(cfg)
        pt = rep.points[0]
        fr = pt.frame_results
        assert len(fr) == pt.frames
        assert pt.bit_errs == sum(f.bit_errors for f in fr)
        assert pt.frame_errs == sum(not f.success for f in fr)
        assert pt.ber == pt.bit_errs / (pt.frames * 1024)
        assert pt.fer == pt.frame_errs / pt.frames
        assert pt.mean_global_iters == pytest.approx(
            np.mean([f.global_iters for f in fr])
        )
        assert pt.mean_local_iters == pytest.approx(
            np.mean([f.local_iters for f in fr])
        )
        for f in fr:
            assert 0.04 <= f.actual_p <= 0.06

    def test_zero_frame_budget(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.02, 0.0)], frames=0)
        rep = sw.run_sweep(cfg)
        pt = rep.points[0]
        assert pt.frames == 0
        assert pt.ber == 0.0 and pt.fer == 0.0
        assert pt.mean_global_iters == 0.0
        # The CSV row still renders.
        text = sw.emit_report(rep)
        assert len(text.splitlines()) == 2

    def test_early_stop_at_error_target(self):
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.3, 0.0)], frames=100,
            error_frame_target=5, max_local=5,
        )
        rep = sw.run_sweep(cfg)
        pt = rep.points[0]
        assert pt.reached_error_target
        assert pt.frame_errs == 5
        assert pt.frames == 5  # every frame fails at p = 0.3
        assert pt.frames < 100

    def test_non_iterative_decoder_mode(self):
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.01, 0.0), (0.07, 0.0)], frames=8,
            decoder="non_iterative", record_frames=True,
        )
        rep = sw.run_sweep(cfg)
        assert all(f.global_iters == 1 for pt in rep.points for f in pt.frame_results)
        assert rep.points[1].frame_errs > 0
        # the static baseline is the joint decoder's first pass
        one_pass = sw.run_sweep(dataclasses.replace(cfg, decoder="joint", max_global=1))
        assert sw.emit_report(one_pass) == sw.emit_report(rep)

    def test_alist_path_reference(self, tmp_path, desk_code):
        path = tmp_path / "desk.alist"
        sw.save_alist(desk_code, path)
        cfg = sw.SweepConfig(codes=[str(path)], points=[(0.01, 0.0)], frames=6)
        rep = sw.run_sweep(cfg)
        assert rep.codes[0].k == 1024
        assert rep.points[0].frame_errs == 0

    def test_path_code_roundtrips_through_json(self, tmp_path, desk_code):
        # A Path is accepted, serialized as its string, and sweeps as that string.
        path = tmp_path / "desk.alist"
        sw.save_alist(desk_code, path)
        cfg = sw.SweepConfig(codes=[path], points=[(0.01, 0.0)], frames=4)
        again = sw.SweepConfig.from_json(cfg.to_json())
        assert again == cfg and again.codes == [str(path)]
        by_str = sw.SweepConfig(codes=[str(path)], points=[(0.01, 0.0)], frames=4)
        csv = [sw.emit_report(sw.run_sweep(run)) for run in (cfg, by_str)]
        assert csv[0] == csv[1] and csv[0].splitlines()[1].startswith("desk,")

    def test_multi_code_multi_point_shape(self):
        cfg = sw.SweepConfig(
            codes=["D1", "D2"], points=[(0.005, 0.0), (0.01, 0.0)], frames=4,
        )
        rep = sw.run_sweep(cfg)
        assert len(rep.codes) == 2
        assert len(rep.points) == 4
        labels = [(p.code, p.mean_p) for p in rep.points]
        assert labels == [
            ("D1", 0.005), ("D1", 0.01), ("D2", 0.005), ("D2", 0.01),
        ]


class TestDeterminism:
    def _csv(self, workers):
        cfg = sw.SweepConfig(
            codes=["D1"],
            points=[(0.02, 0.005), (0.3, 0.0)],
            frames=40,
            error_frame_target=6,
            max_local=8,
            seed=11,
        )
        return sw.emit_report(sw.run_sweep(cfg, workers=workers))

    def test_csv_identical_across_worker_counts(self):
        assert self._csv(1) == self._csv(4)

    def test_workers_must_be_a_positive_integer(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.05, 0.0)], frames=4)
        for workers in (2.5, True, "2"):
            with pytest.raises(ValueError, match="workers must be an integer"):
                sw.run_sweep(cfg, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sw.run_sweep(cfg, workers=np.int64(0))
        assert self._csv(np.int64(2)) == self._csv(1)

    def test_frames_identical_across_worker_counts_when_stopping_mid_chunk(self, backend):
        # the tenth erroneous frame is frame 40, inside the second 32-frame chunk
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.07, 0.01)], frames=70, error_frame_target=10,
            max_local=10, seed=5, record_frames=True,
        )
        runs = [sw.run_sweep(cfg, workers=w).points[0].frame_results for w in (1, 2, 3)]
        assert len(runs[0]) == 41 and runs[0][-1].bit_errors > 0
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_seed_changes_results(self):
        cfg_a = sw.SweepConfig(codes=["D1"], points=[(0.05, 0.01)], frames=10, seed=1)
        cfg_b = sw.SweepConfig(codes=["D1"], points=[(0.05, 0.01)], frames=10, seed=2)
        ra = sw.run_sweep(cfg_a)
        rb = sw.run_sweep(cfg_b)
        pa = [f for f in sw.emit_report(ra).splitlines()[1].split(",")]
        pb = [f for f in sw.emit_report(rb).splitlines()[1].split(",")]
        # Same shape, different realized entropies.
        assert pa[0] == pb[0]
        assert pa[4] != pb[4]


class _Boom(Exception):
    pass


class TestThreads:
    """The calling thread draws every frame; the pool threads only decode."""

    CFG = sw.SweepConfig(codes=["D1"], points=[(0.05, 0.0), (0.06, 0.0)], frames=40, seed=7)

    def _record(self, monkeypatch, name):
        calls = []
        fn = getattr(sw.sweep, name)

        def wrapper(*args, **kwargs):
            calls.append(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(sw.sweep, name, wrapper)
        return calls

    def test_caller_draws_and_workers_decode(self, monkeypatch):
        drawn = {name: self._record(monkeypatch, name) for name in ("generate_pair", "encode")}
        decoded = self._record(monkeypatch, "joint_decode")
        before = threading.active_count()
        sw.run_sweep(self.CFG, workers=2)
        assert threading.active_count() == before
        caller = threading.get_ident()
        for calls in drawn.values():
            assert calls == [caller] * 80
        assert len(decoded) == 80 and caller not in decoded

    @pytest.mark.parametrize("workers", [1, 2])
    def test_decode_error_propagates_and_threads_end(self, monkeypatch, workers):
        def boom(*args, **kwargs):
            raise _Boom("decoder failed")

        monkeypatch.setattr(sw.sweep, "joint_decode", boom)
        before = threading.active_count()
        with pytest.raises(_Boom):
            sw.run_sweep(self.CFG, workers=workers)
        assert threading.active_count() == before


class TestReports:
    def test_csv_columns_and_values(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.01, 0.0)], frames=5, seed=4)
        rep = sw.run_sweep(cfg)
        text = sw.emit_report(rep)
        lines = text.splitlines()
        assert lines[0] == ",".join(sw.CSV_COLUMNS)
        row = dict(zip(sw.CSV_COLUMNS, lines[1].split(",")))
        assert row["code"] == "D1"
        assert float(row["mean_p"]) == 0.01
        assert int(row["frames"]) == 5
        assert row["reached_error_target"] in {"0", "1"}
        # No wall-clock column: timing lives only in the JSON report.
        assert "seconds" not in lines[0] and "wall" not in lines[0]

    def test_report_json_roundtrip(self):
        cfg = sw.SweepConfig(
            codes=["D1"], points=[(0.02, 0.0)], frames=6, record_frames=True,
        )
        rep = sw.run_sweep(cfg)
        again = sw.SweepReport.from_json(rep.to_json())
        assert again == rep

    def test_emit_report_writes_files(self, tmp_path):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.01, 0.0)], frames=3)
        rep = sw.run_sweep(cfg)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        text = sw.emit_report(rep, csv_path=csv_path, json_path=json_path)
        assert csv_path.read_text() == text
        parsed = json.loads(json_path.read_text())
        assert parsed["points"][0]["frames"] == 3
        assert "wall_seconds" in parsed["points"][0]
        assert parsed["codes"][0]["setup_seconds"] > 0
        assert "setup" not in text

    def test_report_json_without_setup_seconds_loads(self):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.01, 0.0)], frames=2)
        raw = json.loads(sw.run_sweep(cfg).to_json())
        del raw["codes"][0]["setup_seconds"]
        again = sw.SweepReport.from_json(json.dumps(raw))
        assert again.codes[0].setup_seconds == 0.0
