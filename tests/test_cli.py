"""Command-line interface: all five subcommands and their exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swldpc as sw
from swldpc.cli import main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _design(workdir, name="code.alist", k=256, n=384, p="0.02", seed="3"):
    rc = main([
        "design", "--k", str(k), "--n", str(n), "--dv", "3",
        "--design-p", p, "--seed", seed, "--id", "demo", "-o", name,
    ])
    assert rc == 0
    return workdir / name


def _simulate(workdir, prefix="pre", k=256, mean_p="0.02", frames=3, seed="9"):
    rc = main([
        "simulate", "--k", str(k), "--mean-p", mean_p, "--delta-p", "0.0",
        "--frames", str(frames), "--seed", seed, "-o", prefix,
    ])
    assert rc == 0
    return workdir / f"{prefix}.x.bin", workdir / f"{prefix}.y.bin", workdir / f"{prefix}.json"


class TestDesign:
    def test_emits_loadable_alist(self, workdir):
        path = _design(workdir)
        h = sw.load_alist(path)
        assert h.k == 256 and h.n_cols == 384
        assert h.design_p == 0.02

    def test_deterministic_output(self, workdir):
        a = _design(workdir, "a.alist")
        b = _design(workdir, "b.alist")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_geometry_exits_2(self, workdir):
        rc = main(["design", "--k", "64", "--n", "64", "--dv", "3",
                   "--design-p", "0.05", "-o", "x.alist"])
        assert rc == 2


class TestSimulate:
    def test_writes_sources_and_sidecar(self, workdir):
        xp, yp, meta_p = _simulate(workdir, frames=4)
        meta = json.loads(meta_p.read_text())
        assert meta["k"] == 256
        assert meta["frames"] == 4
        assert meta["actual_p"] == [0.02] * 4
        assert len(xp.read_bytes()) == 256 // 8 * 4
        assert len(yp.read_bytes()) == 256 // 8 * 4

    def test_reproducible(self, workdir):
        x1, _, _ = _simulate(workdir, prefix="a", seed="5")
        x2, _, _ = _simulate(workdir, prefix="b", seed="5")
        assert x1.read_bytes() == x2.read_bytes()

    def test_bad_probability_exits_2(self, workdir):
        rc = main(["simulate", "--k", "64", "--mean-p", "0.7",
                   "--frames", "1", "-o", "bad"])
        assert rc == 2

    def test_nan_delta_p_exits_2_with_one_error_line(self, workdir, capsys):
        rc = main(["simulate", "--k", "16", "--mean-p", "0.05", "--delta-p", "nan",
                   "--frames", "2", "-o", "s"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestEncodeDecode:
    def test_full_round_trip(self, workdir):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir)
        assert main(["encode", "--code", str(code), "--in", str(xp),
                     "--out", "par.swz"]) == 0
        rc = main(["decode", "--code", str(code), "--parity", "par.swz",
                   "--side-info", str(yp), "--out", "xhat.bin"])
        assert rc == 0
        assert (workdir / "xhat.bin").read_bytes() == xp.read_bytes()

    def test_decode_failure_exits_1(self, workdir):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir)
        assert main(["encode", "--code", str(code), "--in", str(xp),
                     "--out", "par.swz"]) == 0
        # Garbage side information: decoding must fail loudly.
        rng = np.random.default_rng(0)
        (workdir / "bad.y.bin").write_bytes(rng.bytes(256 // 8 * 3))
        rc = main(["decode", "--code", str(code), "--parity", "par.swz",
                   "--side-info", "bad.y.bin", "--out", "xhat.bin"])
        assert rc == 1

    def test_corrupt_parity_header_exits_2(self, workdir):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir)
        assert main(["encode", "--code", str(code), "--in", str(xp),
                     "--out", "par.swz"]) == 0
        blob = bytearray((workdir / "par.swz").read_bytes())
        blob[0] ^= 0xFF
        (workdir / "bad.swz").write_bytes(bytes(blob))
        rc = main(["decode", "--code", str(code), "--parity", "bad.swz",
                   "--side-info", str(yp), "--out", "xhat.bin"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags,name",
        [(["--max-global", "0"], "max_global"), (["--max-global", "-2"], "max_global"),
         (["--max-local", "-3"], "max_local"),
         (["--no-global-iter", "--max-local", "-1"], "max_local"),
         (["--max-local", "2147483648"], "max_local"),
         (["--no-global-iter", "--max-local", str(2**70)], "max_local")],
    )
    def test_bad_iteration_cap_exits_2(self, workdir, capsys, flags, name):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir)
        assert main(["encode", "--code", str(code), "--in", str(xp),
                     "--out", "par.swz"]) == 0
        capsys.readouterr()
        rc = main(["decode", "--code", str(code), "--parity", "par.swz",
                   "--side-info", str(yp), "--out", "xhat.bin", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {name} must be >= ") and err.count("\n") == 1
        assert not (workdir / "xhat.bin").exists()

    def test_parity_header_binds_to_code(self, workdir):
        # A parity stream encoded with one code must be rejected by another.
        code_a = _design(workdir, "a.alist", seed="3")
        code_b = _design(workdir, "b.alist", k=256, n=400, seed="3")
        xp, yp, _ = _simulate(workdir)
        assert main(["encode", "--code", str(code_a), "--in", str(xp),
                     "--out", "par.swz"]) == 0
        rc = main(["decode", "--code", str(code_b), "--parity", "par.swz",
                   "--side-info", str(yp), "--out", "xhat.bin"])
        assert rc == 2

    def test_hex_format_round_trip(self, workdir):
        # --format hex applies to the plain bit-frame files (source input,
        # side info, reconstruction); the parity container stays binary.
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir)
        frame_bytes = 256 // 8
        for src, dst in [(xp, "x.hex"), (yp, "y.hex")]:
            raw = src.read_bytes()
            lines = [
                raw[i : i + frame_bytes].hex()
                for i in range(0, len(raw), frame_bytes)
            ]
            (workdir / dst).write_text("\n".join(lines) + "\n")
        assert main(["encode", "--code", str(code), "--in", "x.hex",
                     "--out", "par.swz", "--format", "hex"]) == 0
        rc = main(["decode", "--code", str(code), "--parity", "par.swz",
                   "--side-info", "y.hex", "--out", "xhat.hex",
                   "--format", "hex"])
        assert rc == 0
        text = (workdir / "xhat.hex").read_text()
        assert text.endswith("\n")
        hex_lines = text.splitlines()
        assert len(hex_lines) == len(lines)
        assert all(len(h) == 2 * frame_bytes for h in hex_lines)
        packed = b"".join(bytes.fromhex(h) for h in hex_lines)
        assert packed == xp.read_bytes()

    def test_trace_json(self, workdir):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir, frames=2)
        main(["encode", "--code", str(code), "--in", str(xp), "--out", "p.swz"])
        rc = main(["decode", "--code", str(code), "--parity", "p.swz",
                   "--side-info", str(yp), "--out", "o.bin",
                   "--trace", "trace.json"])
        assert rc == 0
        tr = json.loads((workdir / "trace.json").read_text())
        assert len(tr) == 2
        for frame in tr:
            assert frame["success"] is True
            for rec in frame["trace"]:
                assert rec["alpha"] == pytest.approx(
                    np.log(rec["p_hat"] / (1 - rec["p_hat"])), abs=1e-12
                )

    def test_no_global_iter_flag(self, workdir):
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir, frames=1)
        main(["encode", "--code", str(code), "--in", str(xp), "--out", "p.swz"])
        rc = main(["decode", "--code", str(code), "--parity", "p.swz",
                   "--side-info", str(yp), "--out", "o.bin",
                   "--no-global-iter", "--trace", "t.json"])
        assert rc == 0
        tr = json.loads((workdir / "t.json").read_text())
        assert len(tr[0]["trace"]) == 1
        # the flag runs the joint loop's first pass alone: --max-global 1
        # writes the same output and trace, on frames that fail as well
        xp, yp, _ = _simulate(workdir, prefix="hi", mean_p="0.06", frames=6)
        main(["encode", "--code", str(code), "--in", str(xp), "--out", "p.swz"])
        runs = []
        for i, flag in enumerate((["--no-global-iter"], ["--max-global", "1"])):
            rc = main(["decode", "--code", str(code), "--parity", "p.swz",
                       "--side-info", str(yp), "--out", f"o{i}.bin",
                       "--trace", f"t{i}.json", *flag])
            runs.append((rc, (workdir / f"o{i}.bin").read_bytes(),
                         (workdir / f"t{i}.json").read_text()))
        assert runs[0] == runs[1]
        tr = json.loads(runs[0][2])
        assert {f["success"] for f in tr} == {True, False}

    def test_kernel_flag_exits_2(self, workdir, capsys):
        # BP has one check-node rule, so decode takes no --kernel
        code = _design(workdir)
        xp, yp, _ = _simulate(workdir, frames=1)
        main(["encode", "--code", str(code), "--in", str(xp), "--out", "p.swz"])
        args = ["decode", "--code", str(code), "--parity", "p.swz", "--side-info", str(yp),
                "--out", "o.bin"]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--kernel", "table"]) == 2
        assert "--kernel" in capsys.readouterr().err

    def test_misaligned_bit_file_exits_2(self, workdir):
        code = _design(workdir)
        (workdir / "short.bin").write_bytes(b"\x00" * 31)  # not a 32-byte frame
        rc = main(["encode", "--code", str(code), "--in", "short.bin",
                   "--out", "p.swz"])
        assert rc == 2


class TestSweepCommand:
    def test_runs_config_and_writes_reports(self, workdir):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.01, 0.0)], frames=4)
        (workdir / "cfg.json").write_text(cfg.to_json())
        rc = main(["sweep", "--config", "cfg.json", "-o", "out.csv",
                   "--json", "out.json"])
        assert rc == 0
        lines = (workdir / "out.csv").read_text().splitlines()
        assert lines[0] == ",".join(sw.CSV_COLUMNS)
        assert len(lines) == 2
        rep = sw.SweepReport.from_json((workdir / "out.json").read_text())
        assert rep.points[0].frames == 4

    def test_worker_flag_keeps_csv_identical(self, workdir):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.02, 0.005)], frames=24, seed=8)
        (workdir / "cfg.json").write_text(cfg.to_json())
        main(["sweep", "--config", "cfg.json", "-o", "w1.csv", "--workers", "1"])
        main(["sweep", "--config", "cfg.json", "-o", "w3.csv", "--workers", "3"])
        assert (workdir / "w1.csv").read_bytes() == (workdir / "w3.csv").read_bytes()

    def test_no_warning_reaches_the_cli(self, workdir):
        cfg = sw.SweepConfig(codes=["D1"], points=[(0.05, 0.0), (0.08, 0.0)], frames=40, seed=4)
        (workdir / "cfg.json").write_text(cfg.to_json())
        env = dict(os.environ)
        src = str(Path(sw.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "swldpc.cli", "sweep", "--config", "cfg.json",
             "-o", "out.csv", "--workers", "2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len((workdir / "out.csv").read_text().splitlines()) == 3

    def test_bad_config_exits_2(self, workdir):
        (workdir / "cfg.json").write_text('{"codes": [], "points": [], "frames": 1}')
        rc = main(["sweep", "--config", "cfg.json", "-o", "out.csv"])
        assert rc == 2

    @pytest.mark.parametrize("edit", [
        {"points": [0.05]},
        {"frames": "2"},
        {"frames": 1.5},
        {"codes": 5},
        {"max_local": None},
        {"seed": 1.5},
        [1, 2],
        {"points": [[0.05, math.nan]]},
        {"ber_target": math.nan},
        {"max_local": 2**31},
        {"points": [[0.05, 10**400]]},
    ], ids=["point-not-pair", "frames-str", "frames-float", "codes-int", "max-local-null",
            "seed-float", "top-level-list", "point-nan", "ber-target-nan", "max-local-huge",
            "point-huge-int"])
    def test_malformed_config_exits_2_with_one_error_line(self, workdir, capsys, edit):
        cfg = {"codes": ["D1"], "points": [[0.05, 0.0]], "frames": 2}
        doc = {**cfg, **edit} if isinstance(edit, dict) else edit
        (workdir / "cfg.json").write_text(json.dumps(doc))
        rc = main(["sweep", "--config", "cfg.json", "-o", "out.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unknown sweep config fields" not in err
        assert not (workdir / "out.csv").exists()


class TestArgumentErrors:
    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_exits_2(self):
        assert main(["encode"]) == 2

    def test_no_args_exits_2(self):
        assert main([]) == 2

    def test_missing_file_exits_2(self, workdir):
        rc = main(["encode", "--code", "nope.alist", "--in", "x.bin",
                   "--out", "p.swz"])
        assert rc == 2

    @pytest.mark.parametrize("cmd", [
        ["simulate", "--k", str(2**58), "--mean-p", "0.1", "--frames", "2", "-o", "x"],
        ["design", "--k", str(2**58), "--n", str(2**59), "--dv", "3", "--design-p", "0.1",
         "-o", "y.alist"],
    ])
    def test_oversized_k_exits_2_with_one_error_line(self, workdir, capsys, cmd):
        # No 64-bit host can map 2**58 bytes, so the first array fails at once.
        rc = main(cmd)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
