"""cli.main on mutated parity files, bit frames, sweep configs and design
parameters.

Every input must end in exit code 0, 1 or 2 with no exception escaping, and
exit code 2 must come with a one-line "error:" message. The inputs belong to a k=20
code, so each example runs in milliseconds; the hypothesis profile in
conftest.py makes the examples the same on every run.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import swldpc as sw
from swldpc.cli import PARITY_MAGIC, code_content_hash, main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A k=20 code, three source frames, their side information and parity."""
    d = tmp_path_factory.mktemp("cli-properties")
    h = sw.build_code(sw.CodeSpec(id="f20", k=20, n=30, dv_target=3.0, design_p=0.05), seed=3)
    sw.save_alist(h, d / "code.alist")
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, (3, h.k)).astype(np.uint8)
    y = x ^ (rng.random(x.shape) < 0.05)
    (d / "x.bin").write_bytes(np.packbits(x, axis=1).tobytes())
    (d / "y.bin").write_bytes(np.packbits(y, axis=1).tobytes())
    assert _run(["encode", "--code", str(d / "code.alist"), "--in", str(d / "x.bin"),
                 "--out", str(d / "p.swz")]) == 0
    return d, h


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    assert rc in (0, 1, 2), rc
    if rc == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return rc


@st.composite
def _mutated_bytes(draw, data: bytes) -> bytes:
    """data with one to three byte flips, cuts, insertions or a replacement."""
    b = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.integers(0, 4))
        i = draw(st.integers(0, max(len(b) - 1, 0)))
        if op == 0 and b:
            b[i] ^= draw(st.integers(1, 255))
        elif op == 1:
            del b[i:]
        elif op == 2:
            b[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif op == 3:
            del b[i : i + draw(st.integers(1, 8))]
        else:
            b = bytearray(draw(st.binary(max_size=40)))
    return bytes(b)


@st.composite
def _mutated_parity(draw, h, body: bytes) -> bytes:
    """A .swz file: its header fields redrawn (the true values among the
    choices), then its bytes mutated or left as they are."""
    header = struct.pack(
        "<4sIII",
        draw(st.sampled_from([PARITY_MAGIC, b"SWZ2", b"\0\0\0\0"])),
        draw(st.sampled_from([h.k, h.k + 1, 0, 2**32 - 1])),
        draw(st.sampled_from([h.n, h.n - 1, 0])),
        draw(st.sampled_from([code_content_hash(h), 0])),
    )
    data = header + body
    return draw(_mutated_bytes(data)) if draw(st.booleans()) else data


@given(st.data())
def test_decode_survives_mutated_parity(files, data):
    d, h = files
    body = (d / "p.swz").read_bytes()[16:]
    (d / "bad.swz").write_bytes(data.draw(_mutated_parity(h, body)))
    flags = ["--no-global-iter"] if data.draw(st.booleans()) else []
    _run(["decode", "--code", d / "code.alist", "--parity", d / "bad.swz",
          "--side-info", d / "y.bin", "--out", d / "out.bin", *flags])


@given(st.data())
def test_encode_and_decode_survive_mutated_bit_frames(files, data):
    d, h = files
    fmt = data.draw(st.sampled_from(["bin", "hex"]))
    for name in ("x.bin", "y.bin"):
        raw = (d / name).read_bytes()
        if fmt == "hex":
            raw = raw.hex().encode()
        (d / f"bad-{name}").write_bytes(data.draw(_mutated_bytes(raw)))
    _run(["encode", "--code", d / "code.alist", "--in", d / "bad-x.bin",
          "--out", d / "bad-x.swz", "--format", fmt])
    _run(["decode", "--code", d / "code.alist", "--parity", d / "p.swz",
          "--side-info", d / "bad-y.bin", "--out", d / "out.bin", "--format", fmt])


# Ints stay small so that a valid config runs a few short frames. A huge seed
# is safe, and so is a huge local-iteration cap, which is refused above
# 2**31 - 1; a huge frame budget is not, since the budget is the user's and
# only the error-frame target stops it.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from([1.5, 2.0]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_POINTS = st.lists(
    st.one_of(
        st.lists(st.one_of(st.floats(-0.1, 0.6), st.none(), st.text(max_size=2)), max_size=3),
        st.floats(0.0, 0.5), st.text(max_size=2),
    ),
    max_size=3,
)
_FIELDS = [
    "codes", "points", "frames", "error_frame_target", "ber_target", "max_local",
    "max_global", "kernel", "decoder", "seed", "build_seed", "record_frames", "typo",
]


_HUGE = st.sampled_from([2**70, -(2**70)])
_NAMES = st.sampled_from(["table", "minsum", "joint", "non_iterative"])


@st.composite
def _mutated_config(draw, alist: str) -> str:
    cfg = {"codes": [alist], "points": [[0.05, 0.0]], "frames": 2, "max_local": 10}
    # values made for one field, drawn there half the time and _VALUES otherwise
    special = {
        "codes": st.lists(st.sampled_from([alist, "no-such.alist", "", 5, None]), max_size=2),
        "points": st.just([[0.05, math.nan]]) | _POINTS,
        "seed": _HUGE, "build_seed": _HUGE, "max_local": _HUGE,
        "kernel": _NAMES, "decoder": _NAMES,
    }
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.integers(0, 3))
        name = draw(st.sampled_from(_FIELDS))
        if op == 0:
            cfg.pop(name, None)
        elif name in special and draw(st.booleans()):
            cfg[name] = draw(special[name])
        else:
            cfg[name] = draw(_VALUES)
    text = json.dumps(draw(_VALUES) if draw(st.integers(0, 9)) == 0 else cfg)
    if draw(st.integers(0, 4)) == 0:
        text = draw(_mutated_bytes(text.encode())).decode("utf-8", "replace")
    return text


@given(st.data())
def test_sweep_survives_mutated_config(files, data):
    d, h = files
    (d / "cfg.json").write_text(data.draw(_mutated_config(str(d / "code.alist"))))
    _run(["sweep", "--config", d / "cfg.json", "-o", d / "out.csv", "--json", d / "out.json"])


@given(
    k=st.integers(-2, 40),
    n=st.integers(-2, 64),
    dv=st.floats(-1.0, 8.0) | st.sampled_from([float("nan"), float("inf")]),
    design_p=st.floats(-0.1, 0.6) | st.sampled_from([float("nan"), float("inf")]),
)
def test_design_survives_any_parameters(files, k, n, dv, design_p):
    d, h = files
    # "--dv=-1e-05": argparse reads a separate "-1e-05" as an option
    _run(["design", f"--k={k}", f"--n={n}", f"--dv={dv}", f"--design-p={design_p}",
          "-o", d / "designed.alist"])
