"""load_alist and SparseParityMatrix.validate against their line-by-line references.

Mutations of save_alist text (token edits, huge and non-ASCII integers,
dropped, duplicated and blank lines, swapped entries, header edits) must
load to the reference's matrix or fail with the reference's message, word
for word. The hypothesis profile in conftest.py makes the examples the same
on every run.
"""

import functools
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import swldpc as sw
from swldpc.cli import main
from oracles import load_alist_ref, validate_ref


@functools.cache
def _codes():
    specs = [
        sw.CodeSpec(id="t4", k=4, n=6, dv_target=1.5, design_p=None),
        sw.CodeSpec(id="t12", k=12, n=20, dv_target=2.5, design_p=0.1),
        sw.CodeSpec(id="t20", k=20, n=26, dv_target=3.0, design_p=0.05),
    ]
    return [sw.build_code(spec, seed=i) for i, spec in enumerate(specs)]


@functools.cache
def _texts():
    out = []
    for h in _codes():
        buf = io.StringIO()
        sw.save_alist(h, buf)
        out.append(buf.getvalue())
    return out


_TOKENS = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from([
        "99999999999999999999", "-99999999999999999999", "9223372036854775808",
        "4611686018427387904", "1" * 30, "٣", "３", "²", "+2", "1_0",
        "0x1", "1.0", "", "a", "-0", "007",
    ]),
    st.text(max_size=3),
)
_SEPARATORS = st.sampled_from(["\t", "  ", "\xa0", "\x1f", "　", "\x00"])
_HEADERS = st.sampled_from([
    "# staircase-ldpc k={k} design_p=abc", "# staircase-ldpc k={k} design_p=nan",
    "# staircase-ldpc k={k} design_p=inf", "# staircase-ldpc k={k} design_p=0.7",
    "# staircase-ldpc k={k} design_p=0.25", "# staircase-ldpc k={k}",
    "# staircase-ldpc k={k1} design_p=none", "# staircase-ldpc design_p=none",
    "# staircase-ldpc k=x", "staircase-ldpc k={k}",
])


def _rewired_text(draw, h) -> str:
    """save_alist text of h with a few row entries moved, added or dropped.

    Rows stay strictly increasing and in range, so the two views of the file
    agree and only the staircase and the degrees can differ from h's.
    """
    rows = [set(r.tolist()) for r in h.rows]
    for _ in range(draw(st.integers(0, 3))):
        r = rows[draw(st.integers(0, h.m - 1))]
        col = draw(st.integers(0, h.n - 1))
        if col in r:
            r.discard(col)
        else:
            r.add(col)
            if draw(st.booleans()) and len(r) > 1:
                r.discard(draw(st.sampled_from(sorted(r))))
    mat = sw.SparseParityMatrix._checked(
        h.m, h.n, h.k, [np.array(sorted(r), dtype=np.int32) for r in rows], h.design_p
    )
    buf = io.StringIO()
    sw.save_alist(mat, buf)
    return buf.getvalue()


def _mutate(draw, lines: list, k: int) -> None:
    op = draw(st.integers(0, 9))
    j = draw(st.integers(1, len(lines) - 1))  # line 1 only changes through op 6
    if op in (0, 1, 2):  # edit one token
        toks = lines[j].split(" ")
        toks[draw(st.integers(0, len(toks) - 1))] = draw(_TOKENS)
        lines[j] = " ".join(toks)
    elif op == 3:
        del lines[j]
    elif op == 4:
        lines.insert(j, draw(st.sampled_from([lines[j], "", "   ", "\t"])))
    elif op == 5:  # swap two entries of a line
        toks = lines[j].split(" ")
        a, b = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
        toks[a], toks[b] = toks[b], toks[a]
        lines[j] = " ".join(toks)
    elif op == 6:
        lines[0] = draw(_HEADERS).format(k=k, k1=k + draw(st.sampled_from([-1, 1])))
    elif op == 7:  # another separator between two tokens
        lines[j] = lines[j].replace(" ", draw(_SEPARATORS), 1)
    elif op == 8:
        lines.append(draw(st.sampled_from(["1 2", "0", " ", ""])))
    else:  # a count or an index from line 3 on off by one
        j = draw(st.integers(2, len(lines) - 1))
        toks = lines[j].split(" ")
        t = draw(st.integers(0, len(toks) - 1))
        if toks[t].isdigit():
            toks[t] = str(int(toks[t]) + draw(st.sampled_from([-1, 1])))
        lines[j] = " ".join(toks)


@st.composite
def _mutated_text(draw):
    h = draw(st.sampled_from(_codes()))
    lines = _rewired_text(draw, h).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, lines, h.k)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _assert_same_as_reference(text: str) -> None:
    try:
        n_rows, n_cols, k, rows, design_p = load_alist_ref(text)
    except ValueError as exc:
        with pytest.raises(sw.AlistFormatError) as got:
            sw.load_alist(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    h = sw.load_alist(io.StringIO(text))
    assert (h.n_rows, h.n_cols, h.k, h.design_p) == (n_rows, n_cols, k, design_p)
    assert [r.tolist() for r in h.rows] == rows
    assert all(r.dtype == np.int32 for r in h.rows)


@given(_mutated_text())
def test_mutated_alist_matches_reference(text):
    _assert_same_as_reference(text)


def _tiny_edit(line_no, new):
    lines = _texts()[0].splitlines()
    lines[line_no - 1] = new
    return "\n".join(lines) + "\n"


_EDGE_TEXTS = {
    # degrees and a maximum beyond 2**62, where token values are clamped
    "degree-above-huge-max": _tiny_edit(3, "4611686018427387905 5").replace(
        "\n1 1 2 2 2 1\n", "\n9223372036854775808 1 2 2 2 1\n"),
    "degree-at-clamp": _tiny_edit(3, "4611686018427387905 5").replace(
        "\n1 1 2 2 2 1\n", "\n4611686018427387904 1 2 2 2 1\n"),
    "huge-max": _tiny_edit(3, "99999999999999999999 5"),
    # tokens and separators that int() and str.split() accept
    "long-zero-padded": _tiny_edit(6, "0000000000000000000000001 00000000000000000000"),
    "signs": _tiny_edit(6, "+1 -0"),
    "unicode-spaces": _tiny_edit(12, "1\xa03\u30004\x1f5\t0"),
    "unicode-digit": _tiny_edit(12, "1 \u0663 4 5 0"),
    "blank-trailing-lines": _texts()[0] + "   \n\t\n",
}


@pytest.mark.parametrize("text", [*_texts(), *_EDGE_TEXTS.values()],
                         ids=["t4", "t12", "t20", *_EDGE_TEXTS])
def test_saved_and_edge_texts_match_reference(text):
    _assert_same_as_reference(text)


@st.composite
def _mutated_rows(draw):
    h = _codes()[draw(st.integers(0, len(_codes()) - 1))]
    rows = [r.tolist() for r in h.rows]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        r = rows[i]
        op = draw(st.integers(0, 5))
        if op == 0 and r:
            r[draw(st.integers(0, len(r) - 1))] = draw(
                st.integers(-2, h.n_cols + 1) | st.sampled_from([-(2**31), 2**31 - 1])
            )
        elif op == 1 and len(r) > 1:
            a, b = draw(st.integers(0, len(r) - 1)), draw(st.integers(0, len(r) - 1))
            r[a], r[b] = r[b], r[a]
        elif op == 2 and r:
            del r[draw(st.integers(0, len(r) - 1))]
        elif op == 3 and r:
            r.insert(0, r[0])
        elif op == 4:
            r.append(draw(st.integers(-1, h.n_cols)))
        else:
            rows[i] = []
    if draw(st.integers(0, 7)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    return h, rows


@given(_mutated_rows())
def test_mutated_rows_match_validate_reference(case):
    h, rows = case
    arrays = [np.asarray(r, dtype=np.int32) for r in rows]
    try:
        validate_ref(h.n_rows, h.n_cols, h.k, arrays)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            sw.SparseParityMatrix(n_rows=h.n_rows, n_cols=h.n_cols, k=h.k, rows=rows)
        assert str(got.value) == str(exc)
        return
    sw.SparseParityMatrix(n_rows=h.n_rows, n_cols=h.n_cols, k=h.k, rows=rows)


def _edit(line_no, old, new):
    def apply(text):
        lines = text.splitlines()
        lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
        return "\n".join(lines) + "\n"
    return apply


@pytest.mark.parametrize("mutate", [
    _edit(1, "design_p=none", "design_p=abc"),
    _edit(4, "1", "-1"),
    _edit(6, "1", "99999999999999999999"),
    _edit(7, "2", "٣"),
    _edit(12, " ", "\x00"),
    lambda text: text[: len(text) // 2],
], ids=["design_p", "degree", "huge", "non-ascii-digit", "nul", "truncated"])
def test_cli_decode_rejects_mutated_code(tmp_path, capsys, mutate):
    path = tmp_path / "bad.alist"
    path.write_text(mutate(_texts()[0]), encoding="utf-8")
    rc = main(["decode", "--code", str(path), "--parity", str(tmp_path / "p.swz"),
               "--side-info", str(tmp_path / "y.bin"), "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line ") and "Traceback" not in err
