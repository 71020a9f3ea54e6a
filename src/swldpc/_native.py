"""Build, load and call the compiled kernels in _kernels.c.

On first use the C file is compiled with the system compiler (cc -O2
-shared -fPIC, no Python headers) into the package's __pycache__ directory,
under a name keyed by the hash of the source and the command, and loaded
with ctypes.CDLL, which releases the interpreter lock for the length of
every call. When the library cannot be built or loaded, one warning is
emitted and bp_decode and build_code run their numpy code instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC")

_UNSET = object()
_lib = _UNSET  # the loaded library once tried; None when it could not be built
_lock = threading.Lock()

_P = ctypes.c_void_p
_I = ctypes.c_int32
_SIGNATURES = {
    "bp_run": [_I, _I, _P, _P, _P, _I, _P, _I, _I, _P, _P, _P, _P, _P, _P, _P],
    "peg_place": [_I, _I, _I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P],
}


def library_path() -> Path:
    """Where the compiled library is cached for the current source."""
    md = hashlib.sha256(_SOURCE.read_bytes())
    md.update(" ".join((_CC, *_FLAGS)).encode())
    return _CACHE_DIR / f"_kernels-{md.hexdigest()[:16]}.so"


def lib():
    """The compiled kernels, built on first use; None when they cannot be."""
    global _lib
    if _lib is _UNSET:
        with _lock:
            if _lib is _UNSET:
                _lib = _load()
    return _lib


def backend() -> str:
    """Which code runs BP and PEG placement in this process: "c" or "numpy"."""
    return "numpy" if lib() is None else "c"


def _load():
    path = library_path()
    try:
        if not path.exists():
            _compile(path)
        dll = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as exc:
        reason = (exc.stderr or "").strip() or str(exc)
    except OSError as exc:
        reason = str(exc)
    else:
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(dll, name)
            fn.argtypes = argtypes
            fn.restype = _I
        return dll
    warnings.warn(
        f"swldpc: C kernels unavailable, running the numpy code ({reason})",
        RuntimeWarning,
        stacklevel=4,
    )
    return None


def _compile(path: Path) -> None:
    """Compile to a temporary name beside path, then move it into place, so a
    concurrent reader never loads a half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [_CC, *_FLAGS, "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def bp_run(dll, layout, llr, s_max, table, max_iters, c2v):
    """Run the whole BP loop in C on layout's row-major edge list.

    llr holds the n stored channel values; table is the int32 correction
    table with its trailing zero, or None for min-sum; c2v holds the starting
    messages, one per edge in row-major order, or None for a cold start.
    Returns (iterations, syndrome_ok, hard bits, posterior values, c2v).
    """
    llr = np.ascontiguousarray(llr, dtype=np.int32)
    n, m, edges = llr.size, layout.row_ptr.size - 1, layout.edge_col.size
    c2v = np.zeros(edges, np.int32) if c2v is None else np.array(c2v, dtype=np.int32)
    if c2v.shape != (edges,):
        raise ValueError(f"c2v has shape {c2v.shape} for {edges} edges")
    v2c = np.empty_like(c2v)
    fw = np.empty(layout.cols.shape[0], dtype=np.int32)
    tot = np.empty(n, dtype=np.int64)
    bits = np.empty(n, dtype=np.uint8)
    posterior = np.empty(n, dtype=np.int32)
    ok = ctypes.c_int32()
    iters = dll.bp_run(
        m, n, _ptr(layout.row_ptr), _ptr(layout.edge_col), _ptr(llr), s_max,
        None if table is None else _ptr(table), 0 if table is None else table.size - 1,
        max(0, min(max_iters, 2**31 - 1)), _ptr(c2v), _ptr(v2c), _ptr(fw), _ptr(tot),
        _ptr(bits), _ptr(posterior), ctypes.byref(ok),
    )
    return iters, bool(ok.value), bits, posterior, c2v


def peg_place(dll, degrees: np.ndarray, m: int, max_levels: int) -> np.ndarray | None:
    """The check of every systematic edge, in placement order (column after
    column), as codes._place_edges computes it; None when some edge has no
    admissible check."""
    k = degrees.size
    var_ptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(degrees, out=var_ptr[1:])
    edges = int(var_ptr[-1])
    edge_var = np.repeat(np.arange(k, dtype=np.int32), degrees)
    edge_chk = np.empty(edges, dtype=np.int32)
    chk_deg, chk_head, seen_c, front = (np.zeros(m, dtype=np.int32) for _ in range(4))
    seen_v, vars_ = np.zeros(k, dtype=np.int32), np.empty(k, dtype=np.int32)
    nxt = np.empty(edges, dtype=np.int32)
    status = dll.peg_place(
        k, m, max(0, min(max_levels, m)), _ptr(var_ptr), _ptr(edge_var), _ptr(edge_chk),
        _ptr(chk_deg), _ptr(chk_head), _ptr(nxt), _ptr(seen_c), _ptr(seen_v), _ptr(front), _ptr(vars_),
    )
    return None if status else edge_chk
