"""Build, load and call the compiled kernels in _kernels.c.

On first use the C file is compiled with the system compiler (cc -O3
-shared -fPIC, no Python headers) into the package's __pycache__ directory,
under a name keyed by the hash of the source and the command, and loaded
with ctypes.CDLL, which releases the interpreter lock for the length of
every call. The library exports what _SIGNATURES lists: side_info_pass,
encode_run and peg_place. The flags name no instruction set: on x86-64
with glibc the source asks the compiler for an AVX2 and a baseline build
of the BP loop, a static function of the library that side_info_pass
calls, and the loader picks one for the CPU at load time (GCC/clang
target_clones); both compute in integers and give the same bits. When the
library cannot be built or loaded, one warning is emitted and the joint
decoder's passes (so bp_decode's too), encode and build_code run their
numpy code instead.

Each wrapper takes the arguments and returns the results of its numpy
counterpart: SideInfoPass those of bp._pass_numpy, encode those of
encoding._encode_numpy and peg_place those of codes._place_edges. The BP
loop reads the matrix's int32 column array h.cols as it is stored, takes
the messages in the same padded layout, and keeps its column totals in
int32 scratch, exact for every matrix SparseParityMatrix accepts, however
many pads its layout holds. SideInfoPass takes its buffers' addresses once
per frame, so that each pass of a joint decode is one short ctypes call.
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
_FLAGS = ("-O3", "-shared", "-fPIC")

_UNSET = object()
_lib = _UNSET  # the loaded library once tried; None when it could not be built
_lock = threading.Lock()

_P = ctypes.c_void_p
_I = ctypes.c_int32
_SIGNATURES = {  # name: (return type, argument types)
    "side_info_pass": (
        _I, [_I, _I, _I, _I, _P, _P, _P, _I, _I, _P, _P, _P, _P, _P, _P, _I, _I, _I]
    ),
    "encode_run": (None, [_I, _I, _I, _P, _P, _P]),
    "peg_place": (_I, [_I, _I, _I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P]),
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
    """Which code runs BP, encoding and PEG placement in this process: "c" or "numpy"."""
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
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(dll, name)
            fn.argtypes = argtypes
            fn.restype = restype
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
    """Address of a writable C-contiguous array's data; taken through a ctypes
    buffer, it costs a third of arr.ctypes.data, which adds up per call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


class SideInfoPass:
    """The compiled side_info_pass bound to one frame's buffers.

    The arguments up to posterior are those of bp._pass_numpy: the matrix
    (any SparseParityMatrix), the checked uint8 arrays y and z, s_max, pad,
    the table, the padded int32 messages c2v, and the output arrays
    bits (uint8) and posterior (int32), all C-contiguous and writable. The
    object keeps them alive, owns the scratch the kernel needs and takes
    their addresses once, so that a call passes only the pass's own values.
    Calling it with
    (level1, level0, max_iters) runs one pass and returns (iterations,
    syndrome_ok, parity_ok, disagreements).
    """

    def __init__(self, dll, h, y, z, s_max, pad, table, c2v, bits, posterior):
        d, m = h.cols.shape
        n = bits.size
        self._keep = (h, y, z, table, c2v, bits, posterior)
        self._work = np.empty(n + 1 + d * m + m + n, dtype=np.int32)
        self._stats = np.empty(3, dtype=np.int32)
        self._fn = dll.side_info_pass
        self._args = (
            m, n, h.k, d, _ptr(h.cols), _ptr(y), _ptr(z), s_max, pad, _ptr(table),
            _ptr(c2v), _ptr(self._work), _ptr(bits), _ptr(posterior), _ptr(self._stats),
        )

    def __call__(self, level1, level0, max_iters):
        iters = self._fn(*self._args, level1, level0, max_iters)
        ok, same, differ = self._stats.tolist()
        return iters, bool(ok), bool(same), differ


def encode(dll, h, x):
    """The parity block of the checked uint8 source block x, as
    encoding._encode_numpy computes it."""
    d, m = h.cols.shape
    z = np.empty(m, dtype=np.uint8)
    dll.encode_run(m, h.k, d, _ptr(h.cols), _ptr(x), _ptr(z))
    return z


def peg_place(dll, degrees: np.ndarray, m: int, max_levels: int) -> np.ndarray | None:
    """The check of every systematic edge, in placement order (column after
    column), as codes._place_edges computes it; None when some edge has no
    admissible check.

    The kernel's scratch front holds m + 1 checks and vars k columns: its
    searches append without a branch, storing each node at the list's end
    and advancing the end only when the node is new, so a search that
    reaches every check stores once more, to front[m].
    """
    k = degrees.size
    var_ptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(degrees, out=var_ptr[1:])
    edges = int(var_ptr[-1])
    edge_var = np.repeat(np.arange(k, dtype=np.int32), degrees)
    edge_chk = np.empty(edges, dtype=np.int32)
    chk_deg, chk_head, seen_c = (np.zeros(m, dtype=np.int32) for _ in range(3))
    front = np.empty(m + 1, dtype=np.int32)
    seen_v, vars_ = np.zeros(k, dtype=np.int32), np.empty(k, dtype=np.int32)
    nxt = np.empty(edges, dtype=np.int32)
    status = dll.peg_place(
        k, m, min(max_levels, m), _ptr(var_ptr), _ptr(edge_var), _ptr(edge_chk),
        _ptr(chk_deg), _ptr(chk_head), _ptr(nxt), _ptr(seen_c), _ptr(seen_v), _ptr(front), _ptr(vars_),
    )
    return None if status else edge_chk
