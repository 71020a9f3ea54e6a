"""Span recording around the public functions of the swldpc modules.

Tracing is installed from outside the package: each traced function is
replaced, in every loaded ``swldpc`` module that refers to it, by a wrapper
that records one span per call. Nothing inside ``src/`` is changed, and an
untraced run never calls ``install``.

A span is ``(id, name, start_ns, end_ns, parent, unit, frame, thread, info)``:

- ``parent`` is the span that was open in the same thread when the call began,
  or the open ``run_sweep`` span for calls made by the sweep's pool threads;
- ``unit`` is the benchmark's work-unit index (a frame of a single-caller
  workload, a ``run_sweep`` call of the sweep workload), ``None`` during set-up;
- ``frame`` identifies the frame the call belongs to;
- ``info`` holds the counts read from the call's result at the boundary.

Spans stay in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import weakref


# span tuple fields
ID, NAME, START, END, PARENT, UNIT, FRAME, THREAD, INFO = range(9)


def _bp_info(tracer, args, out):
    return (out.iterations_used, bool(out.syndrome_ok), tracer.edges(args[0]))


def _joint_info(tracer, args, out):
    trace = out.final_state.trace
    first_ok = next((i for i, rec in enumerate(trace) if rec.syndrome_ok), None)
    confirm = 0 if first_ok is None else len(trace) - first_ok - 1
    return (out.global_iters_used, confirm)


# (module, attribute, count reader, starts a new frame)
TRACED = [
    ("swldpc.sources", "generate_pair", None, True),
    ("swldpc.codes", "build_code", None, False),
    ("swldpc.codes", "SparseParityMatrix.encode_plan", None, False),
    ("swldpc.codes", "SparseParityMatrix.decode_plan", None, False),
    ("swldpc.encoding", "encode", None, False),
    ("swldpc.joint", "joint_decode", _joint_info, False),
    ("swldpc.bp", "init_from_side_info", None, False),
    ("swldpc.bp", "bp_decode", _bp_info, False),
    ("swldpc.joint", "estimate_alpha", None, False),
    ("swldpc.sweep", "run_sweep", None, False),
]

LAYER_OF = {
    "generate_pair": "sources",
    "build_code": "codes",
    "encode_plan": "codes",
    "decode_plan": "codes",
    "encode": "encoding",
    "init_from_side_info": "bp",
    "bp_decode": "bp",
    "joint_decode": "joint",
    "estimate_alpha": "joint",
    "run_sweep": "sweep",
}


class Tracer:
    """Collects spans from the wrapped functions of every thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.unit = None  # set by the benchmark loop; read by pool threads too
        self._root = None  # id of the open run_sweep span
        self._ids = itertools.count()
        self._frames = itertools.count()
        self._local = threading.local()
        self._edges = {}  # id(matrix) -> (weak reference, edge count)

    def edges(self, h) -> int:
        ref, n = self._edges.get(id(h), (None, None))
        if ref is None or ref() is not h:
            n = int(sum(r.size for r in h.rows))
            self._edges[id(h)] = (weakref.ref(h), n)
        return n

    def new_frame(self) -> None:
        self._local.frame = next(self._frames)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, starts_frame=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if starts_frame and tracer.unit is not None:
                tracer.new_frame()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            if name == "run_sweep":
                tracer._root = sid
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if name == "run_sweep":
                    tracer._root = None
            counts = info(tracer, args, out) if info is not None else None
            tracer.spans.append(
                (sid, name, start, end, parent, tracer.unit,
                 getattr(tracer._local, "frame", None), threading.get_ident(), counts)
            )
            return out

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a swldpc module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "swldpc"]
        for mod_name, attr, info, starts_frame in TRACED:
            owner = sys.modules[mod_name]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapped = self.wrap(fn_name, original, info, starts_frame)
            if cls_path:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "unit", "frame", "thread", "info")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its same-thread children.

    Children of a run_sweep span run in pool threads, concurrently with the
    waiting caller, so they are not subtracted from it.
    """
    by_id = {s[ID]: s for s in spans}
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and parent[THREAD] == s[THREAD]:
            own[parent[ID]] -= s[END] - s[START]
    return own
