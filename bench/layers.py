"""Per-layer metrics of a traced run, computed from its spans.

Counts (iterations, edge updates, calls, global iterations, fer) are taken
over the run's fixed prefix of work units, so they repeat exactly at one
seed. Times are taken over every unit of the timed window, or over set-up for
the ``codes`` layer. See bench/NOTES.md for the end-to-end metric each one
should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, FRAME, ID, INFO, LAYER_OF, NAME, PARENT, START, UNIT, self_times

FRAME_CALLS = ("encode", "joint_decode")
ROUND = 32  # frames per scheduling round; one run_sweep call of the sweep workload


def _dur(s):
    return s[END] - s[START]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    """Median, or 0.0 when every frame raised and there is nothing to time."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _first_plan_s(spans):
    """Median of the set-up's own plan calls, the ones that build the plan;
    later calls from inside encode or bp_decode return the cached plan."""
    return median(_dur(s) for s in spans if s[PARENT] is None) / 1e9


def layer_metrics(tracer, h, prefix_units, tally):
    spans = tracer.spans
    own = self_times(spans)
    setup = defaultdict(list)
    window = defaultdict(list)
    prefix = defaultdict(list)
    for s in spans:
        if s[UNIT] is None:
            setup[s[NAME]].append(s)
        else:
            window[s[NAME]].append(s)
            if s[UNIT] < prefix_units:
                prefix[s[NAME]].append(s)

    edges = tracer.edges(h)
    sys_edges = edges - (2 * h.m - 1)  # the staircase has 2m - 1 ones
    build_ns = median(_dur(s) for s in setup["build_code"])

    bp_win = window["bp_decode"]
    bp_pre = prefix["bp_decode"]
    joint_pre = prefix["joint_decode"]
    updates_win = sum(s[INFO][0] * s[INFO][2] for s in bp_win)
    bp_self_win = sum(own[s[ID]] for s in bp_win)
    global_pre = sum(s[INFO][0] for s in joint_pre)

    per_frame = defaultdict(int)
    for name in FRAME_CALLS:
        for s in window[name]:
            per_frame[s[FRAME]] += _dur(s)
    frame_ns = sum(per_frame.values())

    if window["run_sweep"]:
        round_s = [_dur(s) / 1e9 for s in window["run_sweep"]]
    else:  # single caller: frame u runs from its encode to its joint_decode
        starts = {s[UNIT]: s[START] for s in window["encode"]}
        ends = {s[UNIT]: s[END] for s in window["joint_decode"]}
        round_s = [(ends[u + ROUND - 1] - starts[u]) / 1e9
                   for u in starts if u % ROUND == 0 and u + ROUND - 1 in ends]

    gen = window["generate_pair"] or setup["generate_pair"]
    metrics = {
        "codes.build_code_s": (build_ns / 1e9, "s"),
        "codes.peg_us_per_edge": (build_ns / 1e3 / sys_edges, "us"),
        "codes.decode_plan_s": (_first_plan_s(setup["decode_plan"]), "s"),
        "codes.encode_plan_s": (_first_plan_s(setup["encode_plan"]), "s"),
        "codes.edges": (edges, "count"),
        "codes.max_row_degree": (int(h.row_weights().max()), "count"),
        "encoding.encode_ns_per_edge": (_mean([own[s[ID]] for s in window["encode"]]) / edges, "ns"),
        "sources.generate_pair_us": (_mean([_dur(s) for s in gen]) / 1e3, "us"),
        "bp.local_iters": (sum(s[INFO][0] for s in bp_pre), "count"),
        "bp.edge_updates": (sum(s[INFO][0] * s[INFO][2] for s in bp_pre), "count"),
        "bp.bp_decode_calls": (len(bp_pre), "count"),
        "bp.ns_per_edge_update": (bp_self_win / max(updates_win, 1), "ns"),
        "bp.syndrome_ok_ratio": (sum(s[INFO][1] for s in bp_pre) / max(len(bp_pre), 1), "ratio"),
        "bp.init_from_side_info_us": (_mean([_dur(s) for s in window["init_from_side_info"]]) / 1e3, "us"),
        "bp.self_share": (bp_self_win / max(frame_ns, 1), "ratio"),
        "joint.global_iters": (global_pre, "count"),
        "joint.confirm_share": (sum(s[INFO][1] for s in joint_pre) / max(global_pre, 1), "ratio"),
        "joint.estimate_alpha_us": (_mean([_dur(s) for s in window["estimate_alpha"]]) / 1e3, "us"),
        "joint.self_us": (_mean([own[s[ID]] for s in window["joint_decode"]]) / 1e3, "us"),
        "joint.fer": (tally.unrecovered_prefix / tally.prefix, "ratio"),
        "sweep.frame_ms_in_thread": (median(per_frame.values()) / 1e6, "ms"),
        "sweep.wall_s": (median(round_s), "s"),
    }

    layer_self = defaultdict(float)
    for s in spans:
        if s[UNIT] is not None:
            layer_self[LAYER_OF[s[NAME]]] += own[s[ID]] / 1e9
    return metrics, dict(layer_self)
