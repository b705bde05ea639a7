"""Spans around tiersim's public calls, for the traced benchmark run.

``traced`` replaces the names below with timing wrappers for the length of
a ``with`` block and puts the originals back when it ends. Functions are
wrapped where their callers look them up: ``tiersim.harness`` for what
``run_point`` calls, ``tiersim.transport`` for what ``TransportSim`` calls,
and the ``tiersim.phy`` module for ``sinr_at``. Spans stay in memory until
the run ends. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from bench import point_failures, undelivered_p

# name -> (unit, better); every one is reported by a traced run
PER_LAYER = {
    "deployment.build_s": ("s", "lower"),
    "deployment.nodes_secondary": ("count", "lower"),
    "deployment.occupancy_s": ("s", "lower"),
    "routing.select_relays_s": ("s", "lower"),
    "routing.census_s": ("s", "lower"),
    "routing.census_pairs": ("count", "lower"),
    "routing.hv_path_setup_calls": ("count", "lower"),
    "routing.hv_path_setup_s": ("s", "lower"),
    "routing.hv_path_frame_calls": ("count", "lower"),
    "routing.hv_path_frame_s": ("s", "lower"),
    "scheduler.preservation_s": ("s", "lower"),
    "scheduler.admit_calls": ("count", "lower"),
    "scheduler.admit_s": ("s", "lower"),
    "scheduler.sinks_offered": ("count", "lower"),
    "scheduler.sinks_admitted": ("count", "higher"),
    "scheduler.admit_ratio": ("ratio", "higher"),
    "phy.sinr_calls": ("count", "lower"),
    "phy.sinr_s": ("s", "lower"),
    "phy.sinr_pairs": ("count", "lower"),
    "phy.sinr_ns_per_pair": ("ns", "lower"),
    "phy.audit_samples.primary": ("count", "higher"),
    "phy.audit_samples.delivery": ("count", "higher"),
    "phy.audit_samples.secondary": ("count", "higher"),
    "transport.init_s": ("s", "lower"),
    "transport.init_self_s": ("s", "lower"),
    "transport.step_audit_s": ("s", "lower"),
    "transport.step_plain_s": ("s", "lower"),
    "transport.step_self_s": ("s", "lower"),
    "transport.roster_mean": ("count", "lower"),
    "transport.roster_final": ("count", "lower"),
    "transport.bundles_in_flight_mean": ("count", "lower"),
    "transport.bundles_in_flight_max": ("count", "lower"),
    "transport.secondary_backlog_mean": ("count", "lower"),
    "harness.run_point_s": ("s", "lower"),
    "harness.fit_s": ("s", "lower"),
    "harness.points": ("count", "higher"),
    "trace_overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at the top
    run: int      # index of the outermost enclosing span
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects one span per wrapped call, nested by call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span; ``info(args, result)`` runs after the span ends."""
        def traced_call(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self._stack[0] if self._stack else idx)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, out)
            return out
        return traced_call


def _step_info(args, _out):
    sim = args[0]
    t = sim.frame - 1
    warmup = sim.cfg.warmup_frames
    audited = warmup <= t < warmup + sim.opt.audit_frames
    return audited, len(sim.pending), len(sim.bundles), int(sim.cnt.sum())


def _metrics_info(args, met):
    sim = args[0]
    return {"audit_samples": dict(met["audit_samples"]),
            "failures": point_failures(sim, met),
            "undelivered_p": undelivered_p(sim),
            "injected_p": sim.injected_p}


def _targets():
    from tiersim import harness, phy, transport
    sim = transport.TransportSim
    return [
        (harness, "run_point", "harness.run_point", None),
        (harness, "check_theorems", "harness.fit", None),
        (harness, "build_deployment", "deployment.build",
         lambda a, dep: len(dep.secondary_pos)),
        (harness, "cell_occupancy", "deployment.occupancy", None),
        (harness, "select_relays", "routing.select_relays", None),
        (sim, "__init__", "transport.init", None),
        (sim, "step", "transport.step", _step_info),
        (sim, "metrics", "transport.metrics", _metrics_info),
        (transport, "path_load_census", "routing.census", lambda a, _: len(a[0])),
        (transport, "hv_path_cells", "routing.hv_path", None),
        (transport, "preservation_regions", "scheduler.preservation", None),
        (transport, "place_collection_regions", "scheduler.admit",
         lambda a, admitted: (len(set(int(c) for c in a[0])), len(admitted))),
        (phy, "sinr_at", "phy.sinr", lambda a, _: len(a[0]) * len(a[3])),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Route the wrapped calls through ``tracer`` inside the block only."""
    saved = []
    try:
        for owner, attr, name, info in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for j in sorted(children[i], key=lambda j: spans[j].start):
            a, b = max(spans[j].start, s.start), min(spans[j].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def layer_metrics(spans: list[Span], trace_overhead_s: float) -> dict:
    """Every ``PER_LAYER`` value, from the spans of one traced workload."""
    total = defaultdict(float)
    own = defaultdict(float)
    by = defaultdict(list)
    for s, st in zip(spans, self_times(spans)):
        total[s.name] += s.duration
        own[s.name] += st
        by[s.name].append(s)
    calls = {name: len(group) for name, group in by.items()}

    # hv_path_cells runs both in set-up and in frames; the parent tells which
    hv = {"transport.init": [0, 0.0], "transport.step": [0, 0.0]}
    for s in by["routing.hv_path"]:
        acc = hv[spans[s.parent].name]
        acc[0] += 1
        acc[1] += s.duration

    steps = [s.info for s in by["transport.step"]]
    audited = sum(s.duration for s in by["transport.step"] if s.info[0])
    offered = sum(s.info[0] for s in by["scheduler.admit"])
    admitted = sum(s.info[1] for s in by["scheduler.admit"])
    pairs = sum(s.info for s in by["phy.sinr"])
    points = calls["harness.run_point"]

    def audit(cat):
        return sum(s.info["audit_samples"][cat] for s in by["transport.metrics"])

    # the roster after each point's last step, summed over points
    last_roster = {s.run: s.info[1] for s in by["transport.step"]}

    def mean(i):
        return sum(x[i] for x in steps) / len(steps)

    return {
        "deployment.build_s": total["deployment.build"],
        "deployment.nodes_secondary": sum(s.info for s in by["deployment.build"]),
        "deployment.occupancy_s": total["deployment.occupancy"],
        "routing.select_relays_s": total["routing.select_relays"],
        "routing.census_s": total["routing.census"],
        "routing.census_pairs": sum(s.info for s in by["routing.census"]),
        "routing.hv_path_setup_calls": hv["transport.init"][0],
        "routing.hv_path_setup_s": hv["transport.init"][1],
        "routing.hv_path_frame_calls": hv["transport.step"][0],
        "routing.hv_path_frame_s": hv["transport.step"][1],
        "scheduler.preservation_s": total["scheduler.preservation"],
        "scheduler.admit_calls": calls.get("scheduler.admit", 0),
        "scheduler.admit_s": total["scheduler.admit"],
        "scheduler.sinks_offered": offered,
        "scheduler.sinks_admitted": admitted,
        "scheduler.admit_ratio": admitted / offered if offered else 0.0,
        "phy.sinr_calls": calls.get("phy.sinr", 0),
        "phy.sinr_s": total["phy.sinr"],
        "phy.sinr_pairs": pairs,
        "phy.sinr_ns_per_pair": total["phy.sinr"] * 1e9 / pairs if pairs else 0.0,
        "phy.audit_samples.primary": audit("primary"),
        "phy.audit_samples.delivery": audit("delivery"),
        "phy.audit_samples.secondary": audit("secondary"),
        "transport.init_s": total["transport.init"],
        "transport.init_self_s": own["transport.init"],
        "transport.step_audit_s": audited,
        "transport.step_plain_s": total["transport.step"] - audited,
        "transport.step_self_s": own["transport.step"],
        "transport.roster_mean": mean(1),
        "transport.roster_final": sum(last_roster.values()),
        "transport.bundles_in_flight_mean": mean(2),
        "transport.bundles_in_flight_max": max(x[2] for x in steps),
        "transport.secondary_backlog_mean": mean(3),
        "harness.run_point_s": total["harness.run_point"] / points,
        "harness.fit_s": total["harness.fit"],
        "harness.points": points,
        "trace_overhead_s": trace_overhead_s,
    }


def step_residual(spans: list[Span]) -> float:
    """``TransportSim.step`` total minus the self times of every span inside it.

    Zero up to rounding when the self times account for the whole frame loop.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = s.name == "transport.step" or (s.parent >= 0 and inside[s.parent])
    step_total = sum(s.duration for s in spans if s.name == "transport.step")
    return step_total - sum(st for st, k in zip(selfs, inside) if k)


def dump(spans: list[Span], path) -> None:
    """Write spans as compact JSON: one row per span, times from the first start."""
    names = sorted({s.name for s in spans})
    code = {n: i for i, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    rows = [[code[s.name], round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.run]
            for s in spans]
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "run"],
                   "names": names, "spans": rows}, fh, separators=(",", ":"))
