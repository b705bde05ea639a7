"""Tests of the benchmark's own arithmetic and run assembly.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from tiersim import SimConfig, SweepPlan, run_point  # noqa: E402

SMALL = SimConfig(n=128.0, frames=160, warmup_frames=32, seed=3)


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b and type(a) is type(b)


def test_assembly_matches_run_point():
    timed = bench.run_point_timed(SMALL)
    reference = run_point(SMALL)
    for name in vars(reference):
        assert _same(getattr(timed.result, name), getattr(reference, name)), name
    assert bench.results_digest([timed.result]) == bench.results_digest([reference])
    assert len(timed.step_s) == SMALL.frames
    assert timed.setup_s > 0
    assert timed.failures == []


def test_traced_sweep_matches_untraced_and_restores_names():
    from tiersim import harness

    before = [vars(owner)[attr] for owner, attr, _, _ in spans._targets()]
    plan = SweepPlan(n_values=(128.0,), ap_scale_values=(1.0, 2.0), seeds=1,
                     seed0=5, frames=160, warmup=32)
    untraced = bench.run_workload(plan)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        results = harness.run_sweep(plan)
        harness.check_theorems(results)
    assert [vars(owner)[attr] for owner, attr, _, _ in spans._targets()] == before

    assert bench.results_digest(results) == untraced.digest
    m = spans.layer_metrics(tracer.spans, 0.0)
    assert m.keys() == spans.PER_LAYER.keys()
    assert m["harness.points"] == 2
    steps = [s for s in tracer.spans if s.name == "transport.step"]
    assert len(steps) == 2 * plan.frames
    assert m["transport.step_audit_s"] + m["transport.step_plain_s"] == pytest.approx(
        sum(s.duration for s in steps))
    assert abs(spans.step_residual(tracer.spans)) < 1e-9


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_union_of_children():
    s = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),      # overlaps a: union 1..5 covers 4
        _span("c", 6.0, 7.0, 0),
        _span("a.x", 1.5, 2.5, 1),
        _span("d", 9.5, 12.0, 0),     # clipped to the parent's end
    ]
    got = spans.self_times(s)
    assert got == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.0, 3.0, 1.0, 1.0, 2.5])


def test_step_residual_is_zero_when_self_times_cover_the_step():
    s = [
        _span("harness.run_point", 0.0, 20.0, -1),
        _span("transport.step", 1.0, 5.0, 0),
        _span("phy.sinr", 1.5, 2.0, 1),
        _span("scheduler.admit", 2.0, 3.5, 1),
        _span("transport.step", 6.0, 7.0, 0),
    ]
    assert spans.step_residual(s) == pytest.approx(0.0)


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50.0, 10),
    (39, 50.0, 19),
    (40, 75.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (999, 95.0, 49),      # p99 of 999 leaves only 9 beyond
    (1000, 99.0, 10),
    (2000, 99.5, 10),
    (4096, 99.5, 20),
    (100000, 99.99, 10),
])
def test_tail_percentile_keeps_ten_beyond(n, percentile, beyond):
    samples = np.random.default_rng(0).permutation(np.arange(1, n + 1, dtype=float))
    p, value, got_beyond = bench.tail_percentile(samples)
    assert p == percentile
    assert got_beyond == beyond >= bench.TAIL_MIN_BEYOND
    assert value == n - beyond   # samples are 1..n, so the value names its rank


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        bench.tail_percentile(np.arange(19.0))


def test_benchmark_json_lists_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.PER_LAYER
