"""The names the benchmark in perfbench/ relies on, held by the default suite.

perfbench/spans.py wraps tiersim functions where their callers look them
up and reads a stepped sim's queues, and perfbench/bench.py assembles a run
point as run_point does. A rename, a change of run assembly or of the state
the traced step reads that would break a benchmark run fails here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402

from tiersim.deployment import SimConfig  # noqa: E402
from tiersim.harness import prepare, run_point  # noqa: E402


def test_traced_names_live_where_spans_patch_them():
    for owner, attr, _name, _info in spans._targets():
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_bench_assembly_matches_run_point():
    config = SimConfig(n=128.0, frames=160, warmup_frames=32, seed=3)
    timed = bench.run_point_timed(config)
    assert timed.failures == []
    assert bench.results_digest([timed.result]) == bench.results_digest([run_point(config)])


def test_traced_step_info_reads_live_state():
    sim = prepare(SimConfig(n=128.0, frames=64, warmup_frames=4, seed=3))
    while not (len(sim.pending) and len(sim.bundles)):
        assert sim.frame < sim.cfg.frames, "no frame had bundles in flight and on the roster"
        sim.step()
    info = spans._step_info((sim,), None)
    assert [type(x) for x in info] == [bool, int, int, int]
    assert info[0]  # the frame lies in the audit window
    assert info[1] == len(sim.pending)
    assert info[2] == len(sim.bundles)
    assert info[1] + info[2] == (sim.injected_p - sim.delivered_direct
                                 - sim.delivered_carried - sim.dropped_p)
    assert info[3] == sim.injected_s - sim.delivered_s > 0
