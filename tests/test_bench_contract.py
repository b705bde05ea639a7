"""The names the benchmark in perfbench/ relies on, held by the default suite.

perfbench/spans.py wraps tiersim functions where their callers look them
up and reads a stepped sim's queues, and perfbench/bench.py assembles a run
point as run_point does. A rename, a change of run assembly or of the state
the traced step reads that would break a benchmark run fails here. The
results digest of three short runs is pinned too, so any change to a
simulated number fails here as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402

from tiersim import transport  # noqa: E402
from tiersim.deployment import SimConfig  # noqa: E402
from tiersim.harness import prepare, run_point  # noqa: E402
from tiersim.scheduler import PHASES  # noqa: E402


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


def test_traced_admit_info_counts_a_live_call(monkeypatch):
    # spans reads (unique sinks offered, sinks admitted) off the arguments and
    # return value of place_collection_regions; every ready sink is offered,
    # closed ones too. n = 512 gives k_p = 6, the smallest grid on which one
    # phase closes some sinks and leaves others open.
    info = {name: info for _owner, _attr, name, info in spans._targets()}["scheduler.admit"]
    admit = transport.place_collection_regions
    calls = []

    def recorded(*args):
        out = admit(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(transport, "place_collection_regions", recorded)
    sim = prepare(SimConfig(n=512.0, frames=160, warmup_frames=4, seed=3))
    closed = set()
    while not (closed and calls and calls[-1][1]):
        assert sim.frame < sim.cfg.frames, "no frame admitted a sink while holding another"
        # bundles on the roster before a step arrived before its frame: all ready
        ready = set(sim.pair_sink[sim.table["pair"][sim.pending]].tolist())
        closed = {sink for sink in ready if not sim.sink_open[sim.frame % PHASES, sink]}
        sim.step()
    args, out = calls[-1]
    assert info(args, out) == (len(ready), len(out))
    assert all(type(sink) is int for sink in out)
    assert set(out) <= ready - closed


# A change that moves simulated numbers on purpose updates these pins and
# says so in CHANGES.md. Recorded with numpy 2.4.6.
@pytest.mark.parametrize("n, ap_scale, digest", [
    (128.0, 1.0, "8864aef8ec948611"),
    (1024.0, 1.0, "7e21eec57ec65dfa"),
    (1024.0, 8.0, "70edd3e8ea4e25ad"),
], ids=["n128", "n1024", "n1024_ap8"])
def test_results_digest_is_pinned(n, ap_scale, digest):
    config = SimConfig(n=n, ap_scale=ap_scale, frames=160, warmup_frames=32, seed=3)
    assert bench.results_digest([run_point(config)]) == digest
