"""The names the benchmark in perfbench/ relies on, held by the default suite.

perfbench/spans.py wraps tiersim functions where their callers look them
up and reads a stepped sim's queues, and perfbench/bench.py assembles a run
point as run_point does. A rename, a change of run assembly or of the state
the traced step reads that would break a benchmark run fails here. The
results digest of three short runs is pinned too, so any change to a
simulated number fails here as well, and the primary-tier fields of the
same runs have a pin of their own.
"""

import functools
import hashlib
import json
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


SHORT_RUNS = [(128.0, 1.0), (1024.0, 1.0), (1024.0, 8.0)]
SHORT_RUN_IDS = ["n128", "n1024", "n1024_ap8"]


@functools.lru_cache(maxsize=None)
def short_run(n, ap_scale):
    return run_point(SimConfig(n=n, ap_scale=ap_scale, frames=160, warmup_frames=32, seed=3))


# A change that moves simulated numbers on purpose updates these pins and
# says so in CHANGES.md. Recorded with numpy 2.4.6.
@pytest.mark.parametrize("n, ap_scale, digest", [
    (*SHORT_RUNS[0], "d1ca8753e4a6f6e4"),
    (*SHORT_RUNS[1], "2c873187b5e8121d"),
    (*SHORT_RUNS[2], "1be27719350e605c"),
], ids=SHORT_RUN_IDS)
def test_results_digest_is_pinned(n, ap_scale, digest):
    assert bench.results_digest([short_run(n, ap_scale)]) == digest


PRIMARY_FIELDS = ("lambda_p", "T_p", "D_p", "min_sinr_primary", "min_sinr_delivery",
                  "drop_rate", "pairs_p", "valid", "capture_fraction")
PRIMARY_EXTRAS = ("delivered_carried", "delivered_direct", "pending_wait")


def primary_digest(result) -> str:
    """Hash of the primary-tier fields of one result, floats bit-exact."""
    row = {k: getattr(result, k) for k in PRIMARY_FIELDS}
    row.update((k, result.extras[k]) for k in PRIMARY_EXTRAS)
    return hashlib.sha256(json.dumps(bench._canon(row), sort_keys=True).encode()).hexdigest()[:16]


# The primary tier alone: a change to the secondary tier leaves these as they
# are, while the digests above move with it.
@pytest.mark.parametrize("n, ap_scale, digest", [
    (*SHORT_RUNS[0], "cd6a26681ce02aaf"),
    (*SHORT_RUNS[1], "de8c44f380fdd1c9"),
    (*SHORT_RUNS[2], "2028cf646382d75c"),
], ids=SHORT_RUN_IDS)
def test_primary_tier_digest_is_pinned(n, ap_scale, digest):
    assert primary_digest(short_run(n, ap_scale)) == digest
