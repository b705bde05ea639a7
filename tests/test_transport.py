"""Transport tests: segmentation math, subframe stepping, delivery accounting."""

import math
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from functools import partial

import numpy as np
import pytest

from audit_reference import reference_audit_frame, use_reference_audit
from bundle_reference import reference_sums, reference_trace, use_reference_bundles
from int_dest_reference import reference_primary_setup
from queue_reference import use_reference_queue
from region_reference import phase_rects, place_collection_regions as rect_admission, rect_blocked
from secondary_positions import secondary_positions
from sent_cells import watch_sent_cells

from tiersim import deployment, routing, transport
from tiersim.deployment import ConfigurationError, SimConfig
from tiersim.harness import prepare, trace_packet
from tiersim.phy import RateReport
from tiersim.routing import hv_path_cells, path_load_census
from tiersim.scheduler import PHASES, TICKS, clear_sinks
from tiersim.transport import (AUDIT_BROADCASTS, AUDIT_RX_CAP, NO_HOPS, RunOptions,
                               relay_count)


def make_sim(n=100.0, seed=0, frames=96, warmup=32, ap_scale=1.0, sample_pairs=None, **opts):
    """A prepared sim; sample_pairs, if given, stands in for SAMPLE_PAIRS at set-up."""
    cfg = SimConfig(n=n, frames=frames, warmup_frames=warmup, seed=seed, ap_scale=ap_scale)
    with pytest.MonkeyPatch.context() as mp:
        if sample_pairs is not None:
            mp.setattr(transport, "SAMPLE_PAIRS", sample_pairs)
        return prepare(cfg, RunOptions(**opts))


# ======== segmentation count ========


def test_relay_count_frozen_values():
    # m = 1e4: 1e4 / ln(1e4) = 1085.73..., sqrt = 32.95 -> 32
    assert relay_count(1e4) == 32
    # m = e: sqrt(e / 1) = 1.648 -> floor 1
    assert relay_count(math.e) == 1
    # m = 1e8: 1e8 / 18.42068... = 5428681.02..., sqrt = 2329.95... -> 2329
    assert relay_count(1e8) == 2329


def test_relay_count_needs_density_above_one():
    with pytest.raises(ConfigurationError):
        relay_count(1.0)
    with pytest.raises(ConfigurationError):
        relay_count(0.25)


def test_relay_count_single_segment_regime():
    # m = 2: 2 / ln 2 = 2.885, sqrt = 1.698 -> one segment, no splitting
    assert relay_count(2.0) == 1


# ======== whole-run accounting ========


def record_bundle_hops(sim):
    """Wrap sim's bundle subframe. Returns a dict from bundle id to the cells
    its hops were sent from, in order, read off the returned hops; every
    frame must be an audit frame."""
    sent = defaultdict(list)
    advance = sim._advance_bundles

    def recorded(t, *args):
        ids = sim.bundles
        before = sim.table["cell"][ids]
        hops = advance(t, *args)
        moved = sim.table["cell"][ids] != before
        assert np.array_equal(hops[2], before[moved])
        for b, cell in zip(ids[moved].tolist(), hops[2].tolist()):
            sent[b].append(cell)
        return hops

    sim._advance_bundles = recorded
    return sent


@pytest.fixture(scope="module")
def recorded_run():
    sim = make_sim(frames=96, warmup=0, sample_pairs=64, collect_records=True)
    sim.bundle_hops = record_bundle_hops(sim)
    sim.run()
    return sim


def test_run_conserves_both_tiers(recorded_run):
    sim = recorded_run
    alive_s = int(sim.cnt.sum())
    assert sim.injected_s == sim.delivered_s + alive_s
    in_flight = len(sim.bundles) + len(sim.pending)
    assert sim.injected_p == (sim.delivered_direct + sim.delivered_carried
                              + sim.dropped_p + in_flight)
    assert sim.delivered_s > 0
    assert sim.delivered_carried > 0


def test_record_stamps_match_slot_structure(recorded_run):
    # broadcasts open a frame (slot 3t) and handovers close one (slot 3t + 2)
    primary = [r for r in recorded_run.records if r.tier == "primary"]
    assert primary
    for r in primary:
        assert r.creation % 3 == 0
        assert r.delivery % 3 == 2
        assert r.delivery > r.creation


def test_direct_pairs_complete_inside_their_slot(recorded_run):
    direct = [r for r in recorded_run.records
              if r.tier == "primary" and r.segments == 0]
    assert direct
    for r in direct:
        assert r.delivery == r.creation + 2
        assert r.path_length <= 2


def test_carried_packets_reassemble_all_segments(recorded_run):
    carried = [r for r in recorded_run.records
               if r.tier == "primary" and r.segments > 0]
    assert carried
    for r in carried:
        assert r.segments == recorded_run.n_relays


def test_carried_records_hold_primary_path_length(recorded_run):
    # a carried record counts the cells of its pair's primary-grid path, as a
    # direct record does, not those of its bundle's secondary-grid path
    sim = recorded_run
    carried = Counter((r.delivery, r.path_length) for r in sim.records
                      if r.tier == "primary" and r.segments > 0)
    table = sim.table[: sim.n_launched]
    done = table[table["delivered"] >= 0]
    assert len(done)
    assert carried == Counter(zip((3 * done["delivered"] + 2).tolist(),
                                  sim.pair_path_len[done["pair"]].tolist()))


def test_delay_at_least_path_length_minus_one(recorded_run):
    assert recorded_run.records
    for r in recorded_run.records:
        assert r.delivery - r.creation >= r.path_length - 1


def test_secondary_records_are_single_packets(recorded_run):
    secondary = [r for r in recorded_run.records if r.tier == "secondary"]
    assert secondary
    for r in secondary:
        assert r.segments == 1
        # tick stamps: born at 64*t0 + sigma, arrive at 64*t + sigma' + 1
        assert r.delivery > r.creation


def test_bundle_segments_arrive_inside_one_frame(recorded_run):
    m = recorded_run.metrics()
    assert m["segment_gap_within_frame"] == 1.0
    # co-moving segments land on the same tick by construction
    assert m["segment_gap_max"] == 0


def test_sampled_paths_are_hv_paths(recorded_run):
    sim = recorded_run
    cells = sim.dep.secondary_cells
    for row in range(sim.n_sampled):
        # a pair's q_cell block holds its path last position first
        path = sim.q_cell[sim.path_off[row] : sim.path_off[row] + sim.plen[row]][::-1]
        want = hv_path_cells(int(cells[sim.s_src[row]]), int(cells[sim.s_dst[row]]), sim.k_s)
        # a same-cell pair still takes one in-cell hop
        assert np.array_equal(path, np.repeat(want, 2) if len(want) == 1 else want)


def test_delivered_bundle_paths_are_hv_paths(recorded_run):
    # a delivered bundle was sent from every cell of its HV path but the last
    sim = recorded_run
    delivered = np.flatnonzero(sim.table["delivered"][: sim.n_launched] >= 0)
    assert len(delivered)
    for b in delivered.tolist():
        lead, pair = sim.table[["lead", "pair"]][b].tolist()
        want = hv_path_cells(int(sim.dep.secondary_cells[lead]),
                             int(sim.pair_int_dest_cell[pair]), sim.k_s)
        assert sim.bundle_hops[b] == want[:-1].tolist()


def test_desk_scale_metrics_sane(recorded_run):
    m = recorded_run.metrics()
    assert m["lambda_p"] > 0
    assert m["D_p"] >= 5  # one carry frame and the handover tail at minimum
    assert 0 < m["packet_size_factor"] < 1


def test_same_seed_same_metrics():
    a = make_sim(n=64.0, seed=5, frames=64, warmup=16, sample_pairs=32)
    b = make_sim(n=64.0, seed=5, frames=64, warmup=16, sample_pairs=32)
    a.run()
    b.run()
    ma, mb = a.metrics(), b.metrics()
    assert set(ma) == set(mb)
    for key, va in ma.items():
        vb = mb[key]
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb)
        else:
            assert va == vb, key


def test_zero_traffic_reports_zero_throughput():
    sim = make_sim(frames=8, warmup=0, sample_pairs=0)
    sim.run()
    m = sim.metrics()
    assert m["lambda_s"] == 0.0
    assert m["T_s"] == 0.0
    assert math.isnan(m["D_s"])
    assert m["low_confidence"]


def test_dropped_when_relay_cell_is_thinner_than_n():
    sim = make_sim(frames=32, warmup=0)
    sim.n_relays = 10**9  # no relay cell holds that many secondary nodes
    sim.run()
    assert sim.dropped_p > 0
    assert sim.delivered_carried == 0
    assert sim.delivered_direct > 0  # one-cell pairs never touch the carry tier


def test_drop_rate_counts_only_the_primary_tier():
    # the sampled secondary pairs inject about 12 k packets and never drop
    # one, so they must not dilute the primary drops below the 1 % valid bound
    sim = make_sim()
    sim.n_relays = 10**9
    sim.run()
    assert (sim.dropped_p, sim.injected_p) == (14, 18)
    assert sim.metrics()["drop_rate"] == 14 / 18


# ======== secondary pairing ========


# n = 64 at seed 0 draws 4081 secondary nodes, at seed 2 4046
@pytest.mark.parametrize("seed, count", [(0, 4081), (2, 4046)], ids=["odd", "even"])
def test_secondary_pairs_are_consecutive_ids(seed, count):
    sim = make_sim(n=64.0, seed=seed, frames=8, warmup=0, sample_pairs=10**6)
    assert len(sim.sec_pos) == count
    assert sim.n_pairs_s == count // 2 == sim.n_sampled
    # every pair sampled: pair i is (2i, 2i + 1), and an odd count's last node
    # is in no pair
    assert np.array_equal(sim.s_src, 2 * np.arange(count // 2))
    assert np.array_equal(sim.s_dst, sim.s_src + 1)
    assert sim.s_dst[-1] == count - 1 - count % 2


def test_sampled_pair_ends_are_2r_and_2r_plus_1():
    seed = 5
    sim = make_sim(n=128.0, seed=seed, frames=8, warmup=0)
    # the sample is the transport stream's first draw: rows r of n_pairs_s
    transport_stream = deployment.rng_streams(seed)[3]
    rows = np.sort(transport_stream.choice(sim.n_pairs_s, size=transport.SAMPLE_PAIRS,
                                           replace=False))
    assert np.array_equal(sim.s_src, 2 * rows)
    assert np.array_equal(sim.s_dst, 2 * rows + 1)
    # q_cell holds each pair's path last position first
    cells = sim.dep.secondary_cells
    first = sim.path_off + sim.plen - 1
    assert np.array_equal(sim.q_cell[first], cells[sim.s_src])
    assert np.array_equal(sim.q_cell[sim.path_off], cells[sim.s_dst])


def test_census_counts_every_consecutive_pair(monkeypatch):
    # an odd node count (n = 64, seed 0: 4081) and an even one (n = 128,
    # seed 0: 16312), each counted in one call that makes several passes
    censuses = []

    def recorded(*args):
        out = census(*args)
        censuses.append(out)
        return out

    census = transport.path_load_census
    monkeypatch.setattr(transport, "path_load_census", recorded)
    monkeypatch.setattr(routing, "CHUNK", 7)
    for n, seed in ((64.0, 0), (128.0, 0)):
        censuses.clear()
        sim = make_sim(n=n, seed=seed, frames=8, warmup=0)
        assert len(censuses) == 1
        # the census's pass size is at most max(CHUNK, k_s**2) pairs
        assert max(routing.CHUNK, sim.gs.cell_count) < sim.n_pairs_s
        cells = sim.dep.secondary_cells.astype(np.int64)
        want = np.zeros(sim.gs.cell_count, dtype=np.int64)
        for i in range(len(sim.sec_pos) // 2):
            want[hv_path_cells(int(cells[2 * i]), int(cells[2 * i + 1]), sim.k_s)] += 1
        assert np.array_equal(censuses[0], want)
        assert sim.census_max == want.max()


# ======== primary path set-up ========


def assert_primary_setup_equals_reference(sim):
    for name, want in reference_primary_setup(sim.dep).items():
        got = getattr(sim, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ap_scale 16 leaves fewer than 2 primary cells per side below n = 1024
@pytest.mark.parametrize("n, ap_scale", [(64, 1), (256, 1), (256, 4), (1024, 1), (1024, 16)])
def test_primary_setup_equals_per_pair_reference(n, ap_scale):
    sim = prepare(SimConfig(n=n, ap_scale=ap_scale, frames=8, warmup_frames=0, seed=5))
    assert (~sim.pair_direct).any()
    assert_primary_setup_equals_reference(sim)
    # a handover is sent from the relay of its int-dest cell, at that relay's position
    for pair in carried_pairs(sim):
        launch_arrived(sim, pair, 0)
    tx, _, _ = sim._deliver(1, open_sinks(sim))
    done = np.flatnonzero(sim.table["delivered"][: sim.n_launched] == 1)
    relays = sim.sec_relay[sim.pair_int_dest_cell[sim.table["pair"][done]]]
    assert len(done) and np.array_equal(tx, secondary_positions(sim.dep)[relays])


def test_primary_setup_empty_penultimate_cell(monkeypatch):
    cfg = SimConfig(n=256, frames=8, warmup_frames=0, seed=5)
    sim = prepare(cfg)
    pair = int(np.flatnonzero(~sim.pair_direct)[0])
    src, dst = sim.dep.primary_cells[sim.pairs_p[pair]]
    empty = int(hv_path_cells(int(src), int(dst), sim.k_p)[-2])
    draw = deployment.PositionStream.chunks

    def secondaries_outside(stream, *args):
        # every node of the emptied cell moves one primary column over
        for i, pos in draw(stream, *args):
            inside = sim.gp.cell_of(pos) == empty
            pos[inside, 0] = (pos[inside, 0] + 1 / sim.k_p) % 1.0
            yield i, pos

    monkeypatch.setattr(deployment.PositionStream, "chunks", secondaries_outside)
    # a penultimate cell without secondary nodes has empty secondary cells,
    # which the deployment rejects before any pair is set up
    with pytest.raises(ConfigurationError, match="hold no node"):
        prepare(cfg)


# ======== crafted single-subframe steps ========


def open_cells(sim):
    """A blocked-cell mask that blocks nothing."""
    return np.zeros(sim.gs.cell_count, dtype=bool)


def open_sinks(sim, active=()):
    """The sink row of a phase in which the primary cells in active transmit."""
    return clear_sinks(active, sim.k_p, sim.k_s // sim.k_p)


def queue_index(sim, row, position):
    """Index into sim.q of one path position of one sampled pair."""
    return sim.path_off[row] + sim.plen[row] - 1 - position


def longest_row(sim):
    return int(np.argmax(sim.plen))


def test_hop_count_equals_path_length_minus_one():
    sim = make_sim(warmup=0)
    row = longest_row(sim)
    plen = int(sim.plen[row])
    assert plen >= 3
    sim.q[queue_index(sim, row, 0)] = 1
    sim.cnt[row] = 1
    hops = 0
    while sim.delivered_s == 0:
        sim._advance_secondary(hops, ~open_cells(sim)[sim.q_cell])
        hops += 1
        assert hops <= plen
    assert hops == plen - 1


def test_eldest_packet_moves_first():
    sim = make_sim(warmup=0)
    rows = np.arange(sim.n_sampled)
    heads = queue_index(sim, rows, 0)
    # two packets queued on every path's first cell; only the head may hop
    sim._inject(0)
    sim._inject(2)
    assert (sim.q[heads] == 2).all()

    sim._advance_secondary(2, ~open_cells(sim)[sim.q_cell])
    # the elder left, the younger is now the head, still unmoved; a
    # two-cell path delivers the elder in the same frame
    assert (sim.q[heads] == 1).all()
    assert np.array_equal(sim.q[queue_index(sim, rows, 1)], sim.plen > 2)
    assert sim.delivered_s == np.count_nonzero(sim.plen == 2)

    t = 3
    while sim.delivered_s < 2 * sim.n_sampled:
        sim._advance_secondary(t, ~open_cells(sim)[sim.q_cell])
        t += 1
    # born at frames 0 and 2; the elder moves from frame 2 and arrives in
    # frame plen, the younger trails it by one frame
    plen = sim.plen
    born = sim.sigma_s[sim.q_cell[heads]]
    last = sim.sigma_s[sim.q_cell[queue_index(sim, rows, plen - 2)]]
    first = (64 * plen + last + 1) - born
    second = (64 * (plen + 1) + last + 1) - (64 * 2 + born)
    assert t == plen.max() + 2
    assert sim.delay_s_sum == float((first + second).sum())


def test_preservation_rect_freezes_traffic():
    sim = make_sim(warmup=0)
    heads = queue_index(sim, np.arange(sim.n_sampled), 0)
    size = sim.q.size
    everything = np.ones(sim.gs.cell_count, dtype=bool)
    for t in range(20):
        sim._inject(t)
        sim._advance_secondary(t, ~everything[sim.q_cell])
    # a blanket blocked region starves every path; the packets queue, honestly
    assert (sim.cnt == 10).all()
    assert np.array_equal(sim.q[heads], sim.cnt)
    assert sim.delivered_s == 0
    # the backlog sits in the counts, not in a wider queue array
    assert sim.q.size == size
    sim._advance_secondary(20, ~open_cells(sim)[sim.q_cell])
    # one packet per path hops on; a two-cell path delivers it at once
    assert (sim.q[heads] == 9).all()
    assert np.array_equal(sim.q[heads - 1], sim.plen > 2)
    assert sim.delivered_s == np.count_nonzero(sim.plen == 2)


def carried_pairs(sim):
    return np.flatnonzero(~sim.pair_direct & (sim.pair_int_dest_cell >= 0)).tolist()


def launch_arrived(sim, pair, t):
    """Launch a bundle of pair led by its int-dest, so it arrives in frame t."""
    return sim._launch(t, pair, int(sim.sec_relay[sim.pair_int_dest_cell[pair]]))


def lead_node(sim, pair, hops):
    """The relay of a secondary cell hops HV hops from pair's int-dest cell."""
    dest = int(sim.pair_int_dest_cell[pair])
    cell = next(c for c in range(sim.gs.cell_count)
                if len(hv_path_cells(c, dest, sim.k_s)) == hops + 1)
    return int(sim.sec_relay[cell])


def bundle_cells(sim, *bundles):
    return tuple(sim.table["cell"][list(bundles)].tolist())


def test_one_bundle_per_cell_per_pair():
    sim = make_sim(warmup=0)
    pair = carried_pairs(sim)[0]
    lead = lead_node(sim, pair, 3)
    start = int(sim.dep.secondary_cells[lead])
    other_pair = next(p for p in carried_pairs(sim)[1:] if sim.pair_int_dest_cell[p] != start)
    path = hv_path_cells(start, int(sim.pair_int_dest_cell[pair]), sim.k_s).tolist()
    first = sim._launch(0, pair, lead)
    second = sim._launch(0, pair, lead)
    sim._advance_bundles(1, open_cells(sim))
    assert bundle_cells(sim, first, second) == (path[1], path[0])
    # different pair on the same cells is not contended
    third = sim._launch(0, other_pair, lead)
    other_path = hv_path_cells(start, int(sim.pair_int_dest_cell[other_pair]), sim.k_s)
    sim._advance_bundles(2, open_cells(sim))
    assert bundle_cells(sim, first, second, third) == (path[2], path[1], other_path[1])


@pytest.mark.parametrize("n, ap_scale", [(64, 1), (128, 1), (256, 1), (512, 1), (1024, 1),
                                         (1024, 4), (1024, 16)])
def test_relay_cell_is_blocked_in_its_broadcast_phase(n, ap_scale):
    # every secondary cell of a carried pair's relay cell lies in its source's
    # preservation region, so a fresh bundle cannot hop while its segments land
    sim = prepare(SimConfig(n=n, ap_scale=ap_scale, frames=8, warmup_frames=0, seed=0))
    pairs = np.flatnonzero(~sim.pair_direct)
    assert len(pairs)
    q = sim.k_s // sim.k_p  # secondary cells nest q x q in each primary cell
    phases = sim.sigma_p[sim.dep.primary_cells[sim.pairs_p[pairs, 0]]]
    for phase, relay_cell in zip(phases, sim.pair_relay_cell[pairs]):
        x, y = divmod(int(relay_cell), sim.k_p)
        cols, rows = np.arange(x * q, x * q + q), np.arange(y * q, y * q + q)
        assert sim.blocked[phase, (cols[:, None] * sim.k_s + rows).ravel()].all()


def sinks_served(handovers):
    """The sink cells of the handovers _deliver returned, as a list."""
    return handovers[2].tolist()


def test_arrival_joins_roster_next_frame():
    sim = make_sim(warmup=0)
    pair = carried_pairs(sim)[0]
    bundle = sim._launch(0, pair, lead_node(sim, pair, 1))
    sim._advance_bundles(3, open_cells(sim))
    assert sim.bundles.tolist() == []
    assert sim.pending.tolist() == [bundle]
    assert sim.table["arrival"][bundle] == 3
    # not served in its arrival frame even if the region is free
    assert sinks_served(sim._deliver(3, open_sinks(sim))) == []
    assert len(sinks_served(sim._deliver(4, open_sinks(sim)))) == 1
    assert sim.pending.tolist() == []
    assert sim.table["delivered"][bundle] == 4


def pairs_sharing_a_sink(sim):
    """Two carried pairs with one sink cell and distinct int-dests."""
    pairs = carried_pairs(sim)
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            if (sim.pair_sink[a] == sim.pair_sink[b]
                    and sim.pair_int_dest_cell[a] != sim.pair_int_dest_cell[b]):
                return a, b
    pytest.fail("no two carried pairs share a sink cell")


def test_same_region_handovers_share_a_subframe():
    sim = make_sim(warmup=0)
    pair_a, pair_b = pairs_sharing_a_sink(sim)
    assert sim.pairs_p[pair_a, 1] != sim.pairs_p[pair_b, 1]
    launch_arrived(sim, pair_a, 2)
    launch_arrived(sim, pair_b, 2)
    served = sinks_served(sim._deliver(3, open_sinks(sim)))
    assert len(served) == 2
    assert served[0] == served[1]  # one collection region
    assert sim.delivered_carried == 2


def test_one_packet_per_sink_node_per_frame():
    sim = make_sim(warmup=0)
    pair = carried_pairs(sim)[0]
    # two bundles of one pair: same receiving node, the second must wait a frame
    launch_arrived(sim, pair, 2)
    later = launch_arrived(sim, pair, 2)
    assert len(sinks_served(sim._deliver(3, open_sinks(sim)))) == 1
    assert sim.pending.tolist() == [later]
    assert len(sinks_served(sim._deliver(4, open_sinks(sim)))) == 1
    assert sim.pending.tolist() == []


def test_delivery_defers_to_preservation_regions():
    sim = make_sim(warmup=0)
    pair = carried_pairs(sim)[0]
    bundle = launch_arrived(sim, pair, 2)
    # the sink's own cell transmits: its collection region would sit inside
    # that preservation region
    hold = open_sinks(sim, [int(sim.pair_sink[pair])])
    assert sinks_served(sim._deliver(3, hold)) == []
    assert sim.pending.tolist() == [bundle]
    assert len(sinks_served(sim._deliver(4, open_sinks(sim)))) == 1


def test_carried_tallies_count_deliveries_from_warmup_on():
    sim = make_sim(frames=96, warmup=32)
    w = sim.cfg.warmup_frames
    pair = carried_pairs(sim)[0]
    before = launch_arrived(sim, pair, w - 3)
    sim._deliver(w - 1, open_sinks(sim))
    # two bundles of one pair: the second waits out frames w .. w + 2
    first, second = launch_arrived(sim, pair, w - 1), launch_arrived(sim, pair, w - 1)
    sim._deliver(w, open_sinks(sim))
    sim._deliver(w + 3, open_sinks(sim))
    assert sim.table["delivered"][[before, first, second]].tolist() == [w - 1, w, w + 3]
    assert sim.delivered_carried == 3
    m = sim.metrics()
    # born w - 1 and arrived at once: D_p = 3 (delivered - born) + 2, wait = delivered - arrival
    assert m["delivered_carried"] == 2
    assert m["D_p"] == (5 + 14) / 2
    assert m["pending_wait"] == (1 + 4) / 2
    assert m["low_confidence"]


# ======== preservation masks and the batched audit ========


@pytest.mark.parametrize("n, k_p", [(40.0, 2), (900.0, 8)])
def test_phase_mask_is_union_of_preservation_regions(n, k_p):
    sim = make_sim(n=n, sample_pairs=8)
    assert sim.k_p == k_p
    assert sim.blocked.shape == (PHASES, sim.gs.cell_count)
    assert sim.sink_open.shape == (PHASES, sim.gp.cell_count)
    assert len(sim.phase_cells) == PHASES
    assert any(len(active) for active in sim.phase_cells)
    cells = np.arange(sim.gs.cell_count)
    for phase in range(PHASES):
        rects = phase_rects(sim, phase)
        assert np.array_equal(sim.blocked[phase], rect_blocked(cells, rects, sim.k_s))
        # the sink table row: each sink alone, admitted by the rectangle oracle
        alone = [rect_admission([sink], rects, sim.gp, sim.gs) == [sink]
                 for sink in range(sim.gp.cell_count)]
        assert sim.sink_open[phase].tolist() == alone


def test_queue_tables_hold_each_position_s_open_phases_and_keeper():
    sim = make_sim(n=128.0, seed=3)
    # one C-contiguous row per phase: the open cells at each queue position
    assert sim.q_open.shape == (PHASES, len(sim.q_cell)) and sim.q_open.flags.c_contiguous
    for phase in range(PHASES):
        assert np.array_equal(sim.q_open[phase], ~sim.blocked[phase][sim.q_cell])
    # a pair's block is laid out last position first: its destination, the
    # relays of the cells between, its source
    sec_pos = secondary_positions(sim.dep)
    assert (sim.plen >= 2).all()
    for r in range(sim.n_sampled):
        block = slice(sim.path_off[r], sim.path_off[r] + sim.plen[r])
        want = sec_pos[sim.sec_relay[sim.q_cell[block]]]
        want[0], want[-1] = sec_pos[sim.s_dst[r]], sec_pos[sim.s_src[r]]
        assert np.array_equal(sim.q_pos[block], want)


class ValueLog(RateReport):
    """A RateReport that also keeps every recorded SINR value."""

    def __init__(self):
        super().__init__()
        self.values = {cat: [] for cat in self.samples}

    def record(self, category, sinr_values):
        super().record(category, sinr_values)
        self.values[category].extend(np.asarray(sinr_values).tolist())


def assert_audit_equals_reference(**sim_args):
    runs = [make_sim(**sim_args) for _ in range(2)]
    use_reference_audit(runs[1])
    for sim in runs:
        sim.report = ValueLog()
        sim.run()
    batched, reference = (sim.report for sim in runs)
    assert all(count > 0 for count in reference.samples.values())
    assert batched.samples == reference.samples
    assert batched.min_sinr == reference.min_sinr
    # the minima hide single hops, so every audited value must match too
    for cat, values in reference.values.items():
        assert sorted(batched.values[cat]) == sorted(values)
    return runs[0]


def test_batched_audit_equals_per_hop_reference():
    assert_audit_equals_reference(n=128.0, seed=3, frames=96, warmup=16)


def test_batched_audit_equals_per_hop_reference_small_ticks():
    # k_s = 8: 64 cells over 64 ticks, so most tick rows hold 0 or 1 relays
    sim = assert_audit_equals_reference(n=256.0, seed=1, frames=96, warmup=16, ap_scale=4.0)
    assert sim.k_s == 8


def crafted_frame(sim, rng):
    """Three broadcasts (one over AUDIT_RX_CAP relays, one over 5, one
    direct handoff) as emitting pairs and relay ids drawn from non-relay
    nodes, four hops from live relays and three deliveries, two of them
    into one region."""
    sent = rng.choice(sim.n_pairs_p, 3, replace=False)
    non_relays = np.setdiff1d(np.arange(len(sim.sec_pos)), sim.sec_relay)
    relays = [rng.choice(non_relays, n_rx, replace=False) for n_rx in (AUDIT_RX_CAP + 6, 5, 0)]
    rows = rng.choice(len(sim.relay_cells), 4, replace=False)
    hops = (sim.relay_tx_pos[rows], rng.random((4, 2)), sim.relay_cells[rows])
    tx_rx = rng.random((3, 2, 2))
    deliveries = (tx_rx[:, 0], tx_rx[:, 1], np.array([4, 9, 4]))
    return sent, relays, hops, deliveries


def audit_values(sim, audit, already_audited, *frame):
    sim.report = ValueLog()
    sim._audited_broadcasts = already_audited
    audit(*frame)
    return sim.report


# WORKERS values the audit must give equal numbers under: the calling
# thread alone, fewer runs of tick groups than groups, and more runs than
# groups (each group its own run)
WORKER_COUNTS = (1, 2, 3, 64)


def setup_arrays(n: float, seed: int) -> dict:
    """The set-up arrays that the split node passes write, by name."""
    sim = make_sim(n=n, seed=seed, frames=8, warmup=0)
    dep = sim.dep
    return {
        "secondary_cells": dep.secondary_cells,
        "secondary_counts": dep.secondary_counts,
        "order": dep.secondary_index_primary_grid.order,
        "secondary_relay": sim.sec_relay,
        "census": path_load_census(
            dep.secondary_cells[: 2 * sim.n_pairs_s].reshape(-1, 2), sim.k_s),
        "relay_tx_pos": sim.relay_tx_pos,
        "q_pos": sim.q_pos,
    }


@pytest.mark.parametrize("n, chunk", [(128.0, 1000), (512.0, deployment.CHUNK)])
def test_worker_count_never_changes_a_setup_array(monkeypatch, n, chunk):
    # n = 128 holds about 16 k secondary nodes on 324 cells, so 1000-node
    # chunks make dozens per pass; n = 512 holds about 262 k, several real
    # CHUNKs. Either way a pass splits into ranges of unequal length whose
    # last chunk is short
    monkeypatch.setattr(deployment, "CHUNK", chunk)
    monkeypatch.setattr(routing, "CHUNK", chunk)
    monkeypatch.setattr(deployment, "_pool", None)
    monkeypatch.setattr(deployment, "_pool_pid", -1)
    interval = sys.getswitchinterval()
    want = None
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(deployment, "WORKERS", workers)
        # each count gets a pool of its own workers - 1 threads, so 64 runs on
        # more threads than cores, switching often, where a lost write shows
        deployment._pool_pid = -1
        sys.setswitchinterval(1e-5)
        try:
            got = setup_arrays(n, seed=4)
        finally:
            sys.setswitchinterval(interval)
            if deployment._pool is not None:
                deployment._pool.shutdown()
        want = want or got
        for name, array in want.items():
            assert got[name].dtype == array.dtype, (workers, name)
            assert np.array_equal(got[name], array), (workers, name)
        count, cells = len(got["secondary_cells"]), len(got["secondary_counts"])
        step, ranges = deployment.node_ranges(count, cells)
        if workers > 1:
            assert len({hi - lo for lo, hi in ranges}) > 1 and count % step


def record_submits(monkeypatch) -> list:
    """Every future the broadcast audit submits to its thread pool."""
    futures = []
    pool = deployment.worker_pool

    class Recording:
        def submit(self, *args):
            futures.append(pool().submit(*args))
            return futures[-1]

    monkeypatch.setattr(deployment, "worker_pool", Recording)
    return futures


@pytest.mark.parametrize("block_cols", [transport.AUDIT_BLOCK_COLS, 16])
@pytest.mark.parametrize("already_audited", [0, AUDIT_BROADCASTS - 2])
def test_multi_broadcast_audit_equals_reference(already_audited, block_cols, monkeypatch):
    # no benchmark or acceptance deployment has two active source cells in
    # one phase, so the other-broadcast rows are only reached here. Every
    # worker count runs on the same frames, so none may change a value.
    monkeypatch.setattr(transport, "AUDIT_BLOCK_COLS", block_cols)
    sim = make_sim(n=128.0, seed=3, frames=96, warmup=16)
    rng = np.random.default_rng(17)
    for t in (16, 40):
        frame = (t, *crafted_frame(sim, rng))
        want = audit_values(sim, partial(reference_audit_frame, sim), already_audited, *frame)
        audited_rx = [AUDIT_RX_CAP, 5, 1][: AUDIT_BROADCASTS - already_audited]
        assert want.samples == {"primary": sum(audited_rx), "delivery": 3, "secondary": 4}
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(deployment, "WORKERS", workers)
            got = audit_values(sim, sim._audit_frame, already_audited, *frame)
            assert got.samples == want.samples
            assert got.values["primary"] == want.values["primary"]
            assert got.values["delivery"] == want.values["delivery"]
            assert sorted(got.values["secondary"]) == sorted(want.values["secondary"])


def test_broadcast_audit_raises_on_relay_in_middle_tick(monkeypatch):
    # 16-relay blocks put the middle tick in a middle power block, summed by
    # the calling thread or by a pool thread as the worker count decides
    monkeypatch.setattr(transport, "AUDIT_BLOCK_COLS", 16)
    submitted = record_submits(monkeypatch)
    tick_max = transport._tick_max

    def late_on_pool(*args):
        # pool threads finish late, so an error that leaves the audit
        # before every pool thread is done shows
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.005)
        return tick_max(*args)

    monkeypatch.setattr(transport, "_tick_max", late_on_pool)
    sim = make_sim(n=128.0, seed=3, frames=96, warmup=16)
    t = 16
    sent, relays, _, deliveries = crafted_frame(sim, np.random.default_rng(5))
    live = np.flatnonzero(~sim.blocked[t % PHASES][sim.relay_cells])
    ticks = sim.sigma_s[sim.relay_cells[live]]
    row = live[np.argmin(np.abs(ticks - TICKS // 2))]
    relays[1][2] = sim.sec_relay[sim.relay_cells[row]]
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(deployment, "WORKERS", workers)
        sim._audited_broadcasts = 0
        with pytest.raises(ValueError, match="interferer"):
            sim._audit_frame(t, sent, relays, NO_HOPS, deliveries)
        assert all(future.done() for future in submitted)
    assert submitted
    sim._audited_broadcasts = 0
    with pytest.raises(ValueError, match="interferer"):
        reference_audit_frame(sim, t, sent, relays, NO_HOPS, deliveries)


def hop_widths(sim, t, cells):
    """Each hop's live relays in its tick other than its own cell's, read
    off the blocked table of frame t's phase."""
    open_cells = ~sim.blocked[t % PHASES]
    return np.array([np.count_nonzero(open_cells & (sim.sigma_s == sim.sigma_s[c])) - open_cells[c]
                     for c in np.asarray(cells).tolist()])


@pytest.mark.parametrize("hop_entries", [transport.AUDIT_HOP_ENTRIES, 16])
@pytest.mark.parametrize("broadcasts", [0, 3])
def test_padded_hop_block_rows_of_every_width(broadcasts, hop_entries, monkeypatch):
    # a hop from every relay cell at n = 128 (k_s = 18), frame 16: rows of
    # 0 to 5 live relays, each with the frame's broadcasts, so short rows
    # are padded; 16-entry blocks cut the hops into batches of one row
    monkeypatch.setattr(transport, "AUDIT_HOP_ENTRIES", hop_entries)
    sim = make_sim(n=128.0, seed=3, frames=96, warmup=16)
    t = 16
    sent, relays, _, deliveries = crafted_frame(sim, np.random.default_rng(29))
    sent, relays = sent[:broadcasts], relays[:broadcasts]
    cells = sim.relay_cells
    rx = np.random.default_rng(31).random((len(cells), 2))
    hops = (sim.relay_tx_pos[: len(cells)], rx, cells)
    widths = hop_widths(sim, t, cells)
    assert 0 in widths and len(set(widths.tolist())) >= 5
    frame = (t, sent, relays, hops, deliveries)
    want = audit_values(sim, partial(reference_audit_frame, sim), 0, *frame)
    got = audit_values(sim, sim._audit_frame, 0, *frame)
    assert got.samples == want.samples
    assert want.samples["secondary"] == len(cells)
    assert sorted(got.values["secondary"]) == sorted(want.values["secondary"])


def test_padded_hop_block_equals_reference_past_pairwise_block():
    # k_s = 90: a row holds up to 143 entries, past the 128 that numpy's
    # pairwise sum adds in one block before it recurses, and each audited
    # frame holds rows of at least 3 widths
    runs = [make_sim(n=1024.0, seed=0, frames=24, warmup=16, ap_scale=2.0) for _ in range(2)]
    batched, reference = runs
    use_reference_audit(reference)
    entries = []
    audit = batched._audit_frame

    def watched(t, sent, relays, hops, deliveries):
        entries.append(hop_widths(batched, t, hops[2]) + len(sent))
        audit(t, sent, relays, hops, deliveries)

    batched._audit_frame = watched
    for sim in runs:
        sim.report = ValueLog()
        sim.run()
    assert len(entries) == 8
    assert all(len(set(row.tolist())) >= 3 for row in entries)
    assert max(row.max() for row in entries) > 128
    assert batched.report.samples == reference.report.samples
    assert batched.report.min_sinr == reference.report.min_sinr
    for cat, values in reference.report.values.items():
        assert sorted(batched.report.values[cat]) == sorted(values)


def test_padded_hop_block_raises_only_on_a_live_relay():
    # hop 0 has the widest row, so hop 1's row is padded; hop 1's receiver
    # sits on the first live relay after its tick's run, where a padded
    # column would land without the sentinel. Only a receiver on a live
    # relay of the hop's own tick is co-located with an interferer
    sim = make_sim(n=128.0, seed=3, frames=96, warmup=16)
    t = 16
    sec_pos = secondary_positions(sim.dep)
    sent, relays, _, deliveries = crafted_frame(sim, np.random.default_rng(37))
    open_cells = ~sim.blocked[t % PHASES]
    live = sim.relay_cells[open_cells[sim.relay_cells]]  # by tick, then cell
    widths = hop_widths(sim, t, live)
    wide, narrow = live[np.argmax(widths)], live[np.argmin(np.where(widths > 0, widths, 99))]
    assert 0 < hop_widths(sim, t, [narrow])[0] < widths.max()
    after = live[np.searchsorted(sim.sigma_s[live], sim.sigma_s[narrow], side="right")]
    assert sim.sigma_s[after] > sim.sigma_s[narrow]
    cells = np.array([wide, narrow])
    tx = sec_pos[sim.sec_relay[cells]]
    rx = np.array([[0.3, 0.7], sec_pos[sim.sec_relay[after]]])
    frame = (t, sent, relays, (tx, rx, cells), deliveries)
    want = audit_values(sim, partial(reference_audit_frame, sim), 0, *frame)
    got = audit_values(sim, sim._audit_frame, 0, *frame)
    assert sorted(got.values["secondary"]) == sorted(want.values["secondary"])
    assert np.isinf(sim.relay_tx_pos[len(sim.relay_cells)]).all()
    # the narrow hop's receiver moved onto another live relay of its tick
    same_tick = live[(sim.sigma_s[live] == sim.sigma_s[narrow]) & (live != narrow)]
    rx[1] = sec_pos[sim.sec_relay[same_tick[0]]]
    for audit in (sim._audit_frame, partial(reference_audit_frame, sim)):
        sim._audited_broadcasts = 0
        with pytest.raises(ValueError, match="interferer co-located"):
            audit(t, sent, relays, (tx, rx, cells), deliveries)


def test_single_group_frames_submit_nothing(monkeypatch):
    # k_s = 8: 64 cells, fewer than AUDIT_BLOCK_COLS, so each frame's ticks
    # form one group, summed on the calling thread whatever the worker count
    monkeypatch.setattr(deployment, "WORKERS", 64)
    # set-up's node passes share the pool, so recording starts with the frames
    sim = make_sim(n=256.0, seed=1, frames=96, warmup=16, ap_scale=4.0)
    submitted = record_submits(monkeypatch)
    assert sim.k_s ** 2 < transport.AUDIT_BLOCK_COLS
    sim.run()
    assert sim.report.samples["primary"] > 0
    assert not submitted


def audited_point(conn, pool_pids: list) -> None:
    """Run an audited n = 128 point and send down conn its RateReport and the
    process that made the pool, at each pool use of set-up and of the frames
    (worker_pool must append it to pool_pids). At n = 64 a broadcast frame's
    preservation region silences every secondary cell, so that audit has no
    tick groups to split."""
    pool_pids.clear()
    sim = make_sim(n=128.0, frames=96, warmup=16)
    setup = len(pool_pids)
    sim.run()
    conn.send((sim.report, pool_pids[:setup], pool_pids[setup:]))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_audits_after_parent_used_the_pool(monkeypatch):
    # small chunks, small blocks and two workers, so the parent's set-up and
    # audit start pool threads, which a forked child does not inherit
    monkeypatch.setattr(deployment, "_pool", None)
    monkeypatch.setattr(deployment, "_pool_pid", -1)
    monkeypatch.setattr(deployment, "CHUNK", 4096)
    monkeypatch.setattr(routing, "CHUNK", 4096)
    monkeypatch.setattr(transport, "AUDIT_BLOCK_COLS", 16)
    monkeypatch.setattr(deployment, "WORKERS", 2)
    pool, pool_pids = deployment.worker_pool, []

    def recorded():
        made = pool()
        pool_pids.append(deployment._pool_pid)
        return made

    monkeypatch.setattr(deployment, "worker_pool", recorded)
    receive, send = multiprocessing.Pipe(duplex=False)
    audited_point(send, pool_pids)
    parent, setup, audit = receive.recv()
    assert parent.samples["primary"] > 0
    assert setup and audit and set(setup + audit) == {os.getpid()}
    child = multiprocessing.get_context("fork").Process(target=audited_point,
                                                        args=(send, pool_pids))
    child.start()
    try:
        assert receive.poll(60), "the forked child's audited run did not finish"
        report, setup, audit = receive.recv()
        assert report == parent
        # set-up and audit both ran on a pool the child made
        assert setup and audit and set(setup + audit) == {child.pid}
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
        deployment._pool.shutdown()
    assert child.exitcode == 0


def test_broadcast_budget_runs_out_through_step():
    # 80 audited frames at n = 1024 hold more than AUDIT_BROADCASTS
    # broadcasts, so the budget runs out inside the audit window
    sim = make_sim(n=1024.0, frames=96, warmup=16, audit_frames=80)
    drawn = record_returns(sim, "_broadcast")
    sim.run()
    in_window = [(pair, ids) for t, (sent, relays) in enumerate(drawn) if sim._in_audit(t)
                 for pair, ids in zip(sent.tolist(), relays)]
    assert len(in_window) > AUDIT_BROADCASTS
    assert sim._audited_broadcasts == AUDIT_BROADCASTS
    # a relayed broadcast is sampled at its first AUDIT_RX_CAP relays, a
    # direct handoff at its destination
    assert sim.report.samples["primary"] == sum(
        min(len(ids), AUDIT_RX_CAP) or 1 for _, ids in in_window[:AUDIT_BROADCASTS])


# ======== queue lengths against the per-packet reference ========


def record_returns(sim, name):
    """Keep every value that sim's method name returns."""
    log = []
    method = getattr(sim, name)

    def recorded(*args):
        out = method(*args)
        log.append(out)
        return out

    setattr(sim, name, recorded)
    return log


def test_queue_lengths_equal_per_packet_reference(monkeypatch):
    runs = [make_sim(n=128.0, seed=3, frames=160, warmup=16, collect_records=True)
            for _ in range(2)]
    counts, reference = runs
    use_reference_queue(reference)
    sent = [watch_sent_cells(sim, monkeypatch) for sim in runs]
    logs = [record_returns(sim, "_advance_secondary") for sim in runs]
    queued = 0
    for t in range(160):
        for sim in runs:
            sim.step()
        queued = max(queued, int(counts.q.max()))
        assert counts.delivered_s == reference.delivered_s
        assert counts.delay_s_sum == reference.delay_s_sum
        assert np.array_equal(counts.cnt, reference.cnt)
        for got, want in zip(logs[0][-1], logs[1][-1]):
            assert np.array_equal(got, want)
    # the run exercised head-of-line queues and the audit
    assert queued > 1
    assert sum(len(h[2]) for h in logs[1]) > 0
    secondary = [[r for r in sim.records if r.tier == "secondary"] for sim in runs]
    assert secondary[1]
    assert secondary[0] == secondary[1]
    assert sent[0]() == sent[1]()


# ======== bundle table against the per-object reference ========


def table_sums(sim):
    """Sums of 3 (delivered - born) + 2 and of delivered - arrival, in frames,
    over the table's bundles delivered from warmup on."""
    tab = sim.table[: sim.n_launched]
    done = tab[tab["delivered"] >= sim.cfg.warmup_frames]
    return (int((3 * (done["delivered"] - done["born"]) + 2).sum()),
            int((done["delivered"] - done["arrival"]).sum()))


@pytest.mark.parametrize("open_masks", [False, True])
def test_bundles_equal_per_object_reference(open_masks, monkeypatch):
    # a pair broadcasts at most once per PHASES frames, so two of its bundles
    # are in flight together only when a carry outlasts that; on the n = 128
    # and 256 grids none does, on n = 512 some do
    frames = 512
    cfg = SimConfig(n=512.0, frames=frames, warmup_frames=16, seed=3)
    runs = [prepare(cfg, RunOptions(audit_frames=64, collect_records=True))
            for _ in range(2)]
    table, reference = runs
    use_reference_bundles(reference)
    if open_masks:
        # with nothing blocked, fresh bundles hop in their broadcast frame and
        # no cell waits. Without the regions the SINR audit is meaningless;
        # hops are still returned and compared.
        for sim in runs:
            sim.blocked[:] = False
            sim.q_open[:] = True
            sim._audit_frame = lambda *frame: None
    sent = [watch_sent_cells(sim, monkeypatch) for sim in runs]
    hops = [record_returns(sim, "_advance_bundles") for sim in runs]
    deliveries = [record_returns(sim, "_deliver") for sim in runs]
    shared = 0
    for t in range(frames):
        for sim in runs:
            sim.step()
        assert table.delivered_carried == reference.delivered_carried
        assert table_sums(table) == reference_sums(reference)
        assert len(table.bundles) == len(reference.bundles)
        assert len(table.pending) == len(reference.pending)
        for got, want in zip(hops[0][-1] + deliveries[0][-1],
                             hops[1][-1] + deliveries[1][-1]):
            assert np.array_equal(got, want)
        in_flight = table.table["pair"][table.bundles]
        shared = max(shared, np.bincount(in_flight).max(initial=0))
    # the run exercised contention within a pair, the audit and the roster
    assert shared >= 2
    assert sum(len(h[2]) for h in hops[1]) > 0
    assert reference.delivered_carried > 0
    assert reference_sums(reference)[0] > 0
    primary = [[r for r in sim.records if r.tier == "primary"] for sim in runs]
    assert primary[0] == primary[1]
    assert sent[0]() == sent[1]()
    if not open_masks:
        assert trace_packet(cfg) == reference_trace(reference)
