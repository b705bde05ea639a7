"""Transport tests: segmentation math, subframe stepping, delivery accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit_reference import rect_blocked, use_reference_audit
from queue_reference import use_reference_queue

from tiersim.deployment import ConfigurationError, SimConfig
from tiersim.harness import prepare
from tiersim.phy import RateReport
from tiersim.scheduler import TICKS, make_region
from tiersim.transport import RunOptions, SegmentBundle, relay_count, segment_gap


def make_sim(n=100.0, seed=0, frames=96, warmup=32, **opts):
    cfg = SimConfig(n=n, frames=frames, warmup_frames=warmup, seed=seed)
    return prepare(cfg, RunOptions(**opts))


# ======== segmentation count and gap helpers ========


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


def test_segment_gap_values():
    assert segment_gap(np.array([5, 3, 9])) == 6
    assert segment_gap(np.array([7])) == 0
    with pytest.raises(ValueError):
        segment_gap(np.array([]))


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=20),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_segment_gap_shift_invariant(ticks, shift):
    base = segment_gap(np.array(ticks))
    assert base >= 0
    assert segment_gap(np.array(ticks) + shift) == base


# ======== whole-run accounting ========


@pytest.fixture(scope="module")
def recorded_run():
    sim = make_sim(frames=96, warmup=0, sample_pairs=64, collect_records=True)
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


def test_sampled_paths_skip_empty_interior_cells(recorded_run):
    sim = recorded_run
    for row in range(sim.n_sampled):
        path = sim.path_flat[sim.path_off[row]: sim.path_off[row] + sim.plen[row]]
        for cell in path[1:-1]:
            assert sim.sec_relay[cell] >= 0


def test_delivered_bundle_paths_skip_empty_interior_cells(recorded_run):
    assert recorded_run.delivered_bundles
    for b in recorded_run.delivered_bundles:
        assert b.segments == recorded_run.n_relays
        for cell in b.path[1:-1]:
            assert recorded_run.sec_relay[cell] >= 0


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


def test_dropped_when_no_interior_destination():
    sim = make_sim(frames=32, warmup=0)
    sim.pair_int_dest[:] = -1  # no handover candidate anywhere
    sim.run()
    assert sim.dropped_p > 0
    assert sim.delivered_carried == 0
    assert sim.delivered_direct > 0  # one-cell pairs never touch the carry tier


# ======== crafted single-subframe steps ========


def open_cells(sim):
    """A blocked-cell mask that blocks nothing."""
    return np.zeros(sim.gs.cell_count, dtype=bool)


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
        sim._advance_secondary(hops, open_cells(sim))
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

    sim._advance_secondary(2, open_cells(sim))
    # the elder left, the younger is now the head, still unmoved; a
    # two-cell path delivers the elder in the same frame
    assert (sim.q[heads] == 1).all()
    assert np.array_equal(sim.q[queue_index(sim, rows, 1)], sim.plen > 2)
    assert sim.delivered_s == np.count_nonzero(sim.plen == 2)

    t = 3
    while sim.delivered_s < 2 * sim.n_sampled:
        sim._advance_secondary(t, open_cells(sim))
        t += 1
    # born at frames 0 and 2; the elder moves from frame 2 and arrives in
    # frame plen, the younger trails it by one frame
    plen = sim.plen
    born = sim.sigma_s[sim.path_flat[sim.path_off]]
    last = sim.sigma_s[sim.path_flat[sim.path_off + plen - 2]]
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
        sim._advance_secondary(t, everything)
    # a blanket blocked region starves every path; the packets queue, honestly
    assert (sim.cnt == 10).all()
    assert np.array_equal(sim.q[heads], sim.cnt)
    assert sim.delivered_s == 0
    # the backlog sits in the counts, not in a wider queue array
    assert sim.q.size == size
    sim._advance_secondary(20, open_cells(sim))
    # one packet per path hops on; a two-cell path delivers it at once
    assert (sim.q[heads] == 9).all()
    assert np.array_equal(sim.q[heads - 1], sim.plen > 2)
    assert sim.delivered_s == np.count_nonzero(sim.plen == 2)


def craft_bundle(sim, pair, path_cells, born=0, pos=0):
    pair = int(pair)
    return SegmentBundle(
        pair=pair,
        path=np.array(path_cells, dtype=np.int64),
        segments=sim.n_relays,
        born=born,
        lead_pos=sim.sec_pos[0].copy(),
        sink_cell=int(sim.pair_sink[pair]),
        dst_node=int(sim.pairs_p[pair, 1]),
        int_dest=int(sim.pair_int_dest[pair]),
        pos=pos,
    )


def carried_pairs(sim, count):
    pairs = np.flatnonzero(~sim.pair_direct & (sim.pair_int_dest >= 0))
    assert len(pairs) >= count
    return pairs[:count]


def test_one_bundle_per_cell_per_pair():
    sim = make_sim(warmup=0)
    (pair,) = carried_pairs(sim, 1)
    path = [0, 1, 2, 3]
    first = craft_bundle(sim, pair, path, born=0)
    second = craft_bundle(sim, pair, path, born=0)
    sim.bundles = [first, second]
    sim._advance_bundles(1, open_cells(sim))
    assert (first.pos, second.pos) == (1, 0)
    # different pair on the same cells is not contended
    other_pair = carried_pairs(sim, 2)[1]
    third = craft_bundle(sim, other_pair, path, born=0)
    sim.bundles.append(third)
    sim._advance_bundles(2, open_cells(sim))
    assert (first.pos, second.pos, third.pos) == (2, 1, 1)


def test_fresh_bundle_waits_out_its_broadcast_frame():
    sim = make_sim(warmup=0)
    (pair,) = carried_pairs(sim, 1)
    bundle = craft_bundle(sim, pair, [0, 1, 2], born=7)
    sim.bundles = [bundle]
    sim._advance_bundles(7, open_cells(sim))
    assert bundle.pos == 0
    sim._advance_bundles(8, open_cells(sim))
    assert bundle.pos == 1


def test_arrival_joins_roster_next_frame():
    sim = make_sim(warmup=0)
    (pair,) = carried_pairs(sim, 1)
    bundle = craft_bundle(sim, pair, [0, 1], born=0)
    sim.bundles = [bundle]
    sim._advance_bundles(3, open_cells(sim))
    assert sim.bundles == []
    assert sim.pending == [bundle]
    assert bundle.arrival_frame == 3
    assert bundle.ready_frame == 4
    assert segment_gap(bundle.arrival_ticks) == 0
    # not served in its arrival frame even if the region is free
    assert sim._deliver(3, []) == []
    events = sim._deliver(4, [])
    assert len(events) == 1
    assert sim.pending == []


def test_same_region_handovers_share_a_subframe():
    sim = make_sim(warmup=0)
    pair_a, pair_b = carried_pairs(sim, 12)[:2]
    a = craft_bundle(sim, pair_a, [0, 1], born=0)
    b = craft_bundle(sim, pair_b, [0, 1], born=0)
    b.sink_cell = a.sink_cell  # force both into one collection region
    b.int_dest = a.int_dest + 1 if b.int_dest == a.int_dest else b.int_dest
    assert a.dst_node != b.dst_node
    for bundle in (a, b):
        bundle.arrival_frame = 2
        bundle.ready_frame = 3
        bundle.arrival_ticks = np.full(bundle.segments, 200, dtype=np.int64)
    sim.pending = [a, b]
    events = sim._deliver(3, [])
    assert len(events) == 2
    assert sim.delivered_carried == 2


def test_one_packet_per_sink_node_per_frame():
    sim = make_sim(warmup=0)
    pair_a, pair_b = carried_pairs(sim, 12)[:2]
    a = craft_bundle(sim, pair_a, [0, 1], born=0)
    b = craft_bundle(sim, pair_b, [0, 1], born=0)
    b.sink_cell = a.sink_cell
    b.dst_node = a.dst_node  # same receiving node: second must wait a frame
    b.int_dest = a.int_dest + 1 if b.int_dest == a.int_dest else b.int_dest
    for bundle in (a, b):
        bundle.arrival_frame = 2
        bundle.ready_frame = 3
        bundle.arrival_ticks = np.full(bundle.segments, 200, dtype=np.int64)
    sim.pending = [a, b]
    assert len(sim._deliver(3, [])) == 1
    assert sim.pending == [b]
    assert len(sim._deliver(4, [])) == 1
    assert sim.pending == []


def test_delivery_defers_to_preservation_regions():
    sim = make_sim(warmup=0)
    (pair,) = carried_pairs(sim, 1)
    bundle = craft_bundle(sim, pair, [0, 1], born=0)
    bundle.arrival_frame = 2
    bundle.ready_frame = 3
    bundle.arrival_ticks = np.full(bundle.segments, 200, dtype=np.int64)
    sim.pending = [bundle]
    hold = make_region(bundle.sink_cell, sim.gp, sim.gs)
    assert sim._deliver(3, [hold]) == []
    assert sim.pending == [bundle]
    assert len(sim._deliver(4, [])) == 1


# ======== preservation masks and the batched audit ========


@pytest.mark.parametrize("n, k_p", [(40.0, 2), (900.0, 8)])
def test_phase_mask_is_union_of_preservation_regions(n, k_p):
    sim = make_sim(n=n, sample_pairs=8)
    assert sim.k_p == k_p
    assert sim.blocked.shape == (TICKS, sim.gs.cell_count)
    assert any(sim.phase_regions)
    cells = np.arange(sim.gs.cell_count)
    for phase in range(TICKS):
        rects = [r.secondary_rect() for r in sim.phase_regions[phase]]
        assert np.array_equal(sim.blocked[phase], rect_blocked(cells, rects, sim.k_s))


class ValueLog(RateReport):
    """A RateReport that also keeps every recorded SINR value."""

    def __init__(self):
        super().__init__()
        self.values = {cat: [] for cat in self.samples}

    def record(self, category, sinr_values):
        super().record(category, sinr_values)
        self.values[category].extend(np.asarray(sinr_values).tolist())


def test_batched_audit_equals_per_hop_reference():
    runs = [make_sim(n=128.0, seed=3, frames=96, warmup=16) for _ in range(2)]
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


# ======== queue lengths against the per-packet reference ========


def record_hops(sim):
    """Keep every audited hop tuple that sim's secondary advance returns."""
    log = []
    advance = sim._advance_secondary

    def recorded(t, blocked):
        hops = advance(t, blocked)
        log.append(hops)
        return hops

    sim._advance_secondary = recorded
    return log


def test_queue_lengths_equal_per_packet_reference():
    runs = [make_sim(n=128.0, seed=3, frames=160, warmup=16, log_tx_frames=64,
                     collect_records=True) for _ in range(2)]
    counts, reference = runs
    use_reference_queue(reference)
    logs = [record_hops(sim) for sim in runs]
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
    # the run exercised head-of-line queues, the audit and the TX log
    assert queued > 1
    assert sum(len(h[2]) for h in logs[1]) > 0
    assert reference.tx_log_cells
    secondary = [[r for r in sim.records if r.tier == "secondary"] for sim in runs]
    assert secondary[1]
    assert secondary[0] == secondary[1]
    tx_logs = [sorted(zip(sim.tx_log_frames, sim.tx_log_cells)) for sim in runs]
    assert tx_logs[0] == tx_logs[1]
