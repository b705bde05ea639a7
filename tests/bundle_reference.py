"""Per-object primary bundles kept as the oracle for TransportSim's bundle table.

This is the primary carry as it ran before the table: every bundle is one
SegmentBundle object holding its own path, the bundles in flight and the
delivery roster are lists of them, a Python loop hops each bundle in
_advance_bundles, and _deliver removes delivered bundles by identity. The
table must reproduce its hops, arrivals, deliveries, records, primary
delay and wait sums, and traced packet exactly. The per-segment arrival
ticks it once kept are left out: every segment rode the lead relay's path,
so they were all equal.
Delivery admits collection regions by rectangle overlap (region_reference),
not by the scheduler's clearance rule.
Broadcasts are (emitting pairs (B,), relay ids per broadcast) and deliveries
are (int-dest, destination, sink cell) arrays, as the sim's own subframes
return them. Positions are read from all secondary positions at once.
use_reference_bundles installs it on one TransportSim instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from tiersim.deployment import PRIMARY
from tiersim.routing import hv_path_cells
from tiersim.scheduler import PHASES, TICKS
from tiersim.transport import NO_HOPS, PacketRecord, TransportSim

from region_reference import phase_rects, place_collection_regions
from secondary_positions import secondary_positions


@dataclass
class SegmentBundle:
    """One primary packet riding the secondary grid as N co-moving segments."""

    pair: int
    path: np.ndarray          # secondary cells, lead relay's cell .. int-dest's cell
    segments: int
    born: int                 # broadcast frame
    lead_pos: np.ndarray      # lead relay position, the first transmitter
    sink_cell: int            # destination primary cell
    dst_node: int
    int_dest: int             # secondary node handing the packet over
    pos: int = 0
    arrival_frame: int = -1
    delivered_frame: int = -1
    ready_frame: int = -1


def use_reference_bundles(sim: TransportSim) -> TransportSim:
    """Make sim launch, carry and deliver primary bundles as objects."""
    sim.bundles = []
    sim.pending = []
    sim.delivered_bundles = []
    sec_pos = secondary_positions(sim.dep)
    sim._broadcast = partial(reference_broadcast, sim, sec_pos)
    sim._advance_bundles = partial(reference_advance_bundles, sim, sec_pos)
    sim._deliver = partial(reference_deliver, sim, sec_pos)
    return sim


def reference_trace(sim: TransportSim) -> dict:
    """trace_packet's fields for the first bundle a reference sim delivered."""
    b = sim.delivered_bundles[0]
    d_p = 3 * (b.delivered_frame - b.born) + 2
    carry_frames = b.arrival_frame - b.born
    d_s_hat = TICKS * carry_frames
    return {
        "D_p": float(d_p),
        "D_s_hat": float(d_s_hat),
        "C": float(d_p - (3 / TICKS) * d_s_hat),
        "carry_frames": int(carry_frames),
        "roster_and_admission_frames": int(b.delivered_frame - b.arrival_frame),
        "path_cells": int(len(b.path)),
        "segments": int(b.segments),
    }


def reference_sums(sim: TransportSim) -> tuple[int, int]:
    """Sums of 3 (delivered - born) + 2 and of delivered - arrival, in
    frames, over the bundles delivered from warmup on."""
    post = [b for b in sim.delivered_bundles if b.delivered_frame >= sim.cfg.warmup_frames]
    return (sum(3 * (b.delivered_frame - b.born) + 2 for b in post),
            sum(b.delivered_frame - b.arrival_frame for b in post))


def reference_broadcast(sim: TransportSim, sec_pos: np.ndarray, t: int) -> tuple:
    sent, relays = [], []
    for cell in sim.phase_cells[t % PHASES]:
        k = (t // PHASES) % sim.sources.counts[cell]
        pair = int(sim.sources.order[sim.sources.starts[cell] + k])
        sim.injected_p += 1
        if sim.pair_direct[pair]:
            sim.delivered_direct += 1
            if t >= sim.cfg.warmup_frames:
                sim.delivered_direct_post += 1
            sent.append(pair)
            relays.append(np.empty(0, dtype=np.int64))
            if sim.opt.collect_records:
                sim.records.append(PacketRecord(
                    len(sim.records) + 1, PRIMARY, 3 * t, 3 * t + 2,
                    int(sim.pair_path_len[pair]), 0))
            continue
        members = sim.dep.secondary_index_primary_grid.members(
            int(sim.pair_relay_cell[pair]))
        if len(members) < sim.n_relays:
            sim.dropped_p += 1
            continue
        ids = sim.rng.choice(members, size=sim.n_relays, replace=False)
        lead = int(ids[sim.rng.integers(sim.n_relays)])
        lead_cell = int(sim.dep.secondary_cells[lead])
        path = hv_path_cells(lead_cell, int(sim.pair_int_dest_cell[pair]), sim.k_s)
        bundle = SegmentBundle(
            pair=pair, path=path, segments=sim.n_relays, born=t,
            lead_pos=sec_pos[lead].copy(),
            sink_cell=int(sim.pair_sink[pair]),
            dst_node=int(sim.pairs_p[pair, 1]),
            int_dest=int(sim.sec_relay[sim.pair_int_dest_cell[pair]]))
        if len(path) == 1:
            reference_arrived(sim, bundle, t)
        else:
            sim.bundles.append(bundle)
        sent.append(pair)
        relays.append(ids)
    return np.array(sent, dtype=np.int64), relays


def reference_arrived(sim: TransportSim, b: SegmentBundle, t: int) -> None:
    b.arrival_frame = t
    b.ready_frame = t + 1  # joins the delivery roster next frame
    sim.pending.append(b)


def reference_advance_bundles(sim: TransportSim, sec_pos: np.ndarray, t: int,
                              blocked: np.ndarray) -> tuple:
    """Subframe 2: bundles hop atomically, one bundle per cell per pair."""
    audit = sim._in_audit(t)
    tx, rx, sent = [], [], []
    still: list[SegmentBundle] = []
    taken: set[tuple[int, int]] = set()
    for b in sim.bundles:
        cell = int(b.path[b.pos])
        key = (cell, b.pair)
        if key in taken or blocked[cell]:
            still.append(b)
            continue
        taken.add(key)
        b.pos += 1
        new_cell = int(b.path[b.pos])
        if audit:
            tx.append(b.lead_pos if b.pos == 1 else sec_pos[sim.sec_relay[cell]])
            rx.append(sec_pos[b.int_dest] if b.pos == len(b.path) - 1
                      else sec_pos[sim.sec_relay[new_cell]])
            sent.append(cell)
        if b.pos == len(b.path) - 1:
            reference_arrived(sim, b, t)
        else:
            still.append(b)
    sim.bundles = still
    if not sent:
        return NO_HOPS
    return np.array(tx), np.array(rx), np.array(sent, dtype=np.int64)


def reference_deliver(sim: TransportSim, sec_pos: np.ndarray, t: int, _open_row) -> tuple:
    """Subframe 3: greedy clear collection regions, one packet per sink node.

    Admission ignores the sink table row it is handed and tests rectangles
    rebuilt from the phase's active source cells instead.
    """
    ready = [b for b in sim.pending if b.ready_frame <= t]
    if not ready:
        return NO_HOPS
    sinks = np.array(sorted({b.sink_cell for b in ready}), dtype=np.int64)
    admitted = place_collection_regions(sinks, phase_rects(sim, t % PHASES), sim.gp, sim.gs)
    if not admitted:
        return NO_HOPS
    open_sinks = set(admitted)
    served: set[int] = set()
    busy_tx: set[int] = set()
    delivered = []
    for b in ready:
        if (b.sink_cell not in open_sinks or b.dst_node in served
                or b.int_dest in busy_tx):
            continue
        served.add(b.dst_node)
        busy_tx.add(b.int_dest)
        delivered.append(b)
    if not delivered:
        return NO_HOPS
    done = set()
    for b in delivered:
        done.add(id(b))
        b.delivered_frame = t
        sim.delivered_carried += 1
        sim.delivered_bundles.append(b)
        if sim.opt.collect_records:
            sim.records.append(PacketRecord(
                len(sim.records) + 1, PRIMARY, 3 * b.born, 3 * t + 2,
                int(sim.pair_path_len[b.pair]), b.segments))
    sim.pending = [b for b in sim.pending if id(b) not in done]
    return (sec_pos[[b.int_dest for b in delivered]],
            sim.pri_pos[[b.dst_node for b in delivered]],
            np.array([b.sink_cell for b in delivered], dtype=np.int64))
