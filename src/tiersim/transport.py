"""Packet transport across both tiers of the network.

Time structure: frame t runs primary phase t % PHASES. It holds one primary
broadcast slot and one secondary frame of three subframes (relay, carry,
deliver), each spanning TICKS secondary ticks, so a frame spans three primary
slots of TICKS ticks each. Primary delay is stamped in primary slots,
secondary delay in the packet's own subframe ticks.

Primary packets do not hop between primary nodes. An active source cell
broadcasts one packet per activation; the packet is split into N segments
picked up by relays in the next path cell, carried across the secondary grid
as one atomic bundle, and handed to the destination inside an admitted
collection region by its int-dest: the designated relay of the penultimate
path cell's secondary cell nearest the sink cell's centre. The deployment
holds a node in every secondary cell, so every cell has a relay and every
path runs over all cells of its HV path, relay to relay; a packet is dropped
only when its relay cell holds fewer than N secondary nodes. Sources are
saturated: an occupied cell transmits every time it is active, sources
within a cell taking turns. A cell is active once every PHASES frames, so at
frame t its turn is t // PHASES modulo its source count. Bundles are rows of
one table indexed by bundle id in launch order; a bundle holds the secondary
cell it is in and steps by the HV rule toward its int-dest's cell, so no
bundle path is stored. The bundles in flight and the delivery roster are
arrays of bundle ids. The primary delay and roster wait are summed from the
table's frame stamps when metrics are read.

Secondary node 2i sends to node 2i + 1. Positions are i.i.d. in node-id
order, so that is a uniform random matching in law; the pairs are read in
place from the per-node cells, neither drawn nor held, and with an odd node
count the last node is unpaired. Secondary traffic is simulated for
SAMPLE_PAIRS sampled pairs. Motion is exact per the cell schedule; rates are
scaled by the fluid packet-size factor derived from the full-population path
census, so the reported per-pair throughput reflects the load of the whole
network, not the sample.
Sampled packets are held as queue lengths, one per position of each pair's
path, and a pair's path is held once, as its block of queue cells. Only a
position's head packet hops, so a pair delivers in injection order, and a
delivered packet's birth follows from how many the pair delivered before it.

Secondary positions are not held by the deployment. Set-up regenerates them
once, in one pass, and keeps those a plain frame reads: the relays' (every
int-dest is one) and the sampled pairs' ends. Only the SINR audit
regenerates more: the receivers of the broadcasts it takes and the lead
relay of a bundle's first hop. It takes each frame's broadcasts as drawn,
the emitting pairs and their relay ids, and audits the first
AUDIT_BROADCASTS of its window, each at its first AUDIT_RX_CAP relays.
A broadcast's ticks are summed in groups, one power block each; the groups
are split into AUDIT_WORKERS contiguous runs, one per CPU the process may run
on, the first summed on the calling thread and the others on a thread pool.
Each receiver keeps its largest tick sum, and a maximum is exact in any
order, so no result depends on the worker count. Restrict the process's CPU
affinity (taskset) to use fewer.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import phy
from .deployment import (
    PRIMARY,
    SECONDARY,
    CellIndex,
    ConfigurationError,
    Deployment,
)
from .routing import RelayAssignment, hv_path_cells, hv_step, path_load_census
from .scheduler import (
    PHASES,
    TICKS,
    clear_sinks,
    place_collection_regions,
    preservation_regions,
    slot_offsets,
)

__all__ = [
    "RunOptions",
    "PacketRecord",
    "TransportSim",
    "relay_count",
]

INJECT_EVERY = 2           # secondary source period, frames per packet
AUDIT_BROADCASTS = 64      # broadcasts fully audited across all ticks
AUDIT_RX_CAP = 64          # relay receivers sampled per audited broadcast
AUDIT_BLOCK_COLS = 512     # broadcast audit: one power block per run of ticks starting in 512 relays
# broadcast audit: tick groups split over this process's CPUs (taskset limits them)
AUDIT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
AUDIT_HOPS_PER_FRAME = 8   # secondary-tier hops audited per frame
SAMPLE_PAIRS = 256         # secondary pairs simulated per run

# a subframe's transmissions as (transmitter (H,2), receiver (H,2), cell (H,))
# arrays: the sending secondary cell of a hop, the sink cell of a handover
NO_HOPS = (np.empty((0, 2)), np.empty((0, 2)), np.empty(0, dtype=np.int64))
NO_IDS = np.empty(0, dtype=np.int64)


def relay_count(m: float) -> int:
    """Segments (and relays) per primary packet: max(1, floor(sqrt(m / ln m)))."""
    if m <= 1:
        raise ConfigurationError(f"relay count needs secondary density > 1, got {m}")
    return max(1, int(math.sqrt(m / math.log(m))))


@dataclass(frozen=True)
class RunOptions:
    """Knobs for one simulation run that are not part of the model config."""

    audit_frames: int = 512      # SINR audit window starting at warmup
    collect_records: bool = False


@dataclass(frozen=True)
class PacketRecord:
    """One delivered packet. A primary packet is stamped in primary slots
    (3 per frame), a secondary one in its subframe's ticks (TICKS per frame)."""

    packet_id: int       # 1, 2, ... in delivery order over both tiers
    tier: str            # PRIMARY or SECONDARY
    creation: int        # primary: broadcast slot 3t; secondary: birth tick
    delivery: int        # primary: handover slot 3t + 2; secondary: arrival tick
    path_length: int     # cells of the pair's path: primary, HV path on the
                         # primary grid; secondary, relay path on the secondary
                         # grid (2 for a same-cell pair)
    segments: int        # primary: 0 direct, N carried; secondary: 1


# one row per launched bundle: its pair, broadcast frame, lead relay node,
# the secondary cell it is in, and the frames it arrived (joined the roster)
# and was delivered, -1 until then
BUNDLE = np.dtype([(name, np.int64) for name in (
    "pair", "born", "lead", "cell", "arrival", "delivered")])


_pool: ThreadPoolExecutor | None = None
_pool_pid = -1


def _audit_pool() -> ThreadPoolExecutor:
    """The AUDIT_WORKERS - 1 helper threads of the broadcast audit, made on
    first use and made again in a forked child, which has none of them."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(AUDIT_WORKERS - 1, thread_name_prefix="tiersim-audit")
        _pool_pid = os.getpid()
    return _pool


def _split_groups(edges: np.ndarray, cols: np.ndarray, runs: int) -> list:
    """edges (tick-group boundaries) cut into at most runs contiguous runs of
    whole groups with about equal column counts; each run is its own edges."""
    at = cols[edges]
    cuts = np.unique(np.r_[0, np.searchsorted(at, at[-1] * np.arange(1, runs) / runs),
                           len(edges) - 1])
    return [edges[i : j + 1] for i, j in zip(cuts[:-1], cuts[1:])]


def _tick_max(edges, cols, rx_x, rx_y, xs, ys, power, alpha, tail) -> np.ndarray:
    """Each receiver's largest tick row sum over the tick groups that edges
    bounds. Tick i's row is the power of its live relays, columns
    cols[i]:cols[i + 1] of xs, ys, then tail, the other broadcasts' power.
    Writes no shared state, so runs of groups may go to different threads."""
    most = np.full(len(rx_x), -np.inf)
    cols = cols.tolist()
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        a, b = cols[lo], cols[hi]
        block = phy.received_power(rx_x, rx_y, xs[a:b], ys[a:b], power, alpha)
        for c0, c1 in zip(cols[lo:hi], cols[lo + 1 : hi + 1]):
            row = block[:, c0 - a : c1 - a]
            if tail.shape[1]:
                row = np.concatenate([row, tail], axis=1)
            np.maximum(most, np.add.reduce(row, axis=1), out=most)
    return most


def _grow(a: np.ndarray, size: int) -> np.ndarray:
    """a when it holds size entries, else a copy at least twice as long."""
    if size <= len(a):
        return a
    out = np.empty(max(size, 2 * len(a)), dtype=a.dtype)
    out[: len(a)] = a
    return out


class TransportSim:
    """Frame-stepped transport over a built deployment and relay assignment."""

    def __init__(
        self,
        deployment: Deployment,
        relays: RelayAssignment,
        options: RunOptions,
        rng: np.random.Generator,
    ):
        self.dep = deployment
        self.cfg = deployment.config
        self.opt = options
        self.rng = rng
        self.relays = relays
        self.gp = deployment.primary_grid
        self.gs = deployment.secondary_grid
        self.k_p = self.gp.side_count
        self.k_s = self.gs.side_count
        self.sigma_p = slot_offsets(self.k_p)
        self.sigma_s = slot_offsets(self.k_s)
        self.sec_relay = relays.secondary_relay
        self.sec_pos = deployment.secondary_pos
        self.pri_pos = deployment.primary_pos
        self.n_relays = relay_count(self.cfg.m)
        self.p_p = phy.tx_power(self.gp.cell_area, self.cfg.alpha)
        self.p_s = phy.tx_power(self.gs.cell_area, self.cfg.alpha)

        self._setup_primary()
        self._setup_secondary()
        self._setup_positions()
        self._setup_schedule()

        # counters
        self.frame = 0
        self.injected_p = 0
        self.delivered_direct = 0
        self.delivered_direct_post = 0
        self.delivered_carried = 0
        self.dropped_p = 0
        self.injected_s = 0
        self.delivered_s = 0
        self.delivered_s_post = 0
        self.delay_s_sum = 0.0
        self.table = np.empty(64, dtype=BUNDLE)
        self.n_launched = 0
        self.bundles = np.empty(0, dtype=np.int64)   # in flight, launch order
        self.pending = np.empty(0, dtype=np.int64)   # roster, arrival order
        self.records: list[PacketRecord] = []
        self.report = phy.RateReport()
        self._audited_broadcasts = 0

    # ======== setup ========

    def _setup_primary(self) -> None:
        """Closed-form primary paths and int-dest cells. The int-dest is the
        relay of the penultimate cell's secondary cell nearest the sink
        cell's centre; per axis that is ((2s + 1) q) // 2 clipped into the
        penultimate cell, so on an even q the higher index wins a tie."""
        dep = self.dep
        pairs = dep.primary_pairs
        self.pairs_p = pairs
        self.n_pairs_p = len(pairs)
        src_cells = dep.primary_cells[pairs[:, 0]]
        dst_cells = dep.primary_cells[pairs[:, 1]]
        self.pair_sink = dst_cells.astype(np.int64)
        # hv_path_cells in closed form: its length, path[1] and path[-2]
        k, cell_count = self.k_p, self.gp.cell_count
        sx, sy = np.divmod(src_cells, k)
        dx, dy = np.divmod(dst_cells, k)
        self.pair_path_len = np.abs(dx - sx) + np.abs(dy - sy) + 1
        self.pair_direct = self.pair_path_len <= 2
        carried = ~self.pair_direct
        # path[-2]: a step from the sink toward the path's turn, or its source if straight
        px, py = np.divmod(hv_step(dst_cells, np.where(dy != sy, dx * k + sy, src_cells), k), k)
        self.pair_relay_cell = np.where(carried, hv_step(src_cells, dst_cells, k), -1)
        q = self.k_s // k
        ix = np.clip((2 * dx + 1) * q // 2, px * q, px * q + q - 1)
        iy = np.clip((2 * dy + 1) * q // 2, py * q, py * q + q - 1)
        self.pair_int_dest_cell = np.where(carried, ix * self.k_s + iy, -1)
        # pairs grouped by their source's cell
        self.sources = CellIndex(src_cells, np.bincount(src_cells, minlength=cell_count))

    def _setup_secondary(self) -> None:
        """The census over every secondary pair and the sampled pairs' paths.
        Pair i is the nodes (2i, 2i + 1), so the census reads the pairs' cells
        in place, in one call that makes its own passes."""
        dep = self.dep
        self.n_pairs_s = len(self.sec_pos) // 2
        census = path_load_census(
            dep.secondary_cells[: 2 * self.n_pairs_s].reshape(-1, 2), self.k_s)
        self.census_max = int(census.max())
        self.packet_size_factor = 1.0 / self.census_max

        take = min(SAMPLE_PAIRS, self.n_pairs_s)
        rows = np.sort(self.rng.choice(self.n_pairs_s, size=take, replace=False))
        self.s_src = 2 * rows
        self.s_dst = 2 * rows + 1
        paths = []
        for r in range(take):
            path = hv_path_cells(int(dep.secondary_cells[self.s_src[r]]),
                                 int(dep.secondary_cells[self.s_dst[r]]), self.k_s)
            # a same-cell pair still takes one in-cell hop
            paths.append(np.repeat(path, 2) if len(path) == 1 else path[::-1])
        self.plen = np.array([len(p) for p in paths], dtype=np.int64)
        self.path_off = np.zeros(take, dtype=np.int64)
        np.cumsum(self.plen[:-1], out=self.path_off[1:])
        self.birth_sigma = self.sigma_s[dep.secondary_cells[self.s_src]]

        # q[i]: packets queued at one path position, in cell q_cell[i]. Pair r
        # owns q[path_off[r] : path_off[r] + plen[r]], laid out last position
        # first, so flat order is (pair, eldest first) and a hop is i -> i - 1.
        self.q_cell = np.concatenate(paths) if take else NO_IDS
        self.q = np.zeros(len(self.q_cell), dtype=np.int32)  # half the bytes per pass
        self.cnt = np.zeros(take, dtype=np.int64)
        self.out_s = np.zeros(take, dtype=np.int64)  # packets delivered per pair
        self.n_sampled = take

    def _setup_positions(self) -> None:
        """One regeneration pass over the secondary positions, in node-id
        order, that keeps every position a plain frame reads: the relays'
        (every int-dest is one) and the sampled pairs' ends."""
        # cells sorted by tick (cell order within a tick): the audit's
        # candidate transmitters, one relay each
        self.relay_cells = np.argsort(self.sigma_s, kind="stable")
        self.relay_tick_bounds = np.searchsorted(
            self.sigma_s[self.relay_cells], np.arange(TICKS + 1))
        self.relay_row = np.argsort(self.relay_cells)
        wanted = np.concatenate([self.sec_relay[self.relay_cells], self.s_src, self.s_dst])
        by_id = np.argsort(wanted, kind="stable")
        ids = wanted[by_id]
        held = np.empty((len(wanted), 2))
        for i, pos in self.sec_pos.chunks():
            lo, hi = np.searchsorted(ids, (i, i + len(pos)))
            held[by_id[lo:hi]] = pos[ids[lo:hi] - i]
        self.relay_tx_pos, self.s_src_pos, self.s_dst_pos = np.split(
            held, np.cumsum([len(self.relay_cells), self.n_sampled]))

    def _setup_schedule(self) -> None:
        occupied = np.flatnonzero(self.sources.counts > 0)
        refine = self.k_s // self.k_p  # secondary cells per primary cell, per axis
        self.phase_cells: list[np.ndarray] = []
        # blocked[phase]: secondary cells silenced by that phase's preservation
        # regions; sink_open[phase]: sink cells whose collection region clears them
        self.blocked = np.zeros((PHASES, self.gs.cell_count), dtype=bool)
        self.sink_open = np.zeros((PHASES, self.gp.cell_count), dtype=bool)
        for phase in range(PHASES):
            cells = occupied[self.sigma_p[occupied] == phase]
            self.phase_cells.append(cells)
            self.blocked[phase] = preservation_regions(cells, self.k_p, refine)
            self.sink_open[phase] = clear_sinks(cells, self.k_p, refine)

    # ======== per-frame mechanics ========

    def _in_audit(self, t: int) -> bool:
        return self.cfg.warmup_frames <= t < self.cfg.warmup_frames + self.opt.audit_frames

    def _broadcast(self, t: int) -> tuple:
        """Every active source cell emits one packet; returns the emitting
        pairs (B,) and each emission's relay ids (none for a direct handoff)."""
        sent, relays = [], []
        for cell in self.phase_cells[t % PHASES]:
            k = (t // PHASES) % self.sources.counts[cell]
            pair = int(self.sources.order[self.sources.starts[cell] + k])
            self.injected_p += 1
            if self.pair_direct[pair]:
                self.delivered_direct += 1
                if t >= self.cfg.warmup_frames:
                    self.delivered_direct_post += 1
                # a direct handoff is a broadcast-slot reception, so it is
                # audited with the primary receptions, not the region deliveries
                sent.append(pair)
                relays.append(NO_IDS)
                if self.opt.collect_records:
                    self.records.append(PacketRecord(
                        len(self.records) + 1, PRIMARY, 3 * t, 3 * t + 2,
                        int(self.pair_path_len[pair]), 0))
                continue
            members = self.dep.secondary_index_primary_grid.members(
                int(self.pair_relay_cell[pair]))
            if len(members) < self.n_relays:
                self.dropped_p += 1
                continue
            ids = self.rng.choice(members, size=self.n_relays, replace=False)
            self._launch(t, pair, int(ids[self.rng.integers(self.n_relays)]))
            sent.append(pair)
            relays.append(ids)
        return np.array(sent, dtype=np.int64), relays

    def _launch(self, t: int, pair: int, lead: int) -> int:
        """Add one bundle, in its lead relay's cell, to the table and return
        its id; a bundle launched in its int-dest's cell arrives at once."""
        b = self.n_launched
        self.table = _grow(self.table, b + 1)
        cell = int(self.dep.secondary_cells[lead])
        arrived = cell == self.pair_int_dest_cell[pair]
        self.table[b] = (pair, t, lead, cell, t if arrived else -1, -1)
        self.n_launched = b + 1
        if arrived:
            self.pending = np.append(self.pending, b)
        else:
            self.bundles = np.append(self.bundles, b)
        return b

    def _inject(self, t: int) -> None:
        """Every sampled pair queues one packet at its first path position."""
        if t % INJECT_EVERY:
            return
        self.q[self.path_off + self.plen - 1] += 1
        self.cnt += 1
        self.injected_s += self.n_sampled

    def _advance_secondary(self, t: int, blocked: np.ndarray) -> tuple:
        """Subframe 1: one hop per unblocked cell per path, eldest packet first.

        Only a position's head packet hops, so a pair's packets never
        overtake each other: the k-th delivered was the k-th injected, born
        in frame INJECT_EVERY * k, and no per-packet birth is stored.
        """
        q = self.q
        move = (q > 0) & ~blocked[self.q_cell]
        q -= move
        # a pair's last position is emptied every frame, so no hop crosses blocks
        q[:-1] += move[1:]

        moved_hops = NO_HOPS
        if self._in_audit(t):
            first = np.flatnonzero(move)[:AUDIT_HOPS_PER_FRAME]
            rows = np.searchsorted(self.path_off, first, side="right") - 1
            prev = self.q_cell[first]
            new = self.q_cell[first - 1]
            tx = np.where((first == self.path_off[rows] + self.plen[rows] - 1)[:, None],
                          self.s_src_pos[rows], self.relay_tx_pos[self.relay_row[prev]])
            rx = np.where((first - 1 == self.path_off[rows])[:, None],
                          self.s_dst_pos[rows], self.relay_tx_pos[self.relay_row[new]])
            moved_hops = (tx, rx, prev)

        last = self.path_off
        rows = np.flatnonzero(q[last])
        if len(rows):
            q[last[rows]] = 0
            # the hop into the last position left the fixed penultimate cell
            arrival = TICKS * t + self.sigma_s[self.q_cell[last[rows] + 1]] + 1
            birth = TICKS * INJECT_EVERY * self.out_s[rows] + self.birth_sigma[rows]
            delays = arrival - birth
            self.delivered_s += len(rows)
            if t >= self.cfg.warmup_frames:
                self.delivered_s_post += len(rows)
                self.delay_s_sum += float(delays.sum())
            if self.opt.collect_records:
                for j, r in enumerate(rows):
                    self.records.append(PacketRecord(
                        len(self.records) + 1, SECONDARY, int(birth[j]),
                        int(arrival[j]), int(self.plen[r]), 1))
            self.out_s[rows] += 1
            self.cnt[rows] -= 1
        return moved_hops

    def _advance_bundles(self, t: int, blocked: np.ndarray) -> tuple:
        """Subframe 2: bundles hop atomically, one bundle per cell per pair."""
        tab = self.table
        ids = self.bundles
        if not len(ids):
            return NO_HOPS
        cells = tab["cell"][ids]
        pairs = tab["pair"][ids]
        # a fresh bundle waits out its broadcast frame unchecked: its first
        # cell lies in its source's preservation region
        hop = np.flatnonzero(~blocked[cells])
        # one bundle per (cell, pair) hops, the earliest launched
        key = cells[hop] * self.n_pairs_p + pairs[hop]
        if len(set(key.tolist())) < len(key):
            _, first = np.unique(key, return_index=True)
            hop = hop[np.sort(first)]
        moved = ids[hop]
        sent = cells[hop]
        dest = self.pair_int_dest_cell[pairs[hop]]
        new_cell = hv_step(sent, dest, self.k_s)
        tab["cell"][moved] = new_cell
        done = moved[new_cell == dest]
        if len(done):
            tab["arrival"][done] = t  # joins the delivery roster next frame
            self.pending = np.concatenate([self.pending, done])
            self.bundles = ids[tab["arrival"][ids] < 0]
        if not len(hop) or not self._in_audit(t):
            return NO_HOPS
        tx = self.relay_tx_pos[self.relay_row[sent]]
        # a first hop leaves from the drawn lead relay, not the cell's relay;
        # an HV path visits each cell once, so it is the hop sent from the lead's cell
        lead = np.flatnonzero(sent == self.dep.secondary_cells[tab["lead"][moved]])
        if len(lead):
            tx[lead] = self.sec_pos.take(tab["lead"][moved[lead]])
        # the int-dest is its cell's relay, so every hop lands on a relay
        return tx, self.relay_tx_pos[self.relay_row[new_cell]], sent

    def _deliver(self, t: int, open_row: np.ndarray) -> tuple:
        """Subframe 3: greedy clear collection regions, one packet per sink node;
        returns (int-dest (D,2), destination (D,2), sink cell (D,)) arrays."""
        if not len(self.pending):
            return NO_HOPS
        tab = self.table
        ready = self.pending[tab["arrival"][self.pending] < t]  # arrived before this frame
        if not len(ready):
            return NO_HOPS
        pairs = tab["pair"][ready]
        sinks = self.pair_sink[pairs].tolist()
        admitted = set(place_collection_regions(sinks, open_row, self.k_p,
                                                self.k_s // self.k_p))
        if not admitted:
            return NO_HOPS
        # one packet per int-dest, the first ready in roster order. A cell has
        # one relay, so int-dests are told apart by their cells. The pairs are
        # a matching, so a sink node's one pair fixes its int-dest, and a busy
        # sink node always means a busy int-dest.
        take = np.array([i for i, sink in enumerate(sinks) if sink in admitted], dtype=np.int64)
        int_dest = self.pair_int_dest_cell[pairs[take]]
        if len(set(int_dest.tolist())) < len(take):
            _, first = np.unique(int_dest, return_index=True)
            first.sort()
            take, int_dest = take[first], int_dest[first]
        done, pairs = ready[take], pairs[take]
        tab["delivered"][done] = t
        self.pending = self.pending[tab["delivered"][self.pending] < 0]
        self.delivered_carried += len(done)
        if self.opt.collect_records:
            for born, length in zip(tab["born"][done].tolist(),
                                    self.pair_path_len[pairs].tolist()):
                self.records.append(PacketRecord(
                    len(self.records) + 1, PRIMARY, 3 * born, 3 * t + 2, length,
                    self.n_relays))
        return (self.relay_tx_pos[self.relay_row[int_dest]],
                self.pri_pos[self.pairs_p[pairs, 1]], self.pair_sink[pairs])

    # ======== SINR audit ========

    def _audit_frame(self, t, sent, relays, hops, deliveries) -> None:
        """Frame t's receptions against their concurrent transmitters; sent
        and relays are the frame's broadcasts as _broadcast drew them."""
        noise, alpha = self.cfg.noise, self.cfg.alpha
        # structural transmitters: the relay_cells rows this phase leaves
        # unblocked, one run per tick
        live = ~self.blocked[t % PHASES][self.relay_cells]
        live_rows = np.flatnonzero(live)
        bounds = np.searchsorted(live_rows, self.relay_tick_bounds)
        bc_pos = self.pri_pos[self.pairs_p[sent, 0]]
        deliv_tx, _, sink_of = deliveries

        self._audit_hops(hops, live, live_rows, bounds, bc_pos)

        for tx_int_dest, rx_dst, sink in zip(*deliveries):
            # same-region deliveries take distinct ticks of the subframe,
            # so only other regions' transmitters interfere
            others = deliv_tx[sink_of != sink]
            s = phy.sinr_at(rx_dst[None, :], tx_int_dest,
                            self.p_p, np.vstack([others, bc_pos]), self.p_p, noise, alpha)
            self.report.record("delivery", s)

        audited = sent[: AUDIT_BROADCASTS - self._audited_broadcasts]
        if not len(audited):
            return
        self._audited_broadcasts += len(audited)
        # live relays as contiguous x, y columns, in groups of whole ticks that
        # start in one AUDIT_BLOCK_COLS window, so a block is at most a tick wider
        xs, ys = np.take(self.relay_tx_pos, live_rows, axis=0).T.copy()
        edges = np.r_[0, np.flatnonzero(np.diff(bounds[:-1] // AUDIT_BLOCK_COLS)) + 1, TICKS]
        # the first run of groups is summed on this thread, the rest on the pool
        first, *rest = _split_groups(edges, bounds, AUDIT_WORKERS)
        for j, (src_pos, pair, ids) in enumerate(zip(bc_pos, audited.tolist(), relays)):
            # the first AUDIT_RX_CAP relays, regenerated, or a direct handoff's destination
            rx = (self.sec_pos.take(ids[:AUDIT_RX_CAP]) if len(ids)
                  else self.pri_pos[self.pairs_p[pair, 1:]])
            rx_x, rx_y = rx[:, 0, None], rx[:, 1, None]
            signal = phy.received_power(rx[:, 0], rx[:, 1], src_pos[0], src_pos[1],
                                        self.p_p, alpha, "transmitter")
            other_bc = np.delete(bc_pos, j, axis=0)
            bc_power = phy.received_power(rx_x, rx_y, other_bc[:, 0], other_bc[:, 1],
                                          self.p_p, alpha)
            args = (bounds, rx_x, rx_y, xs, ys, self.p_s, alpha, bc_power)
            helpers = [_audit_pool().submit(_tick_max, run, *args) for run in rest]
            try:
                # the delivery subframe runs concurrently with the broadcast slot
                most = phy.interference_at(rx, np.vstack([deliv_tx, other_bc]), self.p_p, alpha)
                np.maximum(most, _tick_max(first, *args), out=most)
            finally:
                # a ValueError leaves only once no pool thread reads this frame
                wait(helpers)
            for helper in helpers:
                np.maximum(most, helper.result(), out=most)
            # IEEE add and divide are monotone, so the least SINR over the
            # ticks and the delivery subframe is the one with the most interference
            self.report.record("primary", signal / (noise + most))

    def _audit_hops(self, hops, live, live_rows, bounds, bc_pos) -> None:
        """Every secondary hop against its tick's other live cells and the broadcasts.

        A hop's interferer row is its tick's run of live relay_cells rows
        without its own cell, then bc_pos. Rows of one length go to
        phy.sinr_at as one batch: equal-length contiguous rows keep each
        row's sum bit-identical to a one-row call, which padding or
        segmented sums would not.
        """
        tx, rx, cells = hops
        if not len(cells):
            return
        tick = self.sigma_s[cells]
        start = bounds[tick]
        row = self.relay_row[cells]
        own = live[row]
        n_live = bounds[tick + 1] - start - own
        # offset of the hop's own cell inside its tick's run; past the run if absent
        skip = np.where(own, np.searchsorted(live_rows, row) - start, n_live)
        bc_pow = np.full(len(bc_pos), self.p_p)
        for width in np.unique(n_live):
            g = np.flatnonzero(n_live == width)
            j = np.arange(width)
            rows = live_rows[start[g, None] + j + (j >= skip[g, None])]
            int_pos = np.concatenate([np.take(self.relay_tx_pos, rows, axis=0),
                                      np.broadcast_to(bc_pos, (len(g), *bc_pos.shape))],
                                     axis=1)
            int_pow = np.concatenate([np.full(width, self.p_s), bc_pow])
            s = phy.sinr_at(rx[g], tx[g], self.p_s, int_pos, int_pow,
                            self.cfg.noise, self.cfg.alpha)
            self.report.record("secondary", s)

    # ======== driver ========

    def step(self) -> None:
        t = self.frame
        phase = t % PHASES
        blocked = self.blocked[phase]
        sent, relays = self._broadcast(t)
        self._inject(t)
        hops = self._advance_secondary(t, blocked)
        bundle_hops = self._advance_bundles(t, blocked)
        deliveries = self._deliver(t, self.sink_open[phase])
        if self._in_audit(t):
            hops = tuple(np.concatenate(h) for h in zip(hops, bundle_hops))
            self._audit_frame(t, sent, relays, hops, deliveries)
        alive_s = int(self.cnt.sum())
        assert self.injected_s == self.delivered_s + alive_s
        assert self.injected_p == (self.delivered_direct + self.delivered_carried
                                   + self.dropped_p + len(self.bundles) + len(self.pending))
        self.frame = t + 1

    def run(self) -> None:
        while self.frame < self.cfg.frames:
            self.step()

    def metrics(self) -> dict:
        """Rates per slot in each tier's own units, delays, audit floors, drops."""
        cfg = self.cfg
        span = cfg.frames - cfg.warmup_frames
        pairs_s = self.n_pairs_s
        # zero traffic reports zero throughput, not nan; delay stays undefined
        rate_s = (self.delivered_s_post / (self.n_sampled * span * TICKS)
                  if self.n_sampled else 0.0)
        lambda_s = rate_s * self.packet_size_factor
        # carried deliveries from warmup on, summed exactly from the table
        tab = self.table[: self.n_launched]
        done = tab[tab["delivered"] >= cfg.warmup_frames]
        carried = len(done)
        delay_p = int((3 * (done["delivered"] - done["born"]) + 2).sum())
        wait = int((done["delivered"] - done["arrival"]).sum())
        delivered_p_post = carried + self.delivered_direct_post
        lambda_p = (delivered_p_post / (self.n_pairs_p * span * 3)
                    if self.n_pairs_p else float("nan"))
        return {
            "lambda_p": lambda_p,
            "T_p": lambda_p * self.n_pairs_p,
            "D_p": delay_p / carried if carried else float("nan"),
            "lambda_s": lambda_s,
            "T_s": lambda_s * pairs_s,
            "D_s": (self.delay_s_sum / self.delivered_s_post
                    if self.delivered_s_post else float("nan")),
            "min_sinr_primary": self.report.floor("primary"),
            "min_sinr_delivery": self.report.floor("delivery"),
            "min_sinr_secondary": self.report.floor("secondary"),
            # only the primary tier drops, so only its injections count
            "drop_rate": self.dropped_p / self.injected_p if self.injected_p else 0.0,
            "delivered_secondary": self.delivered_s_post,
            "delivered_carried": carried,
            "delivered_direct": self.delivered_direct_post,
            "pending_wait": wait / carried if carried else float("nan"),
            "census_max": self.census_max,
            "packet_size_factor": self.packet_size_factor,
            # all N segments ride the lead relay's path and land on one tick
            "segment_gap_within_frame": 1.0 if self.delivered_carried else float("nan"),
            "segment_gap_max": 0,
            "low_confidence": self.delivered_s_post < 30 or carried < 30,
            "audit_samples": dict(self.report.samples),
        }
