"""Per-packet secondary queues kept as the oracle for TransportSim's queue lengths.

This is the secondary advance as it ran before queue lengths: every sampled
pair owns one row of a (pairs, cap) slot matrix holding each live packet's
path position (pos2) and birth tick (birth2), eldest first, and the matrix
doubles its width when a row fills. Each sampled pair's path is built here
with hv_path_cells from its end cells, not read from the sim. The
queue-length engine must reproduce its deliveries, delays, records and
audited hops exactly. use_reference_queue installs it on one TransportSim
instance.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from tiersim import transport
from tiersim.deployment import SECONDARY
from tiersim.routing import hv_path_cells
from tiersim.scheduler import TICKS
from tiersim.transport import INJECT_EVERY, NO_HOPS, PacketRecord, TransportSim

from secondary_positions import secondary_positions


def sampled_paths(sim: TransportSim) -> tuple:
    """The sampled pairs' paths as (flat cells, offset per pair, length per pair)."""
    cells = sim.dep.secondary_cells
    paths = []
    for src, dst in zip(sim.s_src.tolist(), sim.s_dst.tolist()):
        path = hv_path_cells(int(cells[src]), int(cells[dst]), sim.k_s)
        # a same-cell pair still takes one in-cell hop
        paths.append(np.repeat(path, 2) if len(path) == 1 else path)
    length = np.array([len(p) for p in paths], dtype=np.int64)
    flat = np.concatenate(paths) if paths else np.empty(0, dtype=np.int64)
    return flat, np.cumsum(length) - length, length


def use_reference_queue(sim: TransportSim) -> TransportSim:
    """Make sim inject and advance sampled packets with the slot matrix."""
    take = sim.n_sampled
    paths = sampled_paths(sim)
    cap = int(paths[2].max()) // INJECT_EVERY + 96 if take else 8
    sim._cap = cap
    sim.pos2 = np.full((take, cap), -1, dtype=np.int64)
    sim.birth2 = np.full((take, cap), -1, dtype=np.int64)
    sim._inject = partial(reference_inject, sim, paths)
    sim._advance_secondary = partial(reference_advance, sim, secondary_positions(sim.dep),
                                     paths)
    return sim


def grow(sim: TransportSim) -> None:
    cap = sim._cap * 2
    for name in ("pos2", "birth2"):
        old = getattr(sim, name)
        new = np.full((sim.n_sampled, cap), -1, dtype=np.int64)
        new[:, : sim._cap] = old
        setattr(sim, name, new)
    sim._cap = cap


def reference_inject(sim: TransportSim, paths: tuple, t: int) -> None:
    if sim.n_sampled == 0 or t % INJECT_EVERY:
        return
    if (sim.cnt >= sim._cap).any():
        grow(sim)
    flat, off, _ = paths
    rows = np.arange(sim.n_sampled)
    sim.pos2[rows, sim.cnt] = 0
    sim.birth2[rows, sim.cnt] = TICKS * t + sim.sigma_s[flat[off]]
    sim.cnt += 1
    sim.injected_s += sim.n_sampled


def reference_advance(sim: TransportSim, sec_pos: np.ndarray, paths: tuple, t: int,
                      open_q: np.ndarray) -> tuple:
    """Subframe 1: one hop per unblocked cell per path, eldest packet first.
    open_q is the sim's open mask over its queue positions, where pair r's
    position p is entry off[r] + length[r] - 1 - p."""
    if sim.n_sampled == 0:
        return NO_HOPS
    flat, off, length = paths
    pos = sim.pos2
    occ = pos >= 0
    idx = off[:, None] + np.clip(pos, 0, None)
    cells = flat[idx]
    lead = occ.copy()
    lead[:, 1:] &= pos[:, 1:] != pos[:, :-1]
    move = lead & open_q[(off + length - 1)[:, None] - np.clip(pos, 0, None)]
    prev_cells = cells[:, 0].copy()
    pos += move

    moved_hops = NO_HOPS
    if sim._in_audit(t):
        first = np.flatnonzero(move)[: transport.AUDIT_HOPS_PER_FRAME]
        rows, cols = np.divmod(first, move.shape[1])
        newpos = pos[rows, cols]
        at = off[rows] + newpos
        prev = flat[at - 1]
        new = flat[at]
        tx = np.where((newpos == 1)[:, None], sec_pos[sim.s_src[rows]],
                      sec_pos[sim.sec_relay[prev]])
        rx = np.where((newpos == length[rows] - 1)[:, None],
                      sec_pos[sim.s_dst[rows]], sec_pos[sim.sec_relay[new]])
        moved_hops = (tx, rx, prev)

    done = occ[:, 0] & (pos[:, 0] == length - 1)
    rows = np.flatnonzero(done)
    if len(rows):
        arrival = TICKS * t + sim.sigma_s[prev_cells[rows]] + 1
        delays = arrival - sim.birth2[rows, 0]
        sim.delivered_s += len(rows)
        if t >= sim.cfg.warmup_frames:
            sim.delivered_s_post += len(rows)
            sim.delay_s_sum += float(delays.sum())
        if sim.opt.collect_records:
            for j, r in enumerate(rows):
                sim.records.append(PacketRecord(
                    len(sim.records) + 1, SECONDARY, int(sim.birth2[r, 0]),
                    int(arrival[j]), int(length[r]), 1))
        sim.pos2[rows, :-1] = sim.pos2[rows, 1:]
        sim.pos2[rows, -1] = -1
        sim.birth2[rows, :-1] = sim.birth2[rows, 1:]
        sim.birth2[rows, -1] = -1
        sim.cnt[rows] -= 1
    return moved_hops
