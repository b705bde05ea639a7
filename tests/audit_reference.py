"""Per-hop SINR audit kept as the oracle for TransportSim's batched audit.

This is the audit as it ran before the batched form: structural
transmitters are rebuilt per phase from the preservation rectangles, and
every hop, delivery and broadcast tick makes its own call to a kernel that
forms the full (R, T, 2) difference array. Broadcast receivers are read
from every secondary position, taken in one pass, not regenerated per node.
The batched audit must reproduce its running minima and sample counts
exactly.
use_reference_audit installs it on one TransportSim instance.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from tiersim.scheduler import PHASES, TICKS
from tiersim.transport import AUDIT_BROADCASTS, AUDIT_RX_CAP, TransportSim

from region_reference import phase_rects, rect_blocked
from secondary_positions import secondary_positions


def interference_at(rx_pos, tx_pos, tx_power_w, alpha):
    """Summed interferer power at each receiver, (R,) from (R,2) x (T,2)."""
    if len(tx_pos) == 0:
        return np.zeros(len(rx_pos))
    d2 = ((rx_pos[:, None, :] - tx_pos[None, :, :]) ** 2).sum(axis=2)
    if (d2 <= 0).any():
        raise ValueError("interferer co-located with receiver")
    return (tx_power_w[None, :] * d2 ** (-alpha / 2.0)).sum(axis=1)


def sinr_at(rx_pos, signal_tx, signal_power, int_pos, int_power, noise, alpha):
    """SINR for many receivers of one transmitter against one interferer set."""
    d2 = ((rx_pos - signal_tx[None, :]) ** 2).sum(axis=1)
    if (d2 <= 0).any():
        raise ValueError("receiver co-located with its transmitter")
    signal = signal_power * d2 ** (-alpha / 2.0)
    return signal / (noise + interference_at(rx_pos, int_pos, int_power, alpha))


def tick_sets(sim: TransportSim, phase: int, sec_pos: np.ndarray) -> list:
    """Per tick: the unblocked cells and their relays' positions, given every
    secondary position sec_pos."""
    rects = phase_rects(sim, phase)
    by_tick = np.argsort(sim.sigma_s, kind="stable")
    bounds = np.searchsorted(sim.sigma_s[by_tick], np.arange(TICKS + 1))
    sets = []
    for tick in range(TICKS):
        cells = by_tick[bounds[tick] : bounds[tick + 1]]
        if rects:
            cells = cells[~rect_blocked(cells, rects, sim.k_s)]
        sets.append((cells, sec_pos[sim.sec_relay[cells]]))
    return sets


def use_reference_audit(sim: TransportSim) -> TransportSim:
    """Make sim audit every frame with reference_audit_frame."""
    sim._audit_frame = partial(reference_audit_frame, sim)
    return sim


def reference_audit_frame(sim: TransportSim, t, sent, relays, hops, deliveries) -> None:
    """The per-hop audit of frame t, recording into sim.report; sent and
    relays are the frame's emitting pairs and each one's relay ids."""
    noise, alpha = sim.cfg.noise, sim.cfg.alpha
    sec_pos = secondary_positions(sim.dep)
    sets = tick_sets(sim, t % PHASES, sec_pos)
    bc_pos = sim.pri_pos[sim.pairs_p[sent, 0]]
    deliv_tx, _, sink_of = deliveries

    for tx, rx, prev_cell in zip(*hops):
        cells, pos = sets[int(sim.sigma_s[prev_cell])]
        keep = cells != prev_cell
        int_pos = np.vstack([pos[keep], bc_pos])
        int_pow = np.concatenate([
            np.full(int(keep.sum()), sim.p_s), np.full(len(bc_pos), sim.p_p)])
        s = sinr_at(rx[None, :], np.asarray(tx, dtype=float), sim.p_s,
                    int_pos, int_pow, noise, alpha)
        sim.report.record("secondary", s)

    for tx_int_dest, rx_dst, sink in zip(*deliveries):
        others = deliv_tx[sink_of != sink]
        int_pos = np.vstack([others, bc_pos])
        int_pow = np.full(len(int_pos), sim.p_p)
        s = sinr_at(rx_dst[None, :], np.asarray(tx_int_dest, dtype=float),
                    sim.p_p, int_pos, int_pow, noise, alpha)
        sim.report.record("delivery", s)

    for j, (src_pos, pair, ids) in enumerate(zip(bc_pos, sent.tolist(), relays)):
        if sim._audited_broadcasts >= AUDIT_BROADCASTS:
            break
        sim._audited_broadcasts += 1
        # a relayed broadcast reaches its first AUDIT_RX_CAP relays, a direct
        # handoff its destination
        if len(ids):
            rx = sec_pos[ids[:AUDIT_RX_CAP]]
        else:
            rx = sim.pri_pos[sim.pairs_p[pair, 1:]]
        other_bc = np.delete(bc_pos, j, axis=0)
        worst = np.full(len(rx), np.inf)
        for tick in range(TICKS):
            _cells, pos = sets[tick]
            int_pos = np.vstack([pos, other_bc])
            int_pow = np.concatenate([
                np.full(len(pos), sim.p_s), np.full(len(other_bc), sim.p_p)])
            s = sinr_at(rx, np.asarray(src_pos, dtype=float), sim.p_p,
                        int_pos, int_pow, noise, alpha)
            worst = np.minimum(worst, s)
        int_pos = np.vstack([deliv_tx, other_bc])
        int_pow = np.full(len(int_pos), sim.p_p)
        s = sinr_at(rx, np.asarray(src_pos, dtype=float), sim.p_p,
                    int_pos, int_pow, noise, alpha)
        worst = np.minimum(worst, s)
        sim.report.record("primary", worst)
