"""Per-hop SINR audit kept as the oracle for TransportSim's batched audit.

This is the audit as it ran before the batched form: structural
transmitters are rebuilt per phase from the preservation rectangles, and
every hop, delivery and broadcast tick makes its own call to a kernel that
forms the full (R, T, 2) difference array. The batched audit must
reproduce its running minima and sample counts exactly.
"""

from __future__ import annotations

import numpy as np

from tiersim.transport import TICKS, TransportSim


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


def rect_blocked(cells, rects, k_s):
    """Cells inside any of the inclusive (x0, x1, y0, y1) rectangles."""
    cx = cells // k_s
    cy = cells % k_s
    out = np.zeros(cells.shape, dtype=bool)
    for x0, x1, y0, y1 in rects:
        out |= (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
    return out


def tick_sets(sim: TransportSim, phase: int) -> list:
    """Per tick: the unblocked relay-holding cells and their relays' positions."""
    rects = [r.secondary_rect() for r in sim.phase_regions[phase]]
    by_tick = np.argsort(sim.sigma_s, kind="stable")
    bounds = np.searchsorted(sim.sigma_s[by_tick], np.arange(TICKS + 1))
    sets = []
    for tick in range(TICKS):
        cells = by_tick[bounds[tick] : bounds[tick + 1]]
        cells = cells[sim.sec_relay[cells] >= 0]
        if rects:
            cells = cells[~rect_blocked(cells, rects, sim.k_s)]
        sets.append((cells, sim.sec_pos[sim.sec_relay[cells]]))
    return sets


class ReferenceAuditSim(TransportSim):
    """TransportSim whose audit is the per-hop reference."""

    def _audit_frame(self, t, broadcasts, hops, deliveries) -> None:
        noise, alpha = self.cfg.noise, self.cfg.alpha
        sets = tick_sets(self, t % TICKS)
        bc_pos = np.array([b[0] for b in broadcasts]).reshape(-1, 2)
        deliv_tx = np.array([d[0] for d in deliveries]).reshape(-1, 2)

        for tx, rx, prev_cell in zip(*hops):
            cells, pos = sets[int(self.sigma_s[prev_cell])]
            keep = cells != prev_cell
            int_pos = np.vstack([pos[keep], bc_pos])
            int_pow = np.concatenate([
                np.full(int(keep.sum()), self.p_s), np.full(len(bc_pos), self.p_p)])
            s = sinr_at(rx[None, :], np.asarray(tx, dtype=float), self.p_s,
                        int_pos, int_pow, noise, alpha)
            self.report.record("secondary", s)

        sink_of = np.array([d[2] for d in deliveries], dtype=np.int64)
        for tx_int_dest, rx_dst, sink in deliveries:
            others = deliv_tx[sink_of != sink]
            int_pos = np.vstack([others, bc_pos])
            int_pow = np.full(len(int_pos), self.p_p)
            s = sinr_at(rx_dst[None, :], np.asarray(tx_int_dest, dtype=float),
                        self.p_p, int_pos, int_pow, noise, alpha)
            self.report.record("delivery", s)

        if self._audited_broadcasts >= self.opt.audit_broadcasts:
            return
        for j, (src_pos, rx_all, category, _pair) in enumerate(broadcasts):
            if self._audited_broadcasts >= self.opt.audit_broadcasts:
                break
            self._audited_broadcasts += 1
            rx = rx_all[: self.opt.audit_rx_cap]
            other_bc = np.delete(bc_pos, j, axis=0)
            worst = np.full(len(rx), np.inf)
            for tick in range(TICKS):
                _cells, pos = sets[tick]
                int_pos = np.vstack([pos, other_bc])
                int_pow = np.concatenate([
                    np.full(len(pos), self.p_s), np.full(len(other_bc), self.p_p)])
                s = sinr_at(rx, np.asarray(src_pos, dtype=float), self.p_p,
                            int_pos, int_pow, noise, alpha)
                worst = np.minimum(worst, s)
            int_pos = np.vstack([deliv_tx, other_bc])
            int_pow = np.full(len(int_pos), self.p_p)
            s = sinr_at(rx, np.asarray(src_pos, dtype=float), self.p_p,
                        int_pos, int_pow, noise, alpha)
            worst = np.minimum(worst, s)
            self.report.record(category, worst)
