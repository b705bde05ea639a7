"""Every secondary-band cell a TransportSim sends from, read off its subframes.

In the audit window, subframes 1 and 2 return each hop with its sending
cell, and with AUDIT_HOPS_PER_FRAME lifted they return every hop, not the
first few. Subframe 3 returns each handover with its int-dest transmitter,
whose secondary cell is the sending cell.
"""

from __future__ import annotations

import sys

from tiersim import transport
from tiersim.transport import TransportSim


def watch_sent_cells(sim: TransportSim, monkeypatch):
    """Lift the audited-hop cap and wrap sim's three subframes. Returns a
    function giving the cells sent from in sim's audit frames so far, as
    sorted (frame, cell) pairs.

    Install it after any reference subframes, so that theirs are watched.
    """
    monkeypatch.setattr(transport, "AUDIT_HOPS_PER_FRAME", sys.maxsize)
    sent: list[tuple[int, int]] = []

    def watch(subframe, cells_of):
        def watched(t, *args):
            out = subframe(t, *args)
            if sim._in_audit(t):
                sent.extend((t, int(c)) for c in cells_of(out))
            return out
        return watched

    sim._advance_secondary = watch(sim._advance_secondary, lambda hops: hops[2])
    sim._advance_bundles = watch(sim._advance_bundles, lambda hops: hops[2])
    sim._deliver = watch(sim._deliver, lambda handovers: sim.gs.cell_of(handovers[0]))
    return lambda: sorted(sent)
