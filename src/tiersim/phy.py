"""Transmit power, received power and the vectorized SINR of the audit.

Packet motion never depends on these numbers: the transport layer moves
packets per schedule, and the audit runs alongside to verify that every
scheduled reception would sustain a positive constant rate. Power follows
the cell-area rule a**(alpha/2), which makes the received power across one
cell diagonal independent of the cell size. received_power is the one
place that evaluates P * d**(-alpha); interference_at and sinr_at sum and
divide its blocks, and the broadcast audit slices one block per tick group.
The transport layer splits those tick groups over the process's CPUs (taskset
limits them); no result depends on how many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RateReport",
    "tx_power",
    "received_power",
    "interference_at",
    "sinr_at",
]


def tx_power(cell_area: float, alpha: float) -> float:
    """Transmit power cell_area**(alpha/2) for a cell-scaled transmitter; the
    power constant is 1, since SINR reads power only relative to noise."""
    if not 0 < cell_area <= 1:
        raise ValueError(f"cell_area must lie in (0, 1], got {cell_area}")
    return cell_area ** (alpha / 2.0)


# ======== SINR ========


def received_power(rx_x, rx_y, tx_x, tx_y, power, alpha: float, who: str = "interferer"):
    """power * d2**(-alpha/2) from each transmitter at each receiver, built in place.

    The one form of received power. Coordinates broadcast as numpy arrays do:
    (R,1) receivers against (T,) or (R,T) transmitters give an (R,T) block,
    and power is a scalar or broadcasts against it. Raises ValueError if a
    transmitter sits on its receiver.
    """
    d2 = np.subtract(rx_x, tx_x)
    d2 *= d2
    dy = np.subtract(rx_y, tx_y)
    dy *= dy
    d2 += dy
    if (d2 <= 0).any():
        raise ValueError(f"{who} co-located with receiver")
    d2 **= -alpha / 2.0
    d2 *= power
    return d2


def interference_at(
    rx_pos: np.ndarray, tx_pos: np.ndarray, tx_power_w, alpha: float
) -> np.ndarray:
    """Summed interferer power at each of R receivers, as an (R,) array.

    tx_pos is one interferer set (T,2) heard by every receiver, or one row
    per receiver (R,L,2); tx_power_w is a scalar or broadcasts the same way,
    (T,) or (R,L). Each receiver's row is summed on its own, so a receiver
    gets the same value in a batch as it would alone.
    """
    return received_power(rx_pos[:, 0, None], rx_pos[:, 1, None],
                          tx_pos[..., 0], tx_pos[..., 1], tx_power_w, alpha).sum(axis=1)


def sinr_at(
    rx_pos: np.ndarray,
    signal_tx: np.ndarray,
    signal_power: float,
    int_pos: np.ndarray,
    int_power,
    noise: float,
    alpha: float,
) -> np.ndarray:
    """SINR at each of R receivers (R,2), the one vectorized form.

    signal_tx is one transmitter (2,) for all receivers or one per receiver
    (R,2); the interferers are shared or per receiver as in interference_at.
    """
    signal = received_power(rx_pos[:, 0], rx_pos[:, 1], signal_tx[..., 0], signal_tx[..., 1],
                            signal_power, alpha, "transmitter")
    return signal / (noise + interference_at(rx_pos, int_pos, int_power, alpha))


@dataclass
class RateReport:
    """Running minima of audited SINR per reception category.

    Categories: 'primary' for broadcast receptions at relay nodes (the K1
    proxy), 'delivery' for sink-cell handoffs (the K2 proxy), 'secondary'
    for intra-secondary hop receptions.
    """

    min_sinr: dict = field(
        default_factory=lambda: {"primary": math.inf, "delivery": math.inf, "secondary": math.inf}
    )
    samples: dict = field(
        default_factory=lambda: {"primary": 0, "delivery": 0, "secondary": 0}
    )

    def record(self, category: str, sinr_values: np.ndarray) -> None:
        if len(sinr_values) == 0:
            return
        self.min_sinr[category] = min(self.min_sinr[category], float(np.min(sinr_values)))
        self.samples[category] += int(len(sinr_values))

    def floor(self, category: str) -> float:
        s = self.min_sinr[category]
        return float("nan") if math.isinf(s) else s
