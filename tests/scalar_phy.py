"""Scalar reference forms of the SINR model, the oracle for phy.sinr_at.

One link at a time in plain floats: pathloss r**(-alpha), the SINR of a
receiver against noise plus summed interference, and the normalized rate
log2(1 + SINR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def pathloss(r: float, alpha: float) -> float:
    """Channel power gain r**(-alpha); co-located endpoints are rejected."""
    if r <= 0:
        raise ValueError("pathloss needs a positive distance")
    return r ** (-alpha)


@dataclass(frozen=True)
class LinkSample:
    """One receiver with its signal source and the concurrent interferer set."""

    tx_pos: tuple[float, float]
    rx_pos: tuple[float, float]
    tx_power: float
    interferers: tuple[tuple[tuple[float, float], float], ...] = ()
    noise: float = 1.0


def sinr(link: LinkSample, alpha: float) -> float:
    """Signal over noise plus summed interference, all via the pathloss law."""
    dx = link.tx_pos[0] - link.rx_pos[0]
    dy = link.tx_pos[1] - link.rx_pos[1]
    signal = link.tx_power * pathloss(math.hypot(dx, dy), alpha)
    interference = 0.0
    for pos, power in link.interferers:
        d = math.hypot(pos[0] - link.rx_pos[0], pos[1] - link.rx_pos[1])
        if d <= 0:
            raise ValueError("interferer co-located with receiver")
        interference += power * d ** (-alpha)
    return signal / (link.noise + interference)


def rate_of(s) -> float | np.ndarray:
    """Normalized rate log2(1 + SINR), monotone in SINR."""
    return np.log2(1.0 + np.asarray(s, dtype=float))


def min_rate(report, category: str) -> float:
    """Rate at a RateReport's SINR floor; nan for a category never recorded."""
    s = report.min_sinr[category]
    return float("nan") if math.isinf(s) else float(rate_of(s))
