"""A deployment with one secondary node planted one ulp below a primary border.

On a 5 x 5 primary grid refined 10 times, x = 0.2 - 1 ulp lies in primary
column 0 by its position (x * 5 rounds below 1) but in secondary column 10
(x * 50 rounds up to 10), the first of primary column 1's block. Node
BORDER_NODE is planted there, on row 2's centre line.
"""

from __future__ import annotations

import numpy as np

from tiersim import deployment
from tiersim.deployment import CellGrid, SimConfig, build_deployment

BORDER_X = np.nextafter(0.2, 0.0)
BORDER_NODE = 5000


def border_deployment(monkeypatch):
    """The planted n = 256 deployment; positions regenerated while
    monkeypatch is active carry the planted node too. At n = 128 its
    2500 secondary cells would hold about 6.6 nodes each, and some none."""
    monkeypatch.setattr(deployment, "primary_cell_area", lambda n, ap=1.0: (0.04, CellGrid(5)))
    monkeypatch.setattr(deployment, "secondary_cell_area", lambda n, b, grid: (4e-4, CellGrid(50)))
    regenerate = deployment.PositionStream.chunks

    def planted(stream, *args):
        for i, pos in regenerate(stream, *args):
            if i <= BORDER_NODE < i + len(pos):
                pos[BORDER_NODE - i] = (BORDER_X, 0.5)
            yield i, pos

    monkeypatch.setattr(deployment.PositionStream, "chunks", planted)
    return build_deployment(SimConfig(n=256, seed=0))
