"""The secondary-grid member order, which a Deployment does not hold.

The simulator reads the secondary grid only through its cell counts and one
relay per cell. Tests that want every member of a secondary cell, in
node-id order, derive the order here with a plain stable sort of the
per-node cells.
"""

from __future__ import annotations

import numpy as np


class SecondaryIndex:
    """A CellIndex for the secondary grid: counts, order and starts."""

    def __init__(self, dep):
        cells = dep.secondary_cells
        self.counts = np.bincount(cells, minlength=dep.secondary_grid.cell_count)
        self.order = np.argsort(cells, kind="stable")
        self.starts = np.concatenate([[0], np.cumsum(self.counts)])

    def members(self, cell: int) -> np.ndarray:
        return self.order[self.starts[cell] : self.starts[cell + 1]]
