"""Every secondary node's position, which a Deployment does not hold.

The simulator regenerates secondary positions from the deployment stream
and keeps only the few that its frames read. Oracles that read positions
freely take all of them here, from one pass over the stream.
"""

from __future__ import annotations

import numpy as np


def secondary_positions(dep) -> np.ndarray:
    """The (m, 2) positions of dep's secondary nodes, in node-id order."""
    return np.concatenate([np.empty((0, 2))] + [pos for _, pos in dep.secondary_pos.chunks()])
