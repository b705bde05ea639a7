"""Per-pair primary path set-up kept as the oracle for TransportSim._setup_primary.

This is the set-up as it ran before the closed forms: every primary pair
builds its full hv_path_cells path, and the handover node (int-dest) of each
(penultimate cell, sink cell) key is searched once, over the penultimate
cell's secondary members gathered from the node positions, and memoized.
"""

from __future__ import annotations

import numpy as np

from tiersim.deployment import Deployment
from tiersim.routing import hv_path_cells

from secondary_positions import secondary_positions


def reference_primary_setup(dep: Deployment) -> dict[str, np.ndarray]:
    """pair_path_len, pair_direct, pair_relay_cell, pair_int_dest and
    pair_int_dest_cell of dep's primary pairs, one path at a time."""
    pairs = dep.primary_pairs
    count = len(pairs)
    src_cells = dep.primary_cells[pairs[:, 0]]
    dst_cells = dep.primary_cells[pairs[:, 1]]
    out = {
        "pair_path_len": np.zeros(count, dtype=np.int64),
        "pair_direct": np.zeros(count, dtype=bool),
        "pair_relay_cell": np.full(count, -1, dtype=np.int64),
        "pair_int_dest": np.full(count, -1, dtype=np.int64),
        "pair_int_dest_cell": np.full(count, -1, dtype=np.int64),
    }
    sec_in_prim = dep.secondary_index_primary_grid
    sec_pos = secondary_positions(dep)
    int_dest: dict[tuple[int, int], int] = {}
    for i in range(count):
        path = hv_path_cells(int(src_cells[i]), int(dst_cells[i]),
                             dep.primary_grid.side_count)
        out["pair_path_len"][i] = len(path)
        if len(path) <= 2:
            out["pair_direct"][i] = True
            continue
        out["pair_relay_cell"][i] = path[1]
        key = (int(path[-2]), int(path[-1]))
        node = int_dest.get(key)
        if node is None:
            members = sec_in_prim.members(key[0])
            node = -1
            if len(members):
                center = dep.primary_grid.center(key[1])
                d2 = ((sec_pos[members] - center) ** 2).sum(axis=1)
                node = int(members[np.argmin(d2)])
            int_dest[key] = node
        if node < 0:
            continue
        out["pair_int_dest"][i] = node
        out["pair_int_dest_cell"][i] = dep.secondary_cells[node]
    return out
