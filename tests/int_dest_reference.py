"""Per-pair primary path set-up kept as the oracle for TransportSim._setup_primary.

Every primary pair builds its full hv_path_cells path. A carried pair's
int-dest cell is found by brute force over the q x q secondary cells of its
penultimate cell path[-2]: the one whose centre is nearest the sink cell's
centre, the highest flat index on a tie. Distances are exact integers:
coordinates are scaled by 2 k_s, so a secondary centre sits at 2 i + 1 and
a primary one at (2 s + 1) q. The int-dest itself is that cell's designated
relay, relays.secondary_relay[cell].
"""

from __future__ import annotations

import numpy as np

from tiersim.deployment import Deployment
from tiersim.routing import hv_path_cells


def nearest_cell(dep: Deployment, penult: int, sink: int) -> int:
    """The secondary cell of primary cell penult nearest the centre of sink."""
    k_p, k_s = dep.primary_grid.side_count, dep.secondary_grid.side_count
    q = k_s // k_p
    px, py = divmod(penult, k_p)
    sx, sy = divmod(sink, k_p)
    cx, cy = (2 * sx + 1) * q, (2 * sy + 1) * q
    best, best_d2 = -1, None
    for i in range(px * q, px * q + q):
        for j in range(py * q, py * q + q):
            d2 = (2 * i + 1 - cx) ** 2 + (2 * j + 1 - cy) ** 2
            # cells are visited in flat order, so <= keeps the highest on a tie
            if best_d2 is None or d2 <= best_d2:
                best, best_d2 = i * k_s + j, d2
    return best


def reference_primary_setup(dep: Deployment) -> dict[str, np.ndarray]:
    """pair_path_len, pair_direct, pair_relay_cell and pair_int_dest_cell of
    dep's primary pairs, one path at a time."""
    pairs = dep.primary_pairs
    count = len(pairs)
    src_cells = dep.primary_cells[pairs[:, 0]]
    dst_cells = dep.primary_cells[pairs[:, 1]]
    out = {
        "pair_path_len": np.zeros(count, dtype=np.int64),
        "pair_direct": np.zeros(count, dtype=bool),
        "pair_relay_cell": np.full(count, -1, dtype=np.int64),
        "pair_int_dest_cell": np.full(count, -1, dtype=np.int64),
    }
    for i in range(count):
        path = hv_path_cells(int(src_cells[i]), int(dst_cells[i]),
                             dep.primary_grid.side_count)
        out["pair_path_len"][i] = len(path)
        if len(path) <= 2:
            out["pair_direct"][i] = True
            continue
        out["pair_relay_cell"][i] = path[1]
        out["pair_int_dest_cell"][i] = nearest_cell(dep, int(path[-2]), int(path[-1]))
    return out
