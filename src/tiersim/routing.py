"""Horizontal-vertical cell paths, designated relays, and path-load census.

Every data path runs along the source's row to the destination's column,
then along that column: one turn at most. Each cell elects one designated
relay that forwards all paths crossing the cell for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deployment import CHUNK, Deployment

__all__ = [
    "RelayAssignment",
    "hv_path_cells",
    "select_relays",
    "path_load_census",
]


def hv_path_cells(src_cell: int, dst_cell: int, side_count: int) -> np.ndarray:
    """Flat cells of the horizontal-then-vertical path between two cells.

    The path has |dcol| + |drow| + 1 cells, both end cells included.
    """
    k = side_count
    sx, sy = divmod(src_cell, k)
    dx, dy = divmod(dst_cell, k)
    step_x = 1 if dx >= sx else -1
    step_y = 1 if dy >= sy else -1
    horiz = np.arange(sx, dx + step_x, step_x, dtype=np.int64) * k + sy
    vert = dx * k + np.arange(sy + step_y, dy + step_y, step_y, dtype=np.int64)
    return np.concatenate([horiz, vert])


# ======== designated relays ========


@dataclass(frozen=True)
class RelayAssignment:
    """Per-cell designated relay node ids, -1 where a cell is empty.

    On the primary grid the relay is drawn uniformly over all nodes present
    in the cell, both tiers: the dense secondary tier wins nearly always,
    which is what lets it capture primary traffic. primary_relay_is_secondary
    records which tier won. On the secondary grid only secondary nodes are
    candidates.
    """

    primary_relay: np.ndarray
    primary_relay_is_secondary: np.ndarray
    secondary_relay: np.ndarray

    @property
    def secondary_capture_fraction(self) -> float:
        """Fraction of relay-holding primary cells whose relay is secondary."""
        has = self.primary_relay >= 0
        if not has.any():
            return 0.0
        return float(self.primary_relay_is_secondary[has].mean())


def _pick_per_cell(index, u: np.ndarray) -> np.ndarray:
    """Uniform member choice per cell from a CellIndex, -1 for empty cells."""
    counts = index.counts
    chosen = np.full(len(counts), -1, dtype=np.int64)
    has = counts > 0
    offs = (u[has] * counts[has]).astype(np.int64)
    chosen[has] = index.order[index.starts[:-1][has] + offs]
    return chosen


def _pick_by_rank(cells: np.ndarray, counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """_pick_per_cell without a member order: per cell, the member of rank
    floor(u * count) in node-id order, found in one chunked pass over cells."""
    rank = (u * counts).astype(np.int64)
    chosen = np.full(len(counts), -1, dtype=np.int64)
    seen = np.zeros(len(counts), dtype=np.int64)  # members in earlier chunks
    step = max(CHUNK, len(counts))  # a pass also costs O(cells)
    for i in range(0, len(cells), step):
        chunk = cells[i : i + step]
        here = np.bincount(chunk, minlength=len(counts))
        # only cells whose pick lies in this chunk need ranks within it
        ids = np.flatnonzero(((seen <= rank) & (rank < seen + here))[chunk])
        ids = ids[np.argsort(chunk[ids], kind="stable")]
        key = chunk[ids].astype(np.int64)
        hit = seen[key] + np.arange(len(key)) - np.searchsorted(key, key) == rank[key]
        chosen[key[hit]] = ids[hit] + i
        seen += here
    return chosen


def select_relays(deployment: Deployment, seed) -> RelayAssignment:
    """Fix the designated relay of every cell for a whole run."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    kp2 = deployment.primary_grid.cell_count
    ks2 = deployment.secondary_grid.cell_count

    n_counts = deployment.primary_index.counts
    m_counts = deployment.secondary_index_primary_grid.counts
    total = n_counts + m_counts

    # draw the winning tier first, then a uniform member of that tier
    u_tier = rng.random(kp2)
    u_member = rng.random(kp2)
    is_sec = np.zeros(kp2, dtype=bool)
    occupied = total > 0
    is_sec[occupied] = u_tier[occupied] < m_counts[occupied] / total[occupied]

    prim_pick = _pick_per_cell(deployment.primary_index, u_member)
    sec_pick = _pick_per_cell(deployment.secondary_index_primary_grid, u_member)
    primary_relay = np.where(is_sec, sec_pick, prim_pick)
    primary_relay[~occupied] = -1

    secondary_relay = _pick_by_rank(deployment.secondary_cells, deployment.secondary_counts,
                                    rng.random(ks2))
    return RelayAssignment(
        primary_relay=primary_relay,
        primary_relay_is_secondary=is_sec,
        secondary_relay=secondary_relay,
    )


# ======== path load ========


def path_load_census(pairs_cells: np.ndarray, k: int) -> np.ndarray:
    """How many S-D paths include each cell, as a flat array.

    pairs_cells is an (P, 2) array of (source cell, destination cell); the
    count covers every cell of each HV path, endpoints included. Difference
    arrays (integer bincounts over flat cell indices) make it O(P + k^2).

    Each path contributes its horizontal run [sx..dx] at row sy and its
    vertical run at column dx excluding row sy (counted once at the turn).
    """
    counts = np.zeros((k, k), dtype=np.int64)
    if len(pairs_cells) == 0:
        return counts.ravel()
    sx, sy = np.divmod(pairs_cells[:, 0], k)
    dx, dy = np.divmod(pairs_cells[:, 1], k)

    # horizontal run: rows sy, columns min(sx,dx)..max(sx,dx)
    xlo = np.minimum(sx, dx)
    xhi = np.maximum(sx, dx)
    size = (k + 1) * k
    diff_h = (np.bincount(xlo * k + sy, minlength=size)
              - np.bincount((xhi + 1) * k + sy, minlength=size))
    counts += np.cumsum(diff_h.reshape(k + 1, k), axis=0)[:k]

    # vertical run: column dx, rows between sy (exclusive) and dy (inclusive)
    vert = dy != sy
    if vert.any():
        vy_lo = np.where(dy > sy, sy + 1, dy)[vert]
        vy_hi = np.where(dy > sy, dy, sy - 1)[vert]
        col = dx[vert] * (k + 1)
        diff_v = (np.bincount(col + vy_lo, minlength=size)
                  - np.bincount(col + vy_hi + 1, minlength=size))
        counts += np.cumsum(diff_v.reshape(k, k + 1), axis=1)[:, :k]

    return counts.ravel()
