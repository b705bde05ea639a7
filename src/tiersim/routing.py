"""Horizontal-vertical cell paths, designated relays, path-load census.

Every data path runs along the source's row to the destination's column,
then along that column: one turn at most. Each secondary cell elects one
designated relay that forwards all secondary paths crossing the cell for
the whole run. A primary cell keeps only the tier that wins its relay draw,
for the capture check; primary packets travel on relays drawn per broadcast.
build_deployment rejects a deployment with an empty secondary cell, so every
cell of both grids holds a secondary node and every secondary cell has a
relay. A designated relay also hands each carried primary packet over: its
int-dest, whose cell transport fixes at set-up. The relay pick and the path
census are the O(m) node passes of set-up here; each runs on the package's
one worker pool (deployment.on_workers), and no result depends on the
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deployment import CHUNK, Deployment, node_ranges, on_workers, range_cursors

__all__ = [
    "RelayAssignment",
    "hv_path_cells",
    "hv_step",
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


def hv_step(cell, dst_cell, side_count: int) -> np.ndarray:
    """The cell after cell on the HV path toward dst_cell, elementwise; dst_cell
    itself once there. Both are widened to int64: unsigned differences wrap."""
    k = side_count
    cell, dst_cell = np.asarray(cell, dtype=np.int64), np.asarray(dst_cell, dtype=np.int64)
    dx = dst_cell // k - cell // k
    return np.where(dx != 0, cell + np.sign(dx) * k, cell + np.sign(dst_cell - cell))


# ======== designated relays ========


@dataclass(frozen=True)
class RelayAssignment:
    """The relay tier of every primary cell and the relay of every secondary cell.

    On the primary grid the relay is drawn uniformly over all nodes present
    in the cell, both tiers: the dense secondary tier wins nearly always,
    which is what lets it capture primary traffic. Only the winner's tier is
    kept: primary_relay_is_secondary, and secondary_capture_fraction, its
    mean over the primary cells. On the secondary grid only secondary nodes
    are candidates; secondary_relay holds the node ids.
    """

    primary_relay_is_secondary: np.ndarray
    secondary_relay: np.ndarray
    secondary_capture_fraction: float


def _pick_by_rank(cells: np.ndarray, counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniform member choice per cell: the member of rank floor(u * count) in
    node-id order, found in one chunked pass over cells, split over the
    workers. A range writes only the picks that lie in it."""
    rank = (u * counts).astype(np.int64)
    chosen = np.full(len(counts), -1, dtype=np.int64)
    # a pass also costs O(cells)
    step, ranges = node_ranges(len(cells), len(counts), CHUNK)

    def pick(first, end, seen):  # seen: members in earlier chunks
        for i in range(first, end, step):
            chunk = cells[i : i + step]
            here = np.bincount(chunk, minlength=len(counts))
            # only cells whose pick lies in this chunk need ranks within it
            ids = np.flatnonzero(((seen <= rank) & (rank < seen + here))[chunk])
            ids = ids[np.argsort(chunk[ids], kind="stable")]
            key = chunk[ids].astype(np.int64)
            hit = seen[key] + np.arange(len(key)) - np.searchsorted(key, key) == rank[key]
            chosen[key[hit]] = ids[hit] + i
            seen += here

    seen = range_cursors(lambda i, j: cells[i:j], ranges, step,
                         np.zeros(len(counts), dtype=np.int64))
    on_workers(pick, [(*r, s) for r, s in zip(ranges, seen)])
    return chosen


def select_relays(deployment: Deployment, seed) -> RelayAssignment:
    """Fix each primary cell's relay tier and each secondary cell's relay for a run."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    kp2 = deployment.primary_grid.cell_count
    ks2 = deployment.secondary_grid.cell_count

    n_counts = deployment.primary_counts
    m_counts = deployment.secondary_index_primary_grid.counts
    total = n_counts + m_counts

    # the member uniforms after the tier draw are not read; drawing them keeps
    # every secondary relay, and so every SINR floor, the same at each seed
    u_tier = rng.random(kp2)
    rng.random(kp2)
    is_sec = u_tier < m_counts / total
    capture = float(is_sec.mean())

    secondary_relay = _pick_by_rank(deployment.secondary_cells, deployment.secondary_counts,
                                    rng.random(ks2))
    return RelayAssignment(
        primary_relay_is_secondary=is_sec,
        secondary_relay=secondary_relay,
        secondary_capture_fraction=capture,
    )


# ======== path load ========


def path_load_census(pairs_cells: np.ndarray, k: int) -> np.ndarray:
    """How many S-D paths include each cell, as a flat array.

    pairs_cells is a (P, 2) array of (source cell, destination cell), of any
    integer type; the count covers every cell of each HV path, endpoints
    included. Each path contributes its horizontal run [sx..dx] at row sy and
    its vertical run at column dx excluding row sy (counted once at the turn),
    as the ends of runs in two difference arrays, integrated once at the end.

    The workers take contiguous ranges of passes of max(CHUNK, k^2) / WORKERS
    pairs, so between them they hold one pass of max(CHUNK, k^2) pairs, each
    widened to a signed type that holds every bin (unsigned differences
    would wrap); each keeps its own two difference arrays, summed at the
    end. A pass costs O(its pairs + k^2) for its bincounts, so it takes no
    fewer than k^2 / 2 pairs, and the census costs O(P + k^2 * passes).
    """
    size = (k + 1) * k
    signed = np.int32 if size < 2**31 else np.int64
    step, ranges = node_ranges(len(pairs_cells), k * k // 2, max(CHUNK, k * k))

    def diffs(first, end):
        diff_h = np.zeros(size, dtype=np.int64)
        diff_v = np.zeros(size, dtype=np.int64)
        for i in range(first, end, step):
            chunk = pairs_cells[i : i + step].astype(signed)
            sx, sy = np.divmod(chunk[:, 0], k)
            dx, dy = np.divmod(chunk[:, 1], k)
            # horizontal run: row sy, columns min(sx,dx)..max(sx,dx)
            diff_h += np.bincount(np.minimum(sx, dx) * k + sy, minlength=size)
            diff_h -= np.bincount((np.maximum(sx, dx) + 1) * k + sy, minlength=size)
            # vertical run: column dx, rows between sy (exclusive) and dy (inclusive)
            vert = dy != sy
            col = dx[vert] * (k + 1)
            diff_v += np.bincount(col + np.where(dy > sy, sy + 1, dy)[vert], minlength=size)
            diff_v -= np.bincount(col + np.where(dy > sy, dy, sy - 1)[vert] + 1, minlength=size)
        return diff_h, diff_v

    diff_h, diff_v = (sum(d) for d in zip(*on_workers(diffs, ranges)))
    counts = np.cumsum(diff_h.reshape(k + 1, k), axis=0)[:k]
    counts += np.cumsum(diff_v.reshape(k, k + 1), axis=1)[:, :k]
    return counts.ravel()
