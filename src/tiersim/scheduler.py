"""Slot activation, preservation regions, and collection-region admission.

Each grid runs a round robin over 8x8 clusters: the cell with local offset
(u, v) is active in slot 8u+v. A primary slot is a frame's phase, PHASES per
cycle; a secondary slot is a tick, TICKS per subframe; so both are 64. A frame
has three subframes: secondary traffic, primary-segment relaying, delivery.

A preservation region is the 3x3 primary-cell block around an active
primary transmitter plus a one-cell ring of secondary cells; secondary
transmitters inside it stay silent for the whole primary slot. With q
secondary cells per primary cell, the region of primary cell (x, y) spans
secondary columns (x-1)q-1 .. (x+2)q and rows (y-1)q-1 .. (y+2)q, clipped
at the boundary. A phase's regions are held only as a mask over secondary
cells painted from that span (preservation_regions, once per phase at
set-up). Collection regions have
the same shape, centered on sink cells, and need one primary cell of
clearance from preservation regions and from each other; for regions
centered on primary cells a and b the span turns into one rule on the cell
offsets (_conflict). It gives each slot's row of open sinks (clear_sinks,
once at set-up) and the greedy admission of a frame's ready sinks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PHASES",
    "TICKS",
    "slot_offsets",
    "preservation_regions",
    "clear_sinks",
    "place_collection_regions",
]

PHASES = 64  # primary phases per cycle, one per frame
TICKS = 64   # secondary ticks per subframe


def slot_offsets(side_count: int) -> np.ndarray:
    """Flat array of activation slots: cell (cx, cy) wakes at 8(cx%8)+(cy%8).

    Grids narrower than 8 cells hold a single partial cluster, so some of
    the 64 slots activate no cell at all; each cell is still active exactly
    once per cycle.
    """
    cx, cy = np.divmod(np.arange(side_count * side_count), side_count)
    return (8 * (cx % 8) + (cy % 8)).astype(np.int64)


# ======== regions ========


def preservation_regions(active_tx_cells, k_p: int, q: int) -> np.ndarray:
    """Flat boolean mask over secondary cells: the union of the preservation
    regions around active_tx_cells, on a primary grid of side k_p whose cells
    each hold q x q secondary cells. One slice per region, by the span rule."""
    k_s = k_p * q
    mask = np.zeros((k_s, k_s), dtype=bool)
    for cell in np.asarray(active_tx_cells, dtype=np.int64).tolist():
        x, y = divmod(cell, k_p)
        mask[max(0, (x - 1) * q - 1) : (x + 2) * q + 1,
             max(0, (y - 1) * q - 1) : (y + 2) * q + 1] = True
    return mask.ravel()


def _conflict(dx, dy, q: int):
    """Whether regions centered dx, dy primary cells apart lack one primary
    cell (q secondary cells) of clearance. Unclipped, a region at column x
    spans secondary columns (x-1)q-1 .. (x+2)q, so grown by q it meets
    another iff (|dx| - 4) q <= 1, likewise on rows; boundary clipping cuts
    only cells outside the grid. Takes ints or arrays."""
    return ((abs(dx) - 4) * q <= 1) & ((abs(dy) - 4) * q <= 1)


def clear_sinks(active_tx_cells, k_p: int, q: int) -> np.ndarray:
    """Flat boolean mask over primary cells: the sinks whose collection region
    keeps clear of the preservation regions around active_tx_cells."""
    sx, sy = np.divmod(np.arange(k_p * k_p)[:, None], k_p)
    ax, ay = np.divmod(np.asarray(active_tx_cells, dtype=np.int64), k_p)
    return ~_conflict(sx - ax, sy - ay, q).any(axis=1)


def place_collection_regions(sinks, open_row, k_p: int, q: int) -> list[int]:
    """Greedy admission of collection regions in ascending sink-cell order.

    A sink is admitted when its phase leaves it open (open_row, a row of
    clear_sinks) and it keeps clear of every sink admitted before it; losers
    wait for the next frame. Mere non-overlap is not enough: a delivery
    transmitter runs at primary power, so a receiver in a touching region
    would see interference at secondary-cell range, and the constant
    per-delivery rate only holds with primary-cell spacing.
    """
    admitted: list[int] = []
    for sink in sorted(set(sinks)):
        if not open_row[sink]:
            continue
        x, y = divmod(sink, k_p)
        if not any(_conflict(x - a // k_p, y - a % k_p, q) for a in admitted):
            admitted.append(sink)
    return admitted
