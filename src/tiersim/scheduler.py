"""Slot activation, preservation regions, and collection-region admission.

Both grids run the same 64-slot round robin: inside each 8x8 cluster the
cell with local offset (u, v) is active in slot 8u+v. One primary slot
spans one full secondary frame of three subframes (intra-secondary traffic,
primary-segment relaying, sink delivery), each carrying 64 secondary slots.

A preservation region is the 3x3 primary-cell block around an active
primary transmitter plus a one-cell ring of secondary cells; secondary
transmitters inside it stay silent for the whole primary slot. Collection
regions have the same shape, centered on sink cells, and are admitted
greedily so that they overlap neither preservation regions nor each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deployment import CellGrid

__all__ = [
    "TICKS",
    "Region",
    "slot_offsets",
    "make_region",
    "preservation_regions",
    "blocked_secondary_cells",
    "place_collection_regions",
    "rects_overlap",
]

TICKS = 64  # slots of the round robin; one subframe spans one full cycle


def slot_offsets(side_count: int) -> np.ndarray:
    """Flat array of activation slots: cell (cx, cy) wakes at 8(cx%8)+(cy%8).

    Grids narrower than 8 cells hold a single partial cluster, so some of
    the 64 slots activate no cell at all; each cell is still active exactly
    once per cycle.
    """
    cx, cy = np.divmod(np.arange(side_count * side_count), side_count)
    return (8 * (cx % 8) + (cy % 8)).astype(np.int64)


# ======== regions ========


@dataclass(frozen=True)
class Region:
    """3x3 primary block plus secondary ring, clipped at the boundary.

    The extent is stored as an inclusive rectangle in secondary cell
    coordinates: columns sec_x0..sec_x1, rows sec_y0..sec_y1.
    """

    center: int
    sec_x0: int
    sec_x1: int
    sec_y0: int
    sec_y1: int

    def secondary_rect(self) -> tuple[int, int, int, int]:
        return (self.sec_x0, self.sec_x1, self.sec_y0, self.sec_y1)


def make_region(center: int, p_grid: CellGrid, s_grid: CellGrid) -> Region:
    k_p = p_grid.side_count
    k_s = s_grid.side_count
    q = k_s // k_p
    px, py = divmod(center, k_p)
    bx0, bx1 = max(0, px - 1), min(k_p - 1, px + 1)
    by0, by1 = max(0, py - 1), min(k_p - 1, py + 1)
    return Region(
        center=center,
        sec_x0=max(0, bx0 * q - 1),
        sec_x1=min(k_s - 1, (bx1 + 1) * q),
        sec_y0=max(0, by0 * q - 1),
        sec_y1=min(k_s - 1, (by1 + 1) * q),
    )


def preservation_regions(
    active_tx_cells, p_grid: CellGrid, s_grid: CellGrid
) -> list[Region]:
    """One region per primary cell that actually transmits this slot."""
    return [make_region(int(c), p_grid, s_grid) for c in active_tx_cells]


def blocked_secondary_cells(regions, s_grid: CellGrid) -> np.ndarray:
    """Union of member secondary cells over regions, as a flat boolean mask."""
    k = s_grid.side_count
    mask = np.zeros((k, k), dtype=bool)
    for r in regions:
        mask[r.sec_x0 : r.sec_x1 + 1, r.sec_y0 : r.sec_y1 + 1] = True
    return mask.ravel()


def rects_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    ax0, ax1, ay0, ay1 = a
    bx0, bx1, by0, by1 = b
    return ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1


def place_collection_regions(
    pending_sink_cells,
    preservation: list[Region],
    p_grid: CellGrid,
    s_grid: CellGrid,
) -> list[Region]:
    """Greedy admission of collection regions in sink-cell index order.

    A region is admitted when it keeps at least one primary cell of clearance
    from every preservation region and every already admitted collection
    region; losers wait for the next frame. Mere non-overlap is not enough:
    a delivery transmitter runs at primary power, so a receiver in a touching
    region would see interference at secondary-cell range, and the constant
    per-delivery rate only holds with primary-cell spacing.
    """
    q = s_grid.side_count // p_grid.side_count
    blocked_rects = [r.secondary_rect() for r in preservation]
    admitted: list[Region] = []
    admitted_rects: list[tuple[int, int, int, int]] = []
    for sink in sorted(set(int(c) for c in pending_sink_cells)):
        region = make_region(sink, p_grid, s_grid)
        rect = region.secondary_rect()
        # grow one side of every tested pair by q cells = one primary cell
        grown = (rect[0] - q, rect[1] + q, rect[2] - q, rect[3] + q)
        if any(rects_overlap(grown, r) for r in blocked_rects):
            continue
        if any(rects_overlap(grown, r) for r in admitted_rects):
            continue
        admitted.append(region)
        admitted_rects.append(rect)
    return admitted
