"""Rectangle regions kept as the oracle for scheduler's mask and clearance rule.

This is the region geometry as it ran before the per-phase mask: every
preservation or collection region is an inclusive rectangle (x0, x1, y0, y1)
in secondary cell coordinates, built by make_region from the 3x3 primary
block around its center, and a cell is blocked when some rectangle holds it.
The mask scheduler.preservation_regions paints must equal rect_blocked over
every secondary cell.

Collection-region admission is the other oracle: each ready sink's
rectangle is grown by q secondary cells (one primary cell) and tested
rectangle by rectangle against the phase's preservation regions and the
regions admitted before it. Admission returns the admitted sink cells, in
admission order, as the scheduler does.
"""

from __future__ import annotations

import numpy as np

from tiersim.deployment import CellGrid
from tiersim.transport import TransportSim


def make_region(center: int, p_grid: CellGrid, s_grid: CellGrid) -> tuple[int, int, int, int]:
    """3x3 primary block plus secondary ring, clipped at the boundary.

    Returned as an inclusive rectangle (x0, x1, y0, y1) in secondary cell
    coordinates: columns x0..x1, rows y0..y1.
    """
    k_p = p_grid.side_count
    k_s = s_grid.side_count
    q = k_s // k_p
    px, py = divmod(center, k_p)
    bx0, bx1 = max(0, px - 1), min(k_p - 1, px + 1)
    by0, by1 = max(0, py - 1), min(k_p - 1, py + 1)
    return (
        max(0, bx0 * q - 1),
        min(k_s - 1, (bx1 + 1) * q),
        max(0, by0 * q - 1),
        min(k_s - 1, (by1 + 1) * q),
    )


def rect_regions(active_tx_cells, p_grid: CellGrid, s_grid: CellGrid) -> list:
    """One preservation rectangle per primary cell that transmits."""
    return [make_region(int(c), p_grid, s_grid) for c in active_tx_cells]


def rect_blocked(cells, rects, k_s):
    """Cells inside any of the inclusive (x0, x1, y0, y1) rectangles."""
    cx = cells // k_s
    cy = cells % k_s
    out = np.zeros(cells.shape, dtype=bool)
    for x0, x1, y0, y1 in rects:
        out |= (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
    return out


def rects_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """Whether two inclusive (x0, x1, y0, y1) rectangles share a cell."""
    ax0, ax1, ay0, ay1 = a
    bx0, bx1, by0, by1 = b
    return ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1


def grown(rect: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    """rect grown by q secondary cells on every side."""
    x0, x1, y0, y1 = rect
    return (x0 - q, x1 + q, y0 - q, y1 + q)


def phase_rects(sim: TransportSim, phase: int) -> list:
    """Preservation rectangles of one phase, rebuilt from its active source cells."""
    return rect_regions(sim.phase_cells[phase], sim.gp, sim.gs)


def place_collection_regions(pending_sink_cells, preservation, p_grid, s_grid) -> list[int]:
    """Greedy admission in sink-cell order against preservation rectangles."""
    q = s_grid.side_count // p_grid.side_count
    admitted: list[int] = []
    admitted_rects: list[tuple[int, int, int, int]] = []
    for sink in sorted(set(int(c) for c in pending_sink_cells)):
        rect = make_region(sink, p_grid, s_grid)
        # grow one side of every tested pair by q cells = one primary cell
        wide = grown(rect, q)
        if any(rects_overlap(wide, r) for r in preservation):
            continue
        if any(rects_overlap(wide, r) for r in admitted_rects):
            continue
        admitted.append(sink)
        admitted_rects.append(rect)
    return admitted
