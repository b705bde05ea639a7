"""Rectangle-overlap admission kept as the oracle for scheduler's clearance rule.

This is collection-region admission as it ran before the rule: each ready
sink's region rectangle comes from make_region, is grown by q secondary cells
(one primary cell), and is tested rectangle by rectangle against the phase's
preservation regions and the regions admitted before it. Admission returns
the admitted sink cells, in admission order, as the scheduler does.
"""

from __future__ import annotations

from tiersim.scheduler import make_region, preservation_regions
from tiersim.transport import TransportSim


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
    return preservation_regions(sim.phase_cells[phase], sim.gp, sim.gs)


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
