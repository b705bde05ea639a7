"""Slot round-robin, preservation regions, and collection admission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import region_reference
from region_reference import grown, make_region, rect_blocked, rect_regions, rects_overlap

from tiersim.deployment import CellGrid
from tiersim.scheduler import (
    PHASES,
    TICKS,
    clear_sinks,
    place_collection_regions,
    preservation_regions,
    slot_offsets,
)


pgrid = sgrid = CellGrid  # a grid is its side count, whichever tier it serves


def active_cells(grid, slot):
    """Flat cells of a grid that wake in a slot."""
    return np.flatnonzero(slot_offsets(grid.side_count) == slot)


def covers_primary(mask, cell, k_p, q):
    """Whether a flat secondary-cell mask holds every secondary cell of a primary cell."""
    cx, cy = divmod(cell, k_p)
    square = mask.reshape(k_p * q, k_p * q)
    return bool(square[cx * q : (cx + 1) * q, cy * q : (cy + 1) * q].all())


# ======== slot round robin ========


def test_frame_structure_constants():
    assert TICKS == 64
    assert PHASES == 64
    # one primary phase per round-robin slot
    assert len(np.unique(slot_offsets(16))) == PHASES


def test_single_cluster_slot_zero():
    cells = active_cells(pgrid(8), 0)
    assert len(cells) == 1
    assert cells[0] == 0  # local (0, 0)


def test_two_clusters_per_axis():
    grid = pgrid(16)
    for slot in (0, 17, 63):
        cells = active_cells(grid, slot)
        assert len(cells) == 4
        # same local offset in every cluster
        cx, cy = np.divmod(cells, 16)
        assert len(set(zip(cx % 8, cy % 8))) == 1


def test_round_robin_partitions_grid():
    for k in (2, 8, 16):
        grid = pgrid(k)
        seen = np.zeros(k * k, dtype=int)
        for slot in range(64):
            seen[active_cells(grid, slot)] += 1
        assert (seen == 1).all()


def test_partial_cluster_has_empty_slots():
    # a 2x2 grid wakes cells in slots {0, 1, 8, 9} only
    grid = pgrid(2)
    woken = {slot for slot in range(64) if len(active_cells(grid, slot))}
    assert woken == {0, 1, 8, 9}


def test_slot_offsets_formula():
    offs = slot_offsets(16)
    cx, cy = np.divmod(np.arange(256), 16)
    assert (offs == 8 * (cx % 8) + (cy % 8)).all()


# ======== region geometry ========


def test_interior_region_cell_count():
    # q=39: 3 blocks of 39 plus a one-cell ring on both sides = 119 per axis
    square = preservation_regions([4 * 8 + 4], 8, 39).reshape(8 * 39, 8 * 39)
    assert square.any(axis=1).sum() == square.any(axis=0).sum() == 119
    assert int(square.sum()) == 119 * 119 == 14161


def test_corner_region_clips():
    # corner loses one block and one ring cell per clipped side
    assert int(preservation_regions([0], 8, 39).sum()) == (2 * 39 + 1) ** 2


def test_region_membership_against_enumeration():
    # every center of an 8x8 grid at q=5, checked cell by cell
    k_p, q = 8, 5
    k_s = k_p * q
    for center in range(k_p * k_p):
        mask = preservation_regions([center], k_p, q)
        px, py = divmod(center, k_p)
        bx0, bx1 = max(0, px - 1), min(k_p - 1, px + 1)
        by0, by1 = max(0, py - 1), min(k_p - 1, py + 1)
        members = set()
        for sx in range(k_s):
            for sy in range(k_s):
                in_x = bx0 * q - 1 <= sx <= (bx1 + 1) * q
                in_y = by0 * q - 1 <= sy <= (by1 + 1) * q
                if in_x and in_y:
                    members.add(sx * k_s + sy)
        assert set(np.flatnonzero(mask).tolist()) == members


def test_region_contains_primary_block():
    mask = preservation_regions([4 * 8 + 4], 8, 5)
    assert covers_primary(mask, 3 * 8 + 3, 8, 5)
    assert covers_primary(mask, 5 * 8 + 5, 8, 5)
    assert not covers_primary(mask, 6 * 8 + 4, 8, 5)
    assert not covers_primary(mask, 4 * 8 + 2, 8, 5)


def test_regions_eight_cells_apart_are_disjoint():
    a = preservation_regions([3 * 16 + 3], 16, 5)
    b = preservation_regions([11 * 16 + 3], 16, 5)
    assert a.any() and b.any()
    assert not (a & b).any()


def test_blocked_cells_empty_without_tx():
    mask = preservation_regions([], 8, 5)
    assert mask.shape == (40 * 40,)
    assert not mask.any()


def test_blocked_cells_single_interior_tx():
    mask = preservation_regions([4 * 8 + 4], 8, 39)
    rects = rect_regions([4 * 8 + 4], pgrid(8), sgrid(8 * 39))
    assert np.array_equal(mask, rect_blocked(np.arange(mask.size), rects, 8 * 39))
    assert int(mask.sum()) == 14161


@st.composite
def active_sets(draw):
    """A grid and a set of active primary cells, corners and edges drawn often."""
    k_p = draw(st.integers(2, 24))
    q = draw(st.sampled_from([1, 2, 3, 5, 21]))
    last = k_p - 1
    rim = [x * k_p + y for x in range(k_p) for y in range(k_p)
           if x in (0, last) or y in (0, last)]
    cell = st.one_of(st.integers(0, k_p * k_p - 1), st.sampled_from(rim))
    return k_p, q, draw(st.lists(cell, max_size=8, unique=True))


@given(active_sets())
@settings(max_examples=300, deadline=None)
def test_mask_equals_painted_rectangles(case):
    k_p, q, active = case
    k_s = k_p * q
    rects = rect_regions(active, pgrid(k_p), sgrid(k_s))
    want = rect_blocked(np.arange(k_s * k_s), rects, k_s)
    assert np.array_equal(preservation_regions(active, k_p, q), want)


def test_rects_overlap_inclusive():
    assert rects_overlap((0, 4, 0, 4), (4, 8, 4, 8))  # shared corner cell
    assert not rects_overlap((0, 4, 0, 4), (5, 8, 0, 4))


# ======== collection admission ========


def admit(sinks, active=(), k_p=16, q=5):
    """Admitted sinks of a phase in which the primary cells in active transmit."""
    return place_collection_regions(sinks, clear_sinks(active, k_p, q), k_p, q)


def test_sink_inside_preservation_block_is_deferred():
    assert admit([5 * 16 + 6], active=[5 * 16 + 5]) == []


def test_sinks_two_apart_admit_at_most_one():
    assert len(admit([5 * 16 + 5, 7 * 16 + 5])) == 1


def test_touching_regions_are_not_co_admitted():
    # disjoint but adjacent blocks still conflict: a delivery transmitter at
    # primary power one secondary cell from the neighbour's receiver would
    # break the constant per-delivery rate
    assert len(admit([5 * 16 + 5, 8 * 16 + 5])) == 1
    assert len(admit([5 * 16 + 5, 9 * 16 + 5])) == 1  # one primary cell of gap is still too close


def test_separated_regions_are_co_admitted():
    admitted = admit([5 * 16 + 5, 10 * 16 + 5])
    assert len(admitted) == 2
    assert set(admitted) == {5 * 16 + 5, 10 * 16 + 5}


def test_admission_defers_near_preservation():
    # four cells away still conflicts through the grown test, five clears it
    assert admit([9 * 16 + 5], active=[5 * 16 + 5]) == []
    assert len(admit([10 * 16 + 5], active=[5 * 16 + 5])) == 1


def test_admitted_regions_never_touch_blocked_cells():
    active = [2 * 16 + 2, 12 * 16 + 12]
    mask = preservation_regions(active, 16, 5)
    admitted = admit(list(range(256)), active=active)
    assert admitted  # plenty of room far from both transmitters
    for sink in admitted:
        # a collection region has a preservation region's shape
        assert not (mask & preservation_regions([sink], 16, 5)).any()


def test_admission_is_greedy_in_sink_order():
    # all candidates conflict pairwise; the smallest sink index wins
    assert admit([7 * 16 + 7, 5 * 16 + 5, 6 * 16 + 6]) == [5 * 16 + 5]


def test_duplicate_sink_requests_collapse():
    assert len(admit([5 * 16 + 5, 5 * 16 + 5])) == 1


# ======== clearance rule against the rectangle oracle ========


@pytest.mark.parametrize("k_p", [2, 3, 5, 8, 11, 16])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 21])
def test_clearance_rule_equals_grown_rectangle_overlap(k_p, q):
    # every ordered (active, sink) pair, edge and corner cells included
    p, s = pgrid(k_p), sgrid(k_p * q)
    rects = [make_region(c, p, s) for c in range(k_p * k_p)]
    for active, rect in enumerate(rects):
        want = [not rects_overlap(grown(sink_rect, q), rect) for sink_rect in rects]
        assert clear_sinks([active], k_p, q).tolist() == want


@st.composite
def phase_and_sinks(draw):
    k_p = draw(st.sampled_from([2, 3, 5, 8, 11, 16]))
    q = draw(st.sampled_from([1, 2, 3, 5, 21]))
    cell = st.integers(0, k_p * k_p - 1)
    return (k_p, q, draw(st.lists(cell, max_size=6, unique=True)),
            draw(st.lists(cell, max_size=40)))


@given(phase_and_sinks())
@settings(max_examples=300, deadline=None)
def test_admission_equals_rectangle_oracle(case):
    k_p, q, active, sinks = case
    p, s = pgrid(k_p), sgrid(k_p * q)
    want = region_reference.place_collection_regions(
        sinks, rect_regions(active, p, s), p, s)
    assert place_collection_regions(sinks, clear_sinks(active, k_p, q), k_p, q) == want


# ======== admitted-phase map ========


# ROADMAP item 1 is meant to change these counts: with full primary TDMA and
# one primary cell of clearance, sinks near the middle of each 8x8 cluster
# are held in every phase.
@pytest.mark.parametrize("k_p, never", [(8, 4), (11, 25), (15, 81), (16, 100), (24, 324)])
def test_never_admissible_sinks_with_every_source_active(k_p, never):
    sigma = slot_offsets(k_p)
    table = np.array([clear_sinks(np.flatnonzero(sigma == phase), k_p, 2)
                      for phase in range(PHASES)])
    assert table.shape == (PHASES, k_p * k_p)
    assert int((~table.any(axis=0)).sum()) == never
