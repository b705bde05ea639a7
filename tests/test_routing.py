"""HV paths, designated relays, and path-load counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capture_law import TAIL_LEVEL, capture_pool
from secondary_index import SecondaryIndex
from tiersim import deployment, routing
from tiersim.deployment import ConfigurationError, SimConfig, build_deployment, primary_cell_area
from tiersim.routing import hv_path_cells, hv_step, path_load_census, select_relays


def flat(x, y, k):
    return x * k + y


# ======== path shape ========


def test_same_cell_path():
    k = 8
    path = hv_path_cells(flat(2, 3, k), flat(2, 3, k), k)
    assert len(path) == 1
    assert np.array_equal(path, [flat(2, 3, k)])


def test_horizontal_path():
    k = 8
    path = hv_path_cells(flat(0, 0, k), flat(3, 0, k), k)
    assert len(path) == 4
    assert np.array_equal(path, [flat(x, 0, k) for x in range(4)])


def test_horizontal_then_vertical_path():
    k = 8
    path = hv_path_cells(flat(0, 0, k), flat(2, 2, k), k)
    expected = [flat(0, 0, k), flat(1, 0, k), flat(2, 0, k), flat(2, 1, k), flat(2, 2, k)]
    assert len(path) == len(expected)
    assert np.array_equal(path, expected)


@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=23 * 23),
    st.integers(min_value=0, max_value=23 * 23),
)
@settings(max_examples=120, deadline=None)
def test_path_properties(k, a, b):
    src, dst = a % (k * k), b % (k * k)
    cells = hv_path_cells(src, dst, k)
    sx, sy = divmod(src, k)
    dx, dy = divmod(dst, k)
    # endpoints, length, adjacency, single turn
    assert cells[0] == src and cells[-1] == dst
    assert len(cells) == abs(dx - sx) + abs(dy - sy) + 1
    xs = [c // k for c in cells]
    ys = [c % k for c in cells]
    for i in range(len(cells) - 1):
        assert abs(xs[i + 1] - xs[i]) + abs(ys[i + 1] - ys[i]) == 1
    # horizontal run first: y stays sy until x reaches dx
    for x, y in zip(xs, ys):
        assert y == sy or x == dx


def assert_steps_walk_hv_paths(src, dst, k):
    """Stepping every src toward its dst visits exactly its hv_path_cells
    path, then stays at dst."""
    walk = [src]
    for _ in range(2 * k):  # one step more than the longest path takes
        walk.append(hv_step(walk[-1], dst, k))
    walk = np.stack(walk, axis=1)
    for cells, s, d in zip(walk, src.tolist(), dst.tolist()):
        path = hv_path_cells(s, d, k)
        assert np.array_equal(cells[: len(path)], path)
        assert (cells[len(path) :] == d).all()


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_hv_step_walks_every_hv_path(k):
    src, dst = np.divmod(np.arange(k**4), k * k)
    assert_steps_walk_hv_paths(src, dst, k)


def test_hv_step_widens_unsigned_cells():
    # both ways across the first and last full row and column of a 256 x 256
    # grid, as uint16 cells: a step toward a lower cell must not wrap
    k = 256
    ends = [(flat(0, y, k), flat(k - 1, y, k)) for y in (0, k - 1)]
    ends += [(flat(x, 0, k), flat(x, k - 1, k)) for x in (0, k - 1)]
    ends += [(b, a) for a, b in ends]
    src, dst = np.array(ends, dtype=np.uint16).T
    assert_steps_walk_hv_paths(src, dst, k)


# ======== designated relays ========


def test_single_node_cell_is_forced(monkeypatch):
    # a cell holding one tier only elects that tier. Primary nodes are kept
    # out of cell 1, so it elects the secondary tier; moving the secondary
    # nodes out of primary cell 0 (one column over) empties its secondary
    # cells, which the deployment rejects
    cfg = SimConfig(n=100, seed=0)
    _, grid = primary_cell_area(cfg.n)
    draw = deployment.sample_ppp
    regenerate = deployment.PositionStream.chunks

    def thinned(density, seed):
        pos = draw(density, seed)
        return pos[grid.cell_of(pos) != 1]

    def moved(stream, *args):
        for i, pos in regenerate(stream, *args):
            inside = grid.cell_of(pos) == 0
            pos[inside, 0] += 1 / grid.side_count
            yield i, pos

    monkeypatch.setattr(deployment, "sample_ppp", thinned)
    dep = build_deployment(cfg)
    relays = select_relays(dep, 1)
    occ_p = dep.primary_counts
    occ_s = dep.secondary_index_primary_grid.counts
    assert occ_p[1] == 0 and (occ_s > 0).all()
    is_sec = relays.primary_relay_is_secondary
    assert len(is_sec) == dep.primary_grid.cell_count
    assert is_sec[occ_p == 0].all()

    monkeypatch.setattr(deployment.PositionStream, "chunks", moved)
    with pytest.raises(ConfigurationError, match="hold no node"):
        build_deployment(cfg)


def test_relay_lives_in_its_cell():
    dep = build_deployment(SimConfig(n=100, seed=1))
    relays = select_relays(dep, 2)
    for cell in range(dep.secondary_grid.cell_count):
        assert dep.secondary_cells[relays.secondary_relay[cell]] == cell


def test_relay_deterministic():
    dep = build_deployment(SimConfig(n=100, seed=3))
    a = select_relays(dep, 7)
    b = select_relays(dep, 7)
    assert np.array_equal(a.primary_relay_is_secondary, b.primary_relay_is_secondary)
    assert a.secondary_capture_fraction == b.secondary_capture_fraction
    assert np.array_equal(a.secondary_relay, b.secondary_relay)


def test_secondary_capture_dominates():
    # with m = n^2 the dense tier wins the relay draw almost every time:
    # pooled over 20 seeds the rule's expected capture fraction clears
    # 1 - 2n/m = 0.98 at n=100, and the drawn relays fit the rule's exact
    # law. The realized fraction alone misses 0.98 about 12% of the time.
    cfg = SimConfig(n=100)
    pool = capture_pool(cfg.n, range(20))
    assert pool.expected_fraction > 1 - 2 * cfg.n / cfg.m
    assert pool.tail > TAIL_LEVEL


def test_every_secondary_cell_gets_a_relay():
    dep = build_deployment(SimConfig(n=100, seed=4))
    relays = select_relays(dep, 5)
    assert (relays.secondary_relay >= 0).all()


@pytest.mark.parametrize("chunk", [routing.CHUNK, 1000, 97])
def test_secondary_relay_is_the_ranked_member(monkeypatch, chunk):
    # the pick by rank over node chunks is the member of rank floor(u * count)
    # in the cell's node-id order, drawn from the same uniforms
    monkeypatch.setattr(routing, "CHUNK", chunk)
    dep = build_deployment(SimConfig(n=128, seed=5))
    relays = select_relays(dep, 6)
    rng = np.random.default_rng(6)
    rng.random(2 * dep.primary_grid.cell_count)  # the primary tier's draws
    u = rng.random(dep.secondary_grid.cell_count)
    index = SecondaryIndex(dep)
    want = [index.members(c)[int(u[c] * count)] if count else -1
            for c, count in enumerate(index.counts)]
    assert np.array_equal(relays.secondary_relay, want)


# ======== path load ========


def test_single_pair_census():
    k = 8
    pairs = np.array([[flat(1, 1, k), flat(4, 5, k)]])
    counts = path_load_census(pairs, k)
    path = set(hv_path_cells(flat(1, 1, k), flat(4, 5, k), k))
    for cell in range(k * k):
        assert counts[cell] == (1 if cell in path else 0)


def test_census_double_counting_identity():
    rng = np.random.default_rng(0)
    k = 16
    pairs = rng.integers(0, k * k, size=(500, 2))
    counts = path_load_census(pairs, k)
    total = sum(len(hv_path_cells(int(s), int(d), k)) for s, d in pairs)
    assert counts.sum() == total


def test_census_matches_brute_force():
    rng = np.random.default_rng(1)
    k = 9
    pairs = rng.integers(0, k * k, size=(200, 2))
    counts = path_load_census(pairs, k)
    brute = np.zeros(k * k, dtype=np.int64)
    for s, d in pairs:
        for cell in hv_path_cells(int(s), int(d), k):
            brute[cell] += 1
    assert np.array_equal(counts, brute)


def test_census_empty():
    assert path_load_census(np.empty((0, 2), dtype=np.int64), 8).sum() == 0


@pytest.mark.parametrize("k, count", [(10, 257), (256, (1 << 16) + 301)])
def test_census_equal_over_integer_types(monkeypatch, k, count):
    # passes of max(CHUNK, k**2) pairs, the last one short. Unwidened, a
    # destination cell below its source cell could wrap an unsigned type, and
    # at k = 256 a uint16 flat index past the last row does
    monkeypatch.setattr(routing, "CHUNK", 7)
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, k * k, size=(count, 2))
    assert (pairs[:, 1] < pairs[:, 0]).any()
    assert count > k * k and count % (k * k)
    brute = np.zeros(k * k, dtype=np.int64)
    for s, d in pairs:
        brute[hv_path_cells(int(s), int(d), k)] += 1
    for dtype in (np.uint16, np.uint32, np.int64):
        assert np.array_equal(path_load_census(pairs.astype(dtype), k), brute)
        empty = path_load_census(np.empty((0, 2), dtype=dtype), k)
        assert empty.shape == (k * k,) and not empty.any()


def test_central_load_within_spread_of_mean():
    # uniform random pairs load the central cells within 3x of the grid mean
    rng = np.random.default_rng(2)
    k = 16
    pairs = rng.integers(0, k * k, size=(4000, 2))
    counts = path_load_census(pairs, k).reshape(k, k)
    mean = counts.mean()
    central = counts[4:12, 4:12]
    assert (central < 3.0 * mean).all()
    assert (central > mean / 3.0).all()
