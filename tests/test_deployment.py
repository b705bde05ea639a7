"""Deployment sampling, grid sizing, and pairing."""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from border_node import border_deployment
from secondary_positions import secondary_positions

from tiersim import deployment
from tiersim.cli import main
from tiersim.deployment import (
    SECONDARY_NODE_BYTES,
    CellGrid,
    CellIndex,
    ConfigurationError,
    PositionStream,
    SimConfig,
    build_deployment,
    cell_occupancy,
    pair_sd,
    primary_cell_area,
    rng_streams,
    sample_ppp,
    secondary_cell_area,
)
from tiersim.harness import prepare


# ======== configuration ========


def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        SimConfig(n=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(n=100, beta=1.5)
    with pytest.raises(ConfigurationError):
        SimConfig(n=100, alpha=2.0)
    with pytest.raises(TypeError):  # power and noise enter SINR only as a ratio
        SimConfig(n=100, power_const=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(n=100, noise=-0.1)
    with pytest.raises(ConfigurationError):
        SimConfig(n=100, ap_scale=0.5)
    with pytest.raises(ConfigurationError):
        SimConfig(n=100, frames=100, warmup_frames=100)


def test_m_is_derived():
    cfg = SimConfig(n=100, beta=2.0)
    assert cfg.m == pytest.approx(10_000.0)
    assert SimConfig(n=10, beta=3.0).m == pytest.approx(1000.0)


# ======== grids ========


def test_primary_grid_at_ten_thousand():
    # target 2 ln(1e4)/1e4 = 1.8421e-3, 1/sqrt = 23.3, floored to 16
    target, grid = primary_cell_area(1e4)
    assert target == pytest.approx(2.0 * math.log(1e4) / 1e4)
    assert grid.side_count == 16
    assert grid.cell_area == pytest.approx(1.0 / 256.0)
    assert grid.cell_area >= target


def test_primary_grid_rejects_tiny_n():
    # 4/e^2 = 0.54 per cell leaves less than two cells per side
    with pytest.raises(ConfigurationError):
        primary_cell_area(math.e ** 2)
    with pytest.raises(ConfigurationError):
        primary_cell_area(2.0)


def test_primary_grid_small_n_skips_cluster_rounding():
    # below side 8 the plain floor applies: n=64 -> 1/sqrt(target) = 2.77
    _, grid = primary_cell_area(64)
    assert grid.side_count == 2
    _, grid = primary_cell_area(1024)
    assert grid.side_count == 8


@given(st.floats(min_value=20.0, max_value=1e6), st.floats(min_value=1.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_primary_cell_area_meets_target(n, ap_scale):
    try:
        target, grid = primary_cell_area(n, ap_scale)
    except ConfigurationError:
        return
    assert grid.cell_area >= target
    assert grid.side_count >= 2
    if grid.side_count >= 8:
        assert grid.side_count % 8 == 0


def test_secondary_grid_exact_evaluation():
    # n=1e4, beta=2: target = 4e8/65536 / (2e8 ln 1e8) = 1.6567e-6,
    # q = floor(sqrt((1/256)/target)) = floor(48.56) = 48
    target, grid = secondary_cell_area(1e4, 2.0, CellGrid(16))
    assert target == pytest.approx(6103.515625 / (2e8 * math.log(1e8)))
    assert target == pytest.approx(1.6567e-6, rel=1e-4)
    assert grid.side_count == 48 * 16
    assert grid.cell_area >= target
    assert grid.side_count % 8 == 0


def test_secondary_target_collapses_at_ideal_primary_area():
    # with a_p exactly 2 ln n/n the target expression reduces to 2 ln m/m
    n, beta = 100.0, 2.0
    m = n ** beta
    a_p = 2.0 * math.log(n) / n
    target = beta * beta * n * n * a_p * a_p / (2.0 * m * math.log(m))
    assert target == pytest.approx(2.0 * math.log(m) / m, rel=1e-12)


def test_secondary_refines_primary():
    for n in (64, 100, 256, 1024):
        _, p_grid = primary_cell_area(n)
        _, s_grid = secondary_cell_area(n, 2.0, p_grid)
        assert s_grid.side_count % p_grid.side_count == 0
        assert s_grid.cell_area <= p_grid.cell_area


def test_cell_of_partitions_and_clips():
    grid = CellGrid(side_count=4)
    pos = np.array([[0.0, 0.0], [0.999, 0.999], [1.0, 1.0], [0.26, 0.74]])
    cells = grid.cell_of(pos)
    assert cells[0] == 0
    assert cells[1] == 15
    assert cells[2] == 15  # boundary point clips inward
    assert cells[3] == 1 * 4 + 2


def test_cell_center():
    grid = CellGrid(side_count=2)
    assert grid.center(0) == (0.25, 0.25)
    assert grid.center(3) == (0.75, 0.75)


# ======== PPP sampling ========


def test_ppp_mean_count():
    # Poisson(100) over 1e4 draws: sample mean lands within one std of 100
    counts = [len(sample_ppp(100, seed)) for seed in range(10_000)]
    assert 97.0 <= np.mean(counts) <= 103.0


def test_ppp_tiny_density_usually_empty():
    empty = sum(len(sample_ppp(0.001, seed)) == 0 for seed in range(100))
    assert empty >= 95


def test_ppp_positions_in_unit_square():
    pos = sample_ppp(500, 7)
    assert ((pos >= 0.0) & (pos < 1.0)).all()


def test_ppp_deterministic():
    a = sample_ppp(200, 42)
    b = sample_ppp(200, 42)
    assert np.array_equal(a, b)


def test_ppp_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        sample_ppp(0.0, 1)


# ======== regenerated positions ========
# A Deployment holds no secondary positions: PositionStream regenerates them
# from the deployment stream. These pin the numpy stream facts it rests on.


def test_chunked_random_equals_one_call():
    whole = np.random.default_rng(8).random((10_001, 2))
    rng = np.random.default_rng(8)
    parts = [rng.random((min(977, 10_001 - i), 2)) for i in range(0, 10_001, 977)]
    assert np.array_equal(np.concatenate(parts), whole)


def test_advance_regenerates_node():
    # node i is the pair of doubles 2i, 2i+1 of the stream
    whole = np.random.default_rng(8).random((10_001, 2))
    for i in (0, 1, 977, 10_000):
        bit_generator = np.random.PCG64(8)  # what default_rng(8) draws from
        bit_generator.advance(2 * i)
        assert np.array_equal(np.random.Generator(bit_generator).random(2), whole[i])


@pytest.mark.parametrize("count", [2, 3, 1000, 65_537])
def test_int32_shuffle_equals_permutation(count):
    ids = np.arange(count, dtype=np.int32)
    np.random.default_rng(4).shuffle(ids)
    assert np.array_equal(ids, np.random.default_rng(4).permutation(count))


@pytest.mark.parametrize("density", [1.0, 300.0, 5000.0])
def test_regenerated_positions_equal_sample_ppp(density):
    # the stream the deployment draws from, after its primary tier
    streams = [rng_streams(6)[0] for _ in range(2)]
    for rng in streams:
        sample_ppp(40.0, rng)
    want = sample_ppp(density, streams[0])
    stream = PositionStream(density, streams[1])
    assert len(stream) == len(want)
    # and the stream goes on where sample_ppp leaves it
    assert streams[0].random() == streams[1].random()
    for size in (None, 1, 7, len(want) + 1):
        got = [pos for _, pos in stream.chunks(size)]
        assert np.array_equal(np.concatenate([np.empty((0, 2))] + got), want)
    ids = np.random.default_rng(1).integers(0, len(want), 50) if len(want) else []
    assert np.array_equal(stream.take(ids), want[ids])  # repeats and any order


def test_deployment_positions_equal_sample_ppp():
    dep = build_deployment(SimConfig(n=64, seed=9))
    rng = rng_streams(9)[0]
    assert np.array_equal(sample_ppp(64, rng), dep.primary_pos)
    assert np.array_equal(secondary_positions(dep), sample_ppp(64**2, rng))


# ======== pairing ========


def test_pair_two_nodes():
    pairs = pair_sd(2, 0)
    assert pairs.shape == (1, 2)
    assert set(pairs[0]) == {0, 1}


def test_pair_odd_count_leaves_one_out():
    pairs = pair_sd(1001, 3)
    assert pairs.shape == (500, 2)
    used = np.concatenate([pairs[:, 0], pairs[:, 1]])
    assert len(np.unique(used)) == 1000


def test_pair_below_two_is_empty():
    assert pair_sd(1, 0).shape == (0, 2)
    assert pair_sd(0, 0).shape == (0, 2)


def test_pair_deterministic():
    assert np.array_equal(pair_sd(100, 9), pair_sd(100, 9))


@pytest.mark.parametrize("count", [2, 3, 1000, 1001])
def test_pairs_are_the_halves_of_a_permutation(count):
    # pair i joins the i-th and (half + i)-th ids of permutation(count)
    perm = np.random.default_rng(4).permutation(count)
    half = count // 2
    pairs = pair_sd(count, 4)
    assert pairs.dtype == np.int32
    assert np.array_equal(pairs, np.stack([perm[:half], perm[half : 2 * half]], axis=1))


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pairing_is_a_matching(count, seed):
    pairs = pair_sd(count, seed)
    assert pairs.shape == (count // 2, 2)
    used = np.concatenate([pairs[:, 0], pairs[:, 1]])
    # every node in at most one pair, never paired with itself
    assert len(np.unique(used)) == len(used)
    assert (pairs[:, 0] != pairs[:, 1]).all()


# ======== deployment and occupancy ========


def test_build_deployment_deterministic():
    cfg = SimConfig(n=100, seed=11)
    a = build_deployment(cfg)
    b = build_deployment(cfg)
    assert np.array_equal(a.primary_pos, b.primary_pos)
    assert np.array_equal(secondary_positions(a), secondary_positions(b))
    assert np.array_equal(a.primary_pairs, b.primary_pairs)
    assert np.array_equal(a.secondary_cells, b.secondary_cells)


def parent_cells(dep) -> np.ndarray:
    """The primary cell that holds each secondary node's secondary cell."""
    k_p, k_s = dep.primary_grid.side_count, dep.secondary_grid.side_count
    q = k_s // k_p
    sx, sy = np.divmod(dep.secondary_cells.astype(np.int64), k_s)
    return sx // q * k_p + sy // q


def test_deployment_indexes_partition_nodes():
    dep = build_deployment(SimConfig(n=100, seed=1))
    occ = cell_occupancy(dep)
    assert occ.primary_per_primary_cell.sum() == len(dep.primary_pos)
    assert dep.secondary_counts.sum() == len(dep.secondary_pos)
    # the totals build_deployment hands CellIndex, summed through the parent table
    on_primary = parent_cells(dep)
    counts = dep.secondary_index_primary_grid.counts
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(on_primary, minlength=dep.primary_grid.cell_count))
    # membership lists agree with each node's secondary cell's parent
    for cell in range(dep.primary_grid.cell_count):
        members = dep.secondary_index_primary_grid.members(cell)
        assert (on_primary[members] == cell).all()


# cell ids whose low 16 bits collide often, alone or under a few high values
LOW_BITS = st.integers(0, 3) | st.integers(0, (1 << 16) - 1)
CELLS_BELOW = st.lists(LOW_BITS, max_size=200).map(lambda c: (c, 1 << 16))
CELLS_ABOVE = st.lists(st.builds(lambda hi, lo: hi << 16 | lo, st.integers(0, 15), LOW_BITS),
                       max_size=200).map(lambda c: (c, 16 << 16))


@settings(max_examples=150, deadline=None)
@given(CELLS_BELOW | CELLS_ABOVE)
@example(([], 1))
@example(([], 16 << 16))
def test_cell_order_equals_stable_argsort(case):
    cells, cell_count = case
    cells = np.array(cells, dtype=np.int64)
    # the cells as keys into a many-to-one uint16 table, as the parent table is
    table = (np.arange(cell_count) // 3 % 17).astype(np.uint16)
    # counting placement a chunk at a time, with one chunk and with many
    for chunk in (deployment.CHUNK, 7):
        with mock.patch.object(deployment, "CHUNK", chunk):
            index = CellIndex(cells, np.bincount(cells, minlength=cell_count))
            via = CellIndex(cells, np.bincount(table[cells], minlength=17), table)
        assert index.order.dtype == via.order.dtype == np.uint32
        assert np.array_equal(index.order, np.argsort(cells, kind="stable"))
        assert np.array_equal(via.order, np.argsort(table[cells], kind="stable"))


def test_build_deployment_fails_early_beyond_physical_memory(monkeypatch):
    def refuse(*args):
        raise AssertionError("a node tier was drawn before the memory check")

    monkeypatch.setattr(deployment, "sample_ppp", refuse)
    cfg = SimConfig(n=2.0**20)
    need = cfg.m * SECONDARY_NODE_BYTES
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert need > have
    with pytest.raises(ConfigurationError) as err:
        build_deployment(cfg)
    assert f"{need / 2**20:.0f} MB" in str(err.value)
    assert f"{have / 2**20:.0f} MB" in str(err.value)


def test_build_deployment_rejects_ids_beyond_int32(monkeypatch):
    def refuse(*args):
        raise AssertionError("a node tier was drawn before the id check")

    monkeypatch.setattr(deployment, "sample_ppp", refuse)
    monkeypatch.setattr(deployment, "SECONDARY_NODE_BYTES", 0)
    with pytest.raises(ConfigurationError, match="int32"):
        build_deployment(SimConfig(n=2.0**16))


def test_build_deployment_rejects_an_empty_secondary_cell(monkeypatch, tmp_path):
    # every node of secondary cell 0 moves one secondary column over, so
    # exactly one cell is empty; the CLI reports the rejection as exit code 2
    cfg = SimConfig(n=64, seed=0)
    _, p_grid = primary_cell_area(cfg.n)
    _, s_grid = secondary_cell_area(cfg.n, cfg.beta, p_grid)
    regenerate = PositionStream.chunks

    def emptied(stream, *args):
        for i, pos in regenerate(stream, *args):
            inside = s_grid.cell_of(pos) == 0
            pos[inside, 0] += 1 / s_grid.side_count
            yield i, pos

    monkeypatch.setattr(PositionStream, "chunks", emptied)
    with pytest.raises(ConfigurationError) as err:
        build_deployment(cfg)
    assert f"1 of {s_grid.cell_count} secondary cells hold no node" in str(err.value)
    assert main(["--n", "64", "--seeds", "1", "--frames", "32", "--warmup", "8",
                 "--out", str(tmp_path / "r.csv")]) == 2


def held_arrays(obj):
    """Every array obj holds, through the deployment's own containers."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (CellIndex, PositionStream)):
            yield from held_arrays(value)


def test_deployment_holds_at_most_12_bytes_per_secondary_node():
    dep = build_deployment(SimConfig(n=256, beta=2.0, seed=0))
    assert sum(a.nbytes for a in held_arrays(dep)) <= 12 * len(dep.secondary_pos)


def test_chunked_build_matches_whole_array_forms(monkeypatch):
    # about 16 k secondary nodes in chunks of 1000: the per-node cells, the
    # counts and the member order equal their whole-array forms
    monkeypatch.setattr(deployment, "CHUNK", 1000)
    dep = build_deployment(SimConfig(n=128, seed=2))
    pos = secondary_positions(dep)
    cells = dep.secondary_grid.cell_of(pos)
    # the narrowest type for 18 * 18 cells
    assert dep.secondary_cells.dtype == np.uint16
    assert np.array_equal(dep.secondary_cells, cells)
    assert np.array_equal(dep.secondary_counts,
                          np.bincount(cells, minlength=dep.secondary_grid.cell_count))
    on_primary = parent_cells(dep)
    assert np.array_equal(dep.secondary_index_primary_grid.order,
                          np.argsort(on_primary, kind="stable"))
    assert np.array_equal(dep.secondary_index_primary_grid.counts,
                          np.bincount(on_primary, minlength=dep.primary_grid.cell_count))


def test_deployment_refinement_consistency(monkeypatch):
    # every member of a primary cell has its secondary cell inside that cell,
    # also a node one ulp below a primary border, which cell_of on its
    # position places in the cell before
    plain = build_deployment(SimConfig(n=100, seed=2))
    for dep in (plain, border_deployment(monkeypatch)):
        k_p, k_s = dep.primary_grid.side_count, dep.secondary_grid.side_count
        q = k_s // k_p
        assert k_s == q * k_p
        index = dep.secondary_index_primary_grid
        sx, sy = np.divmod(dep.secondary_cells[index.order], k_s)
        px, py = np.divmod(np.repeat(np.arange(dep.primary_grid.cell_count), index.counts), k_p)
        assert (sx // q == px).all()
        assert (sy // q == py).all()


def test_occupancy_mean_at_ten_thousand():
    # mean primary occupancy per cell = n * a_p = 1e4/256 = 39.06
    _, grid = primary_cell_area(1e4)
    means = []
    for seed in range(5):
        pos = sample_ppp(1e4, seed)
        counts = np.bincount(grid.cell_of(pos), minlength=grid.cell_count)
        means.append(counts.mean())
    assert np.mean(means) == pytest.approx(39.06, abs=1.0)


def test_occupancy_concentration():
    # fraction of cells within [0.5, 1.5] of the mean, 20 seeds
    _, grid = primary_cell_area(1e4)
    mean = 1e4 * grid.cell_area
    fractions = []
    for seed in range(20):
        pos = sample_ppp(1e4, seed)
        counts = np.bincount(grid.cell_of(pos), minlength=grid.cell_count)
        inside = (counts >= 0.5 * mean) & (counts <= 1.5 * mean)
        fractions.append(inside.mean())
    assert np.mean(fractions) > 0.99


def test_empty_cell_flag_rate():
    _, grid = primary_cell_area(1e4)
    flagged = 0
    for seed in range(100):
        pos = sample_ppp(1e4, seed)
        counts = np.bincount(grid.cell_of(pos), minlength=grid.cell_count)
        flagged += (counts == 0).any()
    assert flagged / 100 < 0.05


def test_occupancy_flags():
    dep = build_deployment(SimConfig(n=100, seed=4))
    occ = cell_occupancy(dep, relay_count=10 ** 9)
    assert occ.any_cell_below_relay_count  # nothing holds a billion relays
    occ = cell_occupancy(dep, relay_count=1)
    assert occ.any_cell_below_relay_count == bool(
        (dep.secondary_index_primary_grid.counts < 1).any()
    )
