"""Random two-tier deployment on the unit square.

Primary nodes arrive as a Poisson point process of density n, secondary
nodes as an independent PPP of density m = n**beta. Each tier gets a square
cell grid sized from its density, with the secondary grid an exact
refinement of the primary one. Primary nodes are matched into directed
source-destination pairs by a random draw; secondary node 2i sends to node
2i + 1, a uniform random matching in law, since positions are i.i.d. in id
order.

Set-up's O(m) node passes (the cell pass and the member index here, the
relay pick and the path census in routing, the position pass in transport)
and transport's broadcast audit share one thread pool. Each splits its work
into at most WORKERS contiguous runs, one per CPU the process may run on
(taskset limits them), the first on the calling thread and the others on the
pool. A run writes only its own slice or returns integer counts to be
summed, and a pass that carries per-cell counts from chunk to chunk starts
each run at the counts of the runs before it, so no result depends on the
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "SimConfig",
    "CellGrid",
    "Deployment",
    "OccupancyReport",
    "PositionStream",
    "sample_ppp",
    "primary_cell_area",
    "secondary_cell_area",
    "pair_sd",
    "cell_occupancy",
    "rng_streams",
    "build_deployment",
]

PRIMARY = "primary"
SECONDARY = "secondary"


class ConfigurationError(ValueError):
    """A density / cell-size combination the protocol cannot operate at."""


# ======== configuration ========


@dataclass(frozen=True)
class SimConfig:
    """One experiment point. m = n**beta is always derived, never stored."""

    n: float
    beta: float = 2.0
    alpha: float = 4.0
    noise: float = 1.0
    ap_scale: float = 1.0
    frames: int = 512
    warmup_frames: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n > 1.0:
            raise ConfigurationError(f"n must exceed 1, got {self.n}")
        if not self.beta >= 2.0:
            raise ConfigurationError(f"beta must be >= 2, got {self.beta}")
        if not self.alpha > 2.0:
            raise ConfigurationError(f"alpha must exceed 2, got {self.alpha}")
        if self.noise < 0.0:
            raise ConfigurationError("noise must be nonnegative")
        if not self.ap_scale >= 1.0:
            raise ConfigurationError(f"ap_scale must be >= 1, got {self.ap_scale}")
        if self.frames <= 0:
            raise ConfigurationError("frames must be positive")
        if not 0 <= self.warmup_frames < self.frames:
            raise ConfigurationError("warmup_frames must lie in [0, frames)")

    @property
    def m(self) -> float:
        return self.n ** self.beta


# ======== grids ========


@dataclass(frozen=True)
class CellGrid:
    """Square tessellation of the unit square into side_count**2 cells.

    Cells are indexed flat as cx * side_count + cy with cx the column
    (x axis) and cy the row (y axis).
    """

    side_count: int

    def __post_init__(self) -> None:
        if self.side_count < 1:
            raise ConfigurationError("side_count must be positive")

    @property
    def cell_area(self) -> float:
        return 1.0 / (self.side_count * self.side_count)

    @property
    def cell_count(self) -> int:
        return self.side_count * self.side_count

    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell index for each (x, y) row; points on 1.0 clip inward."""
        k = self.side_count
        # float64 -> int32 converts about 3x faster than -> int64; the flat
        # index is formed in int64
        ij = (positions * k).astype(np.int32)
        np.minimum(ij, k - 1, out=ij)
        return ij[:, 0] * np.int64(k) + ij[:, 1]

    def center(self, cell: int | np.ndarray) -> tuple:
        """(x, y) of a cell's centre, or of each cell's for an array of cells."""
        cx, cy = divmod(cell, self.side_count)
        w = 1.0 / self.side_count
        return ((cx + 0.5) * w, (cy + 0.5) * w)


def primary_cell_area(n: float, ap_scale: float = 1.0) -> tuple[float, CellGrid]:
    """Target primary cell area ap_scale*2*ln(n)/n and the realized grid.

    The side count is the largest multiple of 8 whose cells still meet the
    target, so 8x8 slot clusters tile exactly. Below side count 8 (small n)
    the plain floor is used instead; fewer than 2 cells per side leaves no
    room for multi-cell routing and is rejected.
    """
    if n <= math.e:
        raise ConfigurationError(f"n must exceed e for a valid cell target, got {n}")
    if ap_scale < 1.0:
        raise ConfigurationError("ap_scale must be >= 1")
    target = ap_scale * 2.0 * math.log(n) / n
    if target >= 1.0:
        raise ConfigurationError(f"cell target {target:.4g} covers the whole square")
    inv = 1.0 / math.sqrt(target)
    if inv >= 8.0:
        k = 8 * int(inv / 8.0)
    else:
        k = int(inv)
        if k < 2:
            raise ConfigurationError(
                f"n={n} admits only {k} cell(s) per side; need at least 2"
            )
    return target, CellGrid(side_count=k)


def secondary_cell_area(n: float, beta: float, primary: CellGrid) -> tuple[float, CellGrid]:
    """Secondary cell target beta^2 n^2 a_p^2 / (2 m ln m) and realized grid.

    a_p is the realized primary grid's cell area 1/k_p^2. The secondary side
    count is q*k_p with q = floor(sqrt(a_p/target)), so every secondary cell
    nests inside exactly one primary cell.
    """
    m = n ** beta
    if m <= math.e:
        raise ConfigurationError(f"m={m} too small for a secondary grid")
    a_p, k_p = primary.cell_area, primary.side_count
    target = beta * beta * n * n * a_p * a_p / (2.0 * m * math.log(m))
    q = int(math.sqrt(a_p / target))
    if q < 1:
        raise ConfigurationError(
            "secondary cells would be coarser than primary cells"
        )
    return target, CellGrid(side_count=q * k_p)


# ======== nodes ========


def sample_ppp(density: float, seed) -> np.ndarray:
    """Positions of a PPP of the given density on the unit square.

    Returns an (N, 2) array with N ~ Poisson(density). `seed` may be an
    integer or a numpy Generator; a fixed integer seed reproduces the set.
    """
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    count = rng.poisson(density)
    return rng.random((count, 2))


def pair_sd(count: int, seed) -> np.ndarray:
    """Uniform perfect matching of node indices into directed S-D pairs, for
    the primary tier (the secondary tier is paired by id, in TransportSim).

    Returns an (P, 2) int32 array of (source, destination) index pairs. With
    an odd count one uniformly random node stays unpaired; with fewer than 2
    nodes the pairing is empty.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if count < 2:
        return np.empty((0, 2), dtype=np.int32)
    # shuffling int32 ids draws what permutation(count) draws, without its
    # int64 copy
    perm = np.arange(count, dtype=np.int32)
    rng.shuffle(perm)
    half = count // 2
    # pair i is (perm[i], perm[half + i]): a transposed view, not a stacked copy
    return perm[: 2 * half].reshape(2, half).T


# ======== deployment ========

# peak RSS per secondary node, rounded up: the rise from n = 4096 to 8192
# (143.1 to 695.2 MB) over the rise in m (16.78 M to 67.12 M) is 11.5 B, from
# scripts/setup_probe.py at seed 0. The sizes the check can reject hold their
# cells as uint32; with uint16 cells (k_s <= 256) the rise is about 6 B
SECONDARY_NODE_BYTES = 12
# node ids are held as int32 and uint32; the margin is 20+ standard
# deviations of the Poisson node count
ID_LIMIT = 2**31 - 2**20
# nodes or pairs in flight at once, over all workers together, where an O(m)
# temporary would otherwise form
CHUNK = 1 << 16
# the CPUs this process may run on (taskset limits them)
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pool: ThreadPoolExecutor | None = None
_pool_pid = -1


def worker_pool() -> ThreadPoolExecutor:
    """The WORKERS - 1 helper threads of set-up and of the broadcast audit,
    made on first use and made again in a forked child, which has none of them."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="tiersim")
        _pool_pid = os.getpid()
    return _pool


def on_workers(fn, runs: list) -> list:
    """[fn(*run) for run in runs], the first run on the calling thread and the
    others on worker_pool(). It returns, or raises the first error, only once
    every run is done, so no pool thread still works on the caller's arrays."""
    helpers = [worker_pool().submit(fn, *run) for run in runs[1:]]
    try:
        first = fn(*runs[0])
    finally:
        wait(helpers)
    return [first] + [helper.result() for helper in helpers]


def node_ranges(count: int, cells: int = 0, chunk: int | None = None) -> tuple[int, list]:
    """A pass over count nodes (or pairs) as at most WORKERS contiguous ranges
    of whole chunks, one per worker. A chunk is max(chunk // WORKERS, cells)
    nodes (chunk defaults to CHUNK), so the workers hold about chunk nodes at
    once between them, and a pass that also costs O(cells) per chunk spends
    no more on that than on its nodes. Such a pass also holds O(cells) per
    worker, so it takes no more workers than keep that to max(chunk,
    count / 4) between them. Returns the chunk size and each range's
    (first, end), in order."""
    chunk = chunk or CHUNK
    step = max(chunk // WORKERS, cells, 1)
    runs = max(1, min(WORKERS, max(chunk, count // 4) // step))
    chunks = -(-count // step)
    span = step * max(1, -(-chunks // runs))
    return step, [(i, min(i + span, count)) for i in range(0, count, span)] or [(0, 0)]


def range_cursors(cells_of, ranges: list, step: int, start: np.ndarray) -> np.ndarray:
    """For a pass that carries a per-cell cursor from chunk to chunk, each
    range's cursor at its first node: start plus the nodes of each cell in
    the ranges before it, one row per range. cells_of(i, j) gives the cells
    of nodes i..j - 1; the counts are taken a chunk at a time."""
    def count(first, end):
        here = np.zeros(len(start), dtype=np.int64)
        for i in range(first, end, step):
            here += np.bincount(cells_of(i, i + step), minlength=len(start))
        return here

    # the last range's counts move no cursor
    before = on_workers(count, ranges[:-1]) if len(ranges) > 1 else []
    return np.cumsum([start] + before, axis=0)


def resume(state: dict) -> np.random.Generator:
    """A generator that continues a stream from a saved bit-generator state."""
    bit_generator = getattr(np.random, state["bit_generator"])(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class PositionStream:
    """A PPP's node positions, regenerated from the stream that drew them.

    Node i is the pair of doubles 2i, 2i+1 that the stream draws after the
    node count, as sample_ppp draws them, so only the stream's state at that
    point is held. chunks() reads every node in one pass; take() reads a few
    at one stream advance each.
    """

    def __init__(self, density: float, rng: np.random.Generator):
        self.count = int(rng.poisson(density))
        self.state = rng.bit_generator.state
        # take()'s generator, reset on each call: a new one costs more than
        # the few advances a take makes
        self._reader = resume(self.state)
        # leave the stream where sample_ppp would have left it
        rng.bit_generator.advance(2 * self.count)

    def __len__(self) -> int:
        return self.count

    def chunks(self, size: int | None = None, first: int = 0, end: int | None = None):
        """(first id, positions) of consecutive runs of size (default CHUNK)
        nodes, in id order, over the nodes first..end - 1 (default all)."""
        size = size or CHUNK
        end = self.count if end is None else end
        rng = resume(self.state)
        rng.bit_generator.advance(2 * first)
        for i in range(first, end, size):
            yield i, rng.random((min(size, end - i), 2))

    def take(self, ids) -> np.ndarray:
        """Positions of the nodes ids, (len(ids), 2)."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty((len(ids), 2))
        rng = self._reader
        rng.bit_generator.state = self.state
        at = 0  # the node the stream stands at; it only moves forward
        for j in np.argsort(ids, kind="stable").tolist():
            i = int(ids[j])
            if i >= at:  # a repeated id keeps the position just drawn
                rng.bit_generator.advance(2 * (i - at))
                pos = rng.random(2)
                at = i + 1
            out[j] = pos
        return out


class CellIndex:
    """Node ids (uint32) grouped by cell, in node-id order within each cell.

    counts holds the nodes per cell, which the caller already has. Node i's
    cell is keys[i], or table[keys[i]] when a table is given: it is looked up
    a chunk at a time, so no per-node array of cells forms.
    """

    def __init__(self, keys: np.ndarray, counts: np.ndarray, table: np.ndarray | None = None):
        self.counts = counts
        self.starts = np.concatenate([[0], np.cumsum(counts)])
        self.order = np.empty(len(keys), dtype=np.uint32)
        step, ranges = node_ranges(len(keys), len(counts))

        def cells_of(i, j):
            return keys[i:j] if table is None else np.take(table, keys[i:j])

        def place(first, end, cursor):
            # np.argsort(cells, kind="stable") placed a chunk at a time: a
            # chunk's members of a cell go after those of the chunks before it
            for i in range(first, end, step):
                chunk = cells_of(i, i + step)
                here = np.bincount(chunk, minlength=len(counts))
                by = np.argsort(chunk, kind="stable")  # numpy radix-sorts uint16 keys
                shift = cursor - (np.cumsum(here) - here)
                self.order[np.take(shift, np.take(chunk, by)) + np.arange(len(by))] = by + i
                cursor += here

        cursors = range_cursors(cells_of, ranges, step, self.starts[:-1])
        on_workers(place, [(*r, cursor) for r, cursor in zip(ranges, cursors)])

    def members(self, cell: int) -> np.ndarray:
        return self.order[self.starts[cell] : self.starts[cell + 1]]


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of one sampled network.

    The secondary tier holds about 6 B per node: its cell on the secondary
    grid (the narrowest unsigned type that holds every cell, uint16 up to
    k_s = 256) and its entry in the member order of the primary grid
    (uint32), where its cell is the parent of its secondary cell.
    Positions are regenerated from the deployment stream (secondary_pos).
    Secondary pairs are not held: pair i is the nodes (2i, 2i + 1).
    """

    config: SimConfig
    primary_grid: CellGrid
    secondary_grid: CellGrid
    primary_pos: np.ndarray
    secondary_pos: PositionStream
    primary_pairs: np.ndarray
    # flat cell index per node, on each grid that matters for its tier
    primary_cells: np.ndarray = field(repr=False)
    secondary_cells: np.ndarray = field(repr=False)
    primary_counts: np.ndarray = field(repr=False)  # nodes per primary cell
    secondary_counts: np.ndarray = field(repr=False)  # nodes per secondary cell
    secondary_index_primary_grid: CellIndex = field(repr=False)


@dataclass(frozen=True)
class OccupancyReport:
    """Primary nodes per primary cell plus connectivity flags (flags, not failures)."""

    primary_per_primary_cell: np.ndarray
    any_empty_primary_cell: bool
    any_empty_secondary_cell: bool  # always False: build_deployment rejects one
    any_cell_below_relay_count: bool


def rng_streams(seed: int) -> list[np.random.Generator]:
    """A run's four independent streams: deployment, pairing, relays, transport.

    Every number of a run is drawn from one of these, so their order fixes
    the run at a given seed.
    """
    return np.random.default_rng(seed).spawn(4)


def build_deployment(config: SimConfig) -> Deployment:
    """Sample both tiers, build both grids, and pair the primary tier.

    Deterministic in config.seed: positions come from the deployment stream
    and pairs from the pairing stream of rng_streams. Raises
    ConfigurationError when a secondary cell holds no node: the protocol
    needs a relay in every secondary cell.
    """
    g_deploy, g_pairs, _, _ = rng_streams(config.seed)

    _, p_grid = primary_cell_area(config.n, config.ap_scale)
    _, s_grid = secondary_cell_area(config.n, config.beta, p_grid)
    need = config.m * SECONDARY_NODE_BYTES
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"m={config.m:.4g} secondary nodes need about {need / 2**20:.0f} MB "
            f"at set-up, more than the {have / 2**20:.0f} MB of physical memory")
    if config.m > ID_LIMIT:
        raise ConfigurationError(f"m={config.m:.4g} secondary nodes overflow int32 node ids")

    primary_pos = sample_ppp(config.n, g_deploy)
    secondary_pos = PositionStream(config.m, g_deploy)
    primary_pairs = pair_sd(len(primary_pos), g_pairs)

    primary_cells = p_grid.cell_of(primary_pos)
    # every secondary node's cell, a chunk of positions at a time; a pass
    # also costs O(cells)
    secondary_cells = np.empty(len(secondary_pos),
                               dtype=np.min_scalar_type(s_grid.cell_count - 1))
    step, ranges = node_ranges(len(secondary_pos), s_grid.cell_count)

    def place(first, end):
        counts = np.zeros(s_grid.cell_count, dtype=np.int64)
        for i, pos in secondary_pos.chunks(step, first, end):
            cells = s_grid.cell_of(pos)
            secondary_cells[i : i + len(pos)] = cells
            counts += np.bincount(cells, minlength=s_grid.cell_count)
        return counts

    secondary_counts = sum(on_workers(place, ranges))
    empty = int((secondary_counts == 0).sum())
    if empty:
        raise ConfigurationError(
            f"{empty} of {s_grid.cell_count} secondary cells hold no node "
            f"(mean {len(secondary_pos) / s_grid.cell_count:.3g} per cell); "
            "every secondary cell needs a relay")
    # a secondary node's primary cell is its secondary cell's parent, the
    # primary cell holding that cell's centre (k_p**2 fits uint16 below
    # ID_LIMIT, so the member order is radix-sorted)
    parent = p_grid.cell_of(
        np.column_stack(s_grid.center(np.arange(s_grid.cell_count)))).astype(np.uint16)
    # secondary nodes per primary cell; float sums are exact below 2**53
    on_primary = np.bincount(parent, weights=secondary_counts,
                             minlength=p_grid.cell_count).astype(np.int64)

    return Deployment(
        config=config,
        primary_grid=p_grid,
        secondary_grid=s_grid,
        primary_pos=primary_pos,
        secondary_pos=secondary_pos,
        primary_pairs=primary_pairs,
        primary_cells=primary_cells,
        secondary_cells=secondary_cells,
        primary_counts=np.bincount(primary_cells, minlength=p_grid.cell_count),
        secondary_counts=secondary_counts,
        secondary_index_primary_grid=CellIndex(secondary_cells, on_primary, parent),
    )


def cell_occupancy(deployment: Deployment, relay_count: int = 1) -> OccupancyReport:
    """Per-cell counts and the empty / thin-cell flags.

    relay_count is the per-packet relay requirement N; a primary cell with
    fewer secondary nodes than that cannot host a full segment bundle.
    """
    prim = deployment.primary_counts
    sec_on_prim = deployment.secondary_index_primary_grid.counts
    sec = deployment.secondary_counts
    return OccupancyReport(
        primary_per_primary_cell=prim,
        any_empty_primary_cell=bool((prim == 0).any()),
        any_empty_secondary_cell=bool((sec == 0).any()),
        any_cell_below_relay_count=bool((sec_on_prim < relay_count).any()),
    )
