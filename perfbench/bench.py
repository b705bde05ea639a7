"""Workloads, the timed run assembly, correctness checks and end-to-end metrics.

Each workload is a ``SweepPlan`` built from the benchmark seed; tiersim sees
only that plan and the ``SimConfig`` points it expands to. A repetition runs
every point of the plan through the same public calls ``run_point`` makes,
in the same RNG stream order, with set-up and every ``TransportSim.step``
timed, and then fits the scaling laws with ``check_theorems`` as a sweep
does. Nothing here is imported by tiersim; ``src/`` is measured as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import tiersim
from tiersim import (
    ExperimentResult,
    RunOptions,
    SimConfig,
    SweepPlan,
    TransportSim,
    build_deployment,
    cell_occupancy,
    check_theorems,
    relay_count,
    select_relays,
    sweep_configs,
)

ROOT = Path(__file__).resolve().parent.parent

# Plan fields per workload; README.md gives the reason for each. Two seeds
# are pooled where one deployment leaves too few undelivered packets for a
# steady fraction: one ladder leaves about 20, all at ap_scale 2, and one
# n = 1024 point's stranded count varies by a fifth from seed to seed.
WORKLOADS = {
    "point_n1024": dict(n_values=(1024.0,), seeds=2, frames=2048, warmup=256),
    "ladder_n1024": dict(n_values=(1024.0,), ap_scale_values=(2.0, 4.0, 8.0, 16.0),
                         seeds=2, frames=512, warmup=128),
}

# name -> (unit, better); every one is reported by an untraced run
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_frames_per_s": ("1/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "frame_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "undelivered_p_frac": ("ratio", "lower"),
}

# candidate tail percentiles in basis points, highest first
TAIL_BP = (9999, 9990, 9950, 9900, 9500, 9000, 7500, 5000)
TAIL_MIN_BEYOND = 10


def plan_for(workload: str, seed: int) -> SweepPlan:
    """The workload's plan; distinct seeds give disjoint deployment seeds."""
    fields = WORKLOADS[workload]
    return SweepPlan(seed0=seed * fields["seeds"], **fields)


# ======== one point, assembled as run_point assembles it ========


@dataclass
class PointRun:
    result: ExperimentResult
    setup_s: float        # build_deployment + select_relays + TransportSim(...)
    step_s: np.ndarray    # host seconds of every step() call
    undelivered_p: int    # dropped_p + bundles in flight + pending roster
    injected_p: int
    failures: list


def run_point_timed(config: SimConfig, options: RunOptions | None = None) -> PointRun:
    """``run_point`` with set-up and every frame timed."""
    options = options or RunOptions()
    t0 = time.perf_counter()
    dep = build_deployment(config)
    gens = np.random.default_rng(config.seed).spawn(4)
    relays = select_relays(dep, gens[2])
    n_seg = relay_count(config.m)
    t1 = time.perf_counter()
    occ = cell_occupancy(dep, n_seg)
    t2 = time.perf_counter()
    sim = TransportSim(dep, relays, options, gens[3])
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    step_s = []
    while sim.frame < config.frames:
        a = time.perf_counter()
        sim.step()
        step_s.append(time.perf_counter() - a)
    met = sim.metrics()
    result = experiment_result(config, dep, relays, occ, sim, met, n_seg, options)
    return PointRun(result, setup_s, np.array(step_s), undelivered_p(sim),
                    sim.injected_p, point_failures(sim, met))


def experiment_result(config, dep, relays, occ, sim, met, n_seg, options) -> ExperimentResult:
    """The record ``run_point`` returns, from the pieces it builds."""
    valid = met["drop_rate"] <= 0.01 and not occ.any_empty_primary_cell
    extras = {k: met[k] for k in (
        "delivered_secondary", "delivered_carried", "delivered_direct",
        "pending_wait", "census_max", "packet_size_factor",
        "segment_gap_within_frame", "segment_gap_max", "audit_samples")}
    extras.update(
        any_empty_primary_cell=occ.any_empty_primary_cell,
        any_empty_secondary_cell=occ.any_empty_secondary_cell,
        any_cell_below_relay_count=occ.any_cell_below_relay_count,
        occupied_primary_cells=int((occ.primary_per_primary_cell > 0).sum()),
    )
    return ExperimentResult(
        n=config.n, beta=config.beta, alpha=config.alpha, ap_scale=config.ap_scale,
        m=config.m, a_p=dep.primary_grid.cell_area, a_s=dep.secondary_grid.cell_area,
        k_p=dep.primary_grid.side_count, k_s=dep.secondary_grid.side_count, N=n_seg,
        lambda_p=met["lambda_p"], T_p=met["T_p"], D_p=met["D_p"],
        lambda_s=met["lambda_s"], T_s=met["T_s"], D_s=met["D_s"],
        min_sinr_primary=met["min_sinr_primary"],
        min_sinr_delivery=met["min_sinr_delivery"],
        min_sinr_secondary=met["min_sinr_secondary"],
        drop_rate=met["drop_rate"], valid=valid, seed=config.seed,
        frames=config.frames, warmup=config.warmup_frames,
        pairs_p=sim.n_pairs_p, pairs_s=sim.n_pairs_s,
        low_confidence=met["low_confidence"],
        capture_fraction=relays.secondary_capture_fraction,
        extras=extras,
        records=sim.records if options.collect_records else None,
    )


def undelivered_p(sim: TransportSim) -> int:
    return sim.dropped_p + len(sim.bundles) + len(sim.pending)


def point_failures(sim: TransportSim, met: dict) -> list[str]:
    """Correctness checks on one finished run, from public counters only.

    ``valid`` is not checked: a run that strands traffic may be reported
    invalid without the benchmark counting it as failed.
    """
    out = []
    alive_s = int(sim.cnt.sum())
    if sim.injected_s != sim.delivered_s + alive_s:
        out.append(f"secondary conservation: injected {sim.injected_s} != "
                   f"delivered {sim.delivered_s} + alive {alive_s}")
    accounted = (sim.delivered_direct + sim.delivered_carried + sim.dropped_p
                 + len(sim.bundles) + len(sim.pending))
    if sim.injected_p != accounted:
        out.append(f"primary conservation: injected {sim.injected_p} != accounted {accounted}")
    for key in ("lambda_p", "lambda_s", "D_p", "D_s"):
        v = float(met[key])
        if not (math.isfinite(v) and v > 0):
            out.append(f"{key} = {v!r} is not finite and positive")
    for cat, samples in met["audit_samples"].items():
        floor = float(met[f"min_sinr_{cat}"])
        if samples and not (math.isfinite(floor) and floor > 0):
            out.append(f"audit floor {cat} = {floor!r} over {samples} samples")
    return out


# ======== one repetition of a workload ========


@dataclass
class Rep:
    wall_s: float
    setup_s: float
    step_s: np.ndarray
    undelivered_p: int
    injected_p: int
    digest: str
    valid: list
    failures: list
    peak_rss_mb: float    # process peak so far, read when the repetition ends


def run_workload(plan: SweepPlan) -> Rep:
    """Every point of the plan, then the fit, as ``run_sweep`` + ``check_theorems``."""
    t0 = time.perf_counter()
    runs = [run_point_timed(c) for c in sweep_configs(plan)]
    results = [r.result for r in runs]
    check_theorems(results)
    wall = time.perf_counter() - t0
    failures = [f"seed {r.result.seed} ap_scale {r.result.ap_scale}: {f}"
                for r in runs for f in r.failures]
    return Rep(
        wall_s=wall,
        setup_s=sum(r.setup_s for r in runs),
        step_s=np.concatenate([r.step_s for r in runs]),
        undelivered_p=sum(r.undelivered_p for r in runs),
        injected_p=sum(r.injected_p for r in runs),
        digest=results_digest(results),
        valid=[bool(r.valid) for r in results],
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def warm_up() -> None:
    """One tiny run so that first-call costs do not land in the first repetition."""
    run_point_timed(SimConfig(n=64.0, frames=64, warmup_frames=16, seed=0))


# ======== digest of the simulated metrics ========


def _canon(v):
    if isinstance(v, dict):
        return {str(k): _canon(v[k]) for k in sorted(v)}
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    return v


def results_digest(results) -> str:
    """Hash of every field of every result, floats bit-exact."""
    rows = []
    for r in results:
        row = asdict(r)
        row.pop("records")
        rows.append(_canon(row))
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


# ======== statistics ========


def tail_percentile(samples) -> tuple[float, float, int]:
    """Highest percentile of ``TAIL_BP`` with at least ten samples beyond it.

    Uses the nearest rank: the p-th percentile of N sorted samples is the
    ceil(p N / 100)-th smallest. Returns (percentile, value, samples beyond).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    for bp in TAIL_BP:
        rank = -(-bp * n // 10000)
        if n - rank >= TAIL_MIN_BEYOND:
            return bp / 100, float(xs[rank - 1]), n - rank
    raise ValueError(f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median")


def end_to_end(reps: list[Rep]) -> tuple[dict, dict]:
    """The end-to-end metrics, timings as medians over repetitions, and details.

    Peak RSS is read after the first repetition, so it is the peak of a fresh
    process that ran the workload once; later repetitions can only add
    allocator leftovers of the earlier ones.
    """
    med = statistics.median
    tails = [tail_percentile(r.step_s * 1e3) for r in reps]
    values = {
        "wall_s": med(r.wall_s for r in reps),
        "setup_s": med(r.setup_s for r in reps),
        "sim_frames_per_s": med(len(r.step_s) / float(r.step_s.sum()) for r in reps),
        "frame_ms_p50": med(float(np.median(r.step_s)) * 1e3 for r in reps),
        "frame_ms_tail": med(t[1] for t in tails),
        "peak_rss_mb": reps[0].peak_rss_mb,
        "undelivered_p_frac": reps[0].undelivered_p / reps[0].injected_p,
    }
    details = {
        "reps": len(reps),
        "frames_per_rep": len(reps[0].step_s),
        "tail_percentile": tails[0][0],
        "tail_beyond": tails[0][2],
        "undelivered_p": reps[0].undelivered_p,
        "injected_p": reps[0].injected_p,
        "valid": reps[0].valid,
        "digest": reps[0].digest,
    }
    return values, details


# ======== environment ========


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path = ROOT) -> str:
    """Hash of the tiersim sources, which names the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "tiersim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tiersim": tiersim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": source_digest(),
        "blas": blas_name,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
    }
