"""Experiment sweeps, scaling-law fits, and result emission.

A sweep runs the transport simulation over a grid of (n, ap_scale, seed)
points, averages per-point metrics over seeds, and fits log-log slopes of
each measured quantity against the abscissa its scaling law predicts. Each
law is one row of LAWS, and every slope is expected to be 1.0 against its
composite abscissa; the rows of CONSTANT are the two products the primary
throughput laws hold constant. The delay relation between the tiers is
fitted as a straight line in natural units.
"""

from __future__ import annotations

import csv
import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .deployment import SimConfig, build_deployment, cell_occupancy, rng_streams
from .routing import select_relays
from .scheduler import TICKS
from .transport import RunOptions, TransportSim

__all__ = [
    "CSV_COLUMNS",
    "LAWS",
    "CONSTANT",
    "ExperimentResult",
    "SweepPlan",
    "FitResult",
    "ConstancyResult",
    "LinearFit",
    "FitReport",
    "prepare",
    "run_point",
    "run_sweep",
    "sweep_configs",
    "fit_exponent",
    "fit_line",
    "check_theorems",
    "trace_packet",
    "emit",
    "format_fit_report",
]

# the emitted result columns, in order; each is written as its annotated type
CSV_COLUMNS = (
    "n", "beta", "m", "a_p", "a_s", "k_p", "k_s", "N",
    "lambda_p", "T_p", "D_p", "lambda_s", "T_s", "D_s",
    "min_sinr_primary", "min_sinr_delivery", "min_sinr_secondary",
    "drop_rate", "valid", "seed",
)

WIDE_SPAN_DECADES = 1.5  # fits on a narrower abscissa are flagged, not refused


@dataclass
class ExperimentResult:
    """One run's realized geometry, measured rates and delays, and audit floors."""

    n: float
    beta: float
    alpha: float
    ap_scale: float
    m: float
    a_p: float
    a_s: float
    k_p: int
    k_s: int
    N: int
    lambda_p: float
    T_p: float
    D_p: float
    lambda_s: float
    T_s: float
    D_s: float
    min_sinr_primary: float
    min_sinr_delivery: float
    min_sinr_secondary: float
    drop_rate: float
    valid: bool
    seed: int
    frames: int
    warmup: int
    pairs_p: int
    pairs_s: int
    low_confidence: bool
    capture_fraction: float
    extras: dict = field(default_factory=dict)
    records: list | None = None

    def columns(self) -> dict:
        """The emitted columns, each converted to its annotated type."""
        kinds = typing.get_type_hints(ExperimentResult)
        return {name: kinds[name](getattr(self, name)) for name in CSV_COLUMNS}

    def csv_row(self) -> list:
        return [str(v).lower() if isinstance(v, bool) else str(v)
                for v in self.columns().values()]


@dataclass(frozen=True)
class SweepPlan:
    """Grid of run points; the cross product of n values and ap scales."""

    n_values: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0)
    ap_scale_values: tuple = (1.0,)
    beta: float = 2.0
    alpha: float = 4.0
    noise: float = 1.0
    seeds: int = 5
    seed0: int = 0
    frames: int = 1024
    warmup: int = 256

    def __post_init__(self):
        ns = tuple(self.n_values)
        if not ns:
            raise ValueError("sweep needs at least one n value")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n values must be strictly increasing")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")


def sweep_configs(plan: SweepPlan) -> list[SimConfig]:
    out = []
    for n in plan.n_values:
        for scale in plan.ap_scale_values:
            for s in range(plan.seeds):
                out.append(SimConfig(
                    n=n, beta=plan.beta, alpha=plan.alpha, noise=plan.noise,
                    ap_scale=scale, frames=plan.frames,
                    warmup_frames=plan.warmup, seed=plan.seed0 + s))
    return out


def prepare(config: SimConfig, options: RunOptions | None = None) -> TransportSim:
    """Assemble one run: deployment, relays and the transport sim.

    Relays come from the relay stream of rng_streams and the sim runs on the
    transport stream.
    """
    _, _, g_relays, g_transport = rng_streams(config.seed)
    dep = build_deployment(config)
    relays = select_relays(dep, g_relays)
    return TransportSim(dep, relays, options or RunOptions(), g_transport)


def run_point(config: SimConfig, options: RunOptions | None = None) -> ExperimentResult:
    """Assemble the run, step every frame, measure."""
    sim = prepare(config, options)
    sim.run()
    met = sim.metrics()
    dep = sim.dep
    occ = cell_occupancy(dep, sim.n_relays)
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
        k_p=dep.primary_grid.side_count, k_s=dep.secondary_grid.side_count,
        N=sim.n_relays,
        lambda_p=met["lambda_p"], T_p=met["T_p"], D_p=met["D_p"],
        lambda_s=met["lambda_s"], T_s=met["T_s"], D_s=met["D_s"],
        min_sinr_primary=met["min_sinr_primary"],
        min_sinr_delivery=met["min_sinr_delivery"],
        min_sinr_secondary=met["min_sinr_secondary"],
        drop_rate=met["drop_rate"], valid=valid, seed=config.seed,
        frames=config.frames, warmup=config.warmup_frames,
        pairs_p=sim.n_pairs_p, pairs_s=sim.n_pairs_s,
        low_confidence=met["low_confidence"],
        capture_fraction=sim.relays.secondary_capture_fraction,
        extras=extras,
        records=sim.records if sim.opt.collect_records else None,
    )


def run_sweep(plan: SweepPlan, options: RunOptions | None = None) -> list[ExperimentResult]:
    """Run every point of the plan in deterministic order."""
    return [run_point(c, options) for c in sweep_configs(plan)]


# ======== fitting ========


def fit_exponent(points) -> tuple[float, float, float]:
    """fit_line through (ln x, ln y); residual is the max |log miss|."""
    pts = [(float(x), float(y)) for x, y in points]
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("exponent fit needs positive x and y")
    return fit_line(np.log(pts))


def fit_line(points) -> tuple[float, float, float]:
    """Plain least-squares line in natural units; residual is the max |miss|."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"line fit needs >= 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.abs(y - (slope * x + intercept)).max())
    return float(slope), float(intercept), residual


# one row per exponent fit: name, quantity, abscissa label, the abscissa of a
# seed-averaged group, and whether the fit prefers the fixed-n ap_scale ladder
LAWS = (
    ("lambda_s", "lambda_s", "1/(m*sqrt(a_s))",
     lambda g: 1.0 / (g["m"] * math.sqrt(g["a_s"])), False),
    ("T_s", "T_s", "1/sqrt(a_s)", lambda g: 1.0 / math.sqrt(g["a_s"]), False),
    ("D_s", "D_s", "1/sqrt(a_s)", lambda g: 1.0 / math.sqrt(g["a_s"]), False),
    ("D_s_tradeoff", "D_s", "m*lambda_s", lambda g: g["m"] * g["lambda_s"], True),
    ("lambda_p", "lambda_p", "1/(n*a_p)", lambda g: 1.0 / (g["n"] * g["a_p"]), False),
    ("T_p", "T_p", "1/a_p", lambda g: 1.0 / g["a_p"], False),
    ("D_p", "D_p", "sqrt(m*ln m)/(n*a_p)",
     lambda g: math.sqrt(g["m"] * math.log(g["m"])) / (g["n"] * g["a_p"]), False),
    ("D_p_tradeoff", "D_p", "sqrt(m*ln n)*lambda_p",
     lambda g: math.sqrt(g["m"] * math.log(g["n"])) * g["lambda_p"], False),
)

# the products the primary throughput laws hold constant over n at ap_scale 1
CONSTANT = (
    ("lambda_p*n*a_p", lambda g: g["lambda_p"] * g["n"] * g["a_p"]),
    ("lambda_p*ln n", lambda g: g["lambda_p"] * math.log(g["n"])),
)


@dataclass
class FitResult:
    quantity: str
    abscissa: str
    slope: float
    intercept: float
    residual: float
    points: int
    x_decades: float
    expected: float
    tolerance: float
    verdict: str  # pass | fail | inconclusive

    @property
    def narrow_span(self) -> bool:
        return self.x_decades < WIDE_SPAN_DECADES


@dataclass
class ConstancyResult:
    quantity: str
    ratio: float
    bound: float
    points: int
    verdict: str


@dataclass
class LinearFit:
    slope: float
    intercept: float
    residual: float
    points: int
    slope_band: tuple
    verdict: str


@dataclass
class FitReport:
    fits: dict
    constancy: dict
    linear: LinearFit
    used_runs: int
    total_runs: int

    def failures(self) -> list[str]:
        bad = [k for k, f in self.fits.items() if f.verdict != "pass"]
        bad += [k for k, c in self.constancy.items() if c.verdict != "pass"]
        if self.linear.verdict != "pass":
            bad.append("pdelay_linear")
        return bad

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "fits": {k: vars(f) | {"narrow_span": f.narrow_span}
                     for k, f in self.fits.items()},
            "constancy": {k: vars(c) for k, c in self.constancy.items()},
            "pdelay_linear": vars(self.linear),
            "used_runs": self.used_runs,
            "total_runs": self.total_runs,
            "all_pass": self.all_pass,
        }


def _group_means(results) -> list[dict]:
    """Average metrics over seeds at each (n, beta, alpha, ap_scale) point."""
    groups: dict = {}
    for r in results:
        key = (r.n, r.beta, r.alpha, r.ap_scale, r.frames, r.warmup)
        groups.setdefault(key, []).append(r)
    out = []
    for key in sorted(groups):
        runs = groups[key]
        g = {"n": key[0], "beta": key[1], "alpha": key[2], "ap_scale": key[3],
             "m": runs[0].m, "a_p": runs[0].a_p, "a_s": runs[0].a_s,
             "seeds": len(runs)}
        for q in ("lambda_p", "T_p", "D_p", "lambda_s", "T_s", "D_s"):
            g[q] = float(np.mean([getattr(r, q) for r in runs]))
        out.append(g)
    return out


def _finite_positive(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def check_theorems(results, tolerance_slope: float = 0.15,
                   tolerance_const: float = 2.0) -> FitReport:
    """Fit every scaling law on seed-averaged valid runs and attach verdicts.

    Each row of LAWS is fitted on its composite abscissa, so the expected
    slope is 1.0 everywhere. A row flagged for the ladder (the tradeoff fit
    D_s vs m*lambda_s) uses the fixed-n subgroup with the most ap_scale
    values when it has at least three, since that is the sweep the tradeoff
    describes; otherwise it uses all points. Each row of CONSTANT is checked
    on the ap_scale-1 points. The inter-tier delay relation is fitted in
    natural units with the slope checked against [0.5, 2] x 3/64 and the
    intercept reported as measured. Every check uses only the points whose
    values are finite and positive, and is inconclusive when too few remain.
    """
    usable = [r for r in results if r.valid and not r.low_confidence]
    groups = _group_means(usable)
    nan = float("nan")

    by_n: dict = {}
    for g in groups:
        by_n.setdefault((g["n"], g["beta"]), []).append(g)
    ladder = max(by_n.values(), key=lambda gs: len({g["ap_scale"] for g in gs}),
                 default=[])
    if len({g["ap_scale"] for g in ladder}) < 3:
        ladder = groups

    fits = {}
    for name, quantity, abscissa, x_of, on_ladder in LAWS:
        pts = [(x_of(g), g[quantity]) for g in (ladder if on_ladder else groups)]
        pts = [p for p in pts if _finite_positive(*p)]
        slope = intercept = residual = nan
        decades, verdict = 0.0, "inconclusive"
        if len(pts) >= 3:
            slope, intercept, residual = fit_exponent(pts)
            xs = [x for x, _ in pts]
            decades = math.log10(max(xs) / min(xs))
            verdict = "pass" if abs(slope - 1.0) <= tolerance_slope else "fail"
        fits[name] = FitResult(quantity, abscissa, slope, intercept, residual,
                               len(pts), decades, 1.0, tolerance_slope, verdict)

    constancy = {}
    base = [g for g in groups if g["ap_scale"] == 1.0]
    for name, product in CONSTANT:
        vals = [v for v in map(product, base) if _finite_positive(v)]
        ratio, verdict = nan, "inconclusive"
        if len(vals) >= 2:
            ratio = max(vals) / min(vals)
            verdict = "pass" if ratio < tolerance_const else "fail"
        constancy[name] = ConstancyResult(name, ratio, tolerance_const,
                                          len(vals), verdict)

    pts = [(g["D_s"], g["D_p"]) for g in groups]
    pts = [p for p in pts if _finite_positive(*p)]
    lo, hi = 0.5 * 3 / TICKS, 2.0 * 3 / TICKS
    slope = intercept = residual = nan
    verdict = "inconclusive"
    if len(pts) >= 3:
        slope, intercept, residual = fit_line(pts)
        verdict = "pass" if lo <= slope <= hi else "fail"
    linear = LinearFit(slope, intercept, residual, len(pts), (lo, hi), verdict)

    return FitReport(fits=fits, constancy=constancy, linear=linear,
                     used_runs=len(usable), total_runs=len(results))


# ======== single-packet delay decomposition ========


def trace_packet(config: SimConfig) -> dict:
    """Follow one carried primary packet and split its delay additively.

    Returns the measured primary delay, the secondary-phase delay of its
    bundle (in secondary ticks), and the leftover constant: broadcast slot,
    roster wait, and handoff. The identity D_p = (3/64)*D_s_hat + C holds
    exactly by construction of the stamps.
    """
    sim = prepare(config, RunOptions(audit_frames=0))
    # delivery serves the roster in order, so the first carried packet is the
    # first bundle of the roster the delivering frame started from
    while not sim.delivered_carried and sim.frame < config.frames:
        roster = sim.pending
        sim.step()
    if not sim.delivered_carried:
        raise RuntimeError("no carried primary packet was delivered; run longer")
    b = sim.table[roster[sim.table["delivered"][roster] >= 0][0]]
    born, arrival, delivered = (int(b[name]) for name in ("born", "arrival", "delivered"))
    d_p = 3 * (delivered - born) + 2
    carry_frames = arrival - born
    d_s_hat = TICKS * carry_frames
    c = d_p - (3 / TICKS) * d_s_hat
    lx, ly = divmod(int(sim.dep.secondary_cells[b["lead"]]), sim.k_s)
    ix, iy = divmod(int(sim.pair_int_dest_cell[b["pair"]]), sim.k_s)
    return {
        "D_p": float(d_p),
        "D_s_hat": float(d_s_hat),
        "C": float(c),
        "carry_frames": int(carry_frames),
        "roster_and_admission_frames": int(delivered - arrival),
        # the HV path from the lead relay's cell to the int-dest's, ends included
        "path_cells": abs(ix - lx) + abs(iy - ly) + 1,
        "segments": sim.n_relays,
    }


# ======== emission ========


def format_fit_report(report: FitReport) -> str:
    lines = [f"runs used: {report.used_runs}/{report.total_runs}"]
    for name, f in report.fits.items():
        flag = " [narrow span]" if f.narrow_span else ""
        lines.append(
            f"fit {name} vs {f.abscissa}: slope={f.slope:.4f} "
            f"(expect {f.expected:.2f} +/- {f.tolerance:.2f}), "
            f"residual={f.residual:.4f}, points={f.points}, "
            f"decades={f.x_decades:.2f}{flag} -> {f.verdict}")
    for name, c in report.constancy.items():
        lines.append(
            f"constancy {name}: max/min={c.ratio:.4f} "
            f"(bound {c.bound:.2f}), points={c.points} -> {c.verdict}")
    lf = report.linear
    lines.append(
        f"linear D_p vs D_s: slope={lf.slope:.6f} "
        f"(band [{lf.slope_band[0]:.6f}, {lf.slope_band[1]:.6f}]), "
        f"intercept C={lf.intercept:.3f}, residual={lf.residual:.3f}, "
        f"points={lf.points} -> {lf.verdict}")
    lines.append("overall: " + ("pass" if report.all_pass else
                                "FAIL (" + ", ".join(report.failures()) + ")"))
    return "\n".join(lines)


def emit(results, fit_report: FitReport | None, format: str, path: str) -> None:
    """Write results as CSV (plus a .fit.txt report) or as one JSON document."""
    if not results:
        raise ValueError("no results to emit")
    if format == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for r in results:
                w.writerow(r.csv_row())
        if fit_report is not None:
            with open(path + ".fit.txt", "w") as fh:
                fh.write(format_fit_report(fit_report) + "\n")
    elif format == "json":
        doc = {
            "results": [r.columns() for r in results],
            "fit_report": fit_report.to_dict() if fit_report else None,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
    else:
        raise ValueError(f"unknown format {format!r}, use csv or json")
