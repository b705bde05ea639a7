"""End-to-end acceptance battery at desk scale.

One test per criterion, each printing a single PASS/FAIL line (run with -s
to see them). The shared sweep covers n in {64..1024} at five seeds plus an
ap_scale ladder at the top density; expect a few minutes on one core.
Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from capture_law import TAIL_LEVEL, capture_pool
from planted_results import planted_results
from region_reference import rect_regions
from sent_cells import watch_sent_cells
from tiersim.deployment import SimConfig
from tiersim.harness import (
    SweepPlan,
    check_theorems,
    prepare,
    run_sweep,
    trace_packet,
)
from tiersim.scheduler import PHASES, slot_offsets
from tiersim.transport import RunOptions

N_GRID = (64.0, 128.0, 256.0, 512.0, 1024.0)
AP_GRID = (2.0, 4.0, 8.0, 16.0)   # swept at the top density, where k_p stays >= 2
SEEDS = 5
SEED0 = 0
FRAMES = 3072
WARMUP = 512
SLOPE_TOL = 0.15
CONST_BOUND = 2.0
CAPTURE_SEEDS = 20


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep():
    base = SweepPlan(n_values=N_GRID, seeds=SEEDS, seed0=SEED0,
                     frames=FRAMES, warmup=WARMUP)
    ladder = SweepPlan(n_values=(N_GRID[-1],), ap_scale_values=AP_GRID,
                       seeds=SEEDS, seed0=SEED0, frames=FRAMES, warmup=WARMUP)
    results = run_sweep(base) + run_sweep(ladder)
    report = check_theorems(results, tolerance_slope=SLOPE_TOL,
                            tolerance_const=CONST_BOUND)
    return results, report


def base_grid_runs(results):
    by_n = {}
    for r in results:
        if r.ap_scale == 1.0:
            by_n.setdefault(r.n, []).append(r)
    return dict(sorted(by_n.items()))


def test_01_secondary_delay_scaling(sweep):
    _, report = sweep
    f = report.fits["D_s"]
    ok = f.verdict == "pass"
    verdict(1, ok, f"D_s vs 1/sqrt(a_s) slope {f.slope:.4f} "
                   f"(1.0 +/- {SLOPE_TOL}), {f.points} points")
    assert ok


def test_02_secondary_delay_throughput_tradeoff(sweep):
    _, report = sweep
    f = report.fits["D_s_tradeoff"]
    ok = f.verdict == "pass" and f.points >= 3
    verdict(2, ok, f"D_s vs m*lambda_s slope {f.slope:.4f} "
                   f"(1.0 +/- {SLOPE_TOL}) over {f.points} ap_scale points")
    assert ok


def test_03_primary_throughput_constancy(sweep):
    _, report = sweep
    area = report.constancy["lambda_p*n*a_p"]
    log = report.constancy["lambda_p*ln n"]
    ok = area.verdict == "pass" and log.verdict == "pass"
    verdict(3, ok, f"lambda_p*n*a_p ratio {area.ratio:.4f}, "
                   f"lambda_p*ln n ratio {log.ratio:.4f} (bound {CONST_BOUND})")
    assert ok


def test_04_primary_delay_scaling(sweep):
    _, report = sweep
    f = report.fits["D_p"]
    ok = f.verdict == "pass"
    verdict(4, ok, f"D_p vs sqrt(m ln m)/(n a_p) slope {f.slope:.4f} "
                   f"(1.0 +/- {SLOPE_TOL}), {f.points} points")
    assert ok


def test_05_inter_tier_delay_relation(sweep):
    _, report = sweep
    lf = report.linear
    trace = trace_packet(SimConfig(n=256.0, frames=384, warmup_frames=64,
                                   seed=SEED0))
    # additive holds by construction: trace_packet defines C as
    # D_p - (3/64) D_s_hat from one bundle's frame stamps, which leaves
    # C = 3 (delivered - arrival) + 2, and _deliver serves only bundles that
    # arrived before its frame, so C >= 5. Only the linear fit can fail.
    additive = (trace["D_p"] == (3 / 64) * trace["D_s_hat"] + trace["C"]
                and trace["C"] >= 5)
    ok = lf.verdict == "pass" and additive
    verdict(5, ok, f"D_p vs D_s slope {lf.slope:.6f} in "
                   f"[{lf.slope_band[0]:.6f}, {lf.slope_band[1]:.6f}], "
                   f"fit intercept {lf.intercept:.2f} (reported), "
                   f"traced packet C {trace['C']:.0f}")
    assert ok


@pytest.fixture(scope="module")
def capture_pools():
    return {n: capture_pool(n, range(SEED0, SEED0 + CAPTURE_SEEDS))
            for n in N_GRID}


def test_06_relay_capture_bound(capture_pools):
    # The bound is held to the relay rule's expected capture fraction on
    # these deployments; the drawn relays are tested against their exact
    # law. The realized fraction is reported only: with ~1.3 uncaptured
    # cells expected per n, it falls to the bound in 12-20% of seed sets.
    lines = []
    ok = True
    for n, pool in capture_pools.items():
        cfg = SimConfig(n=n)
        bound = 1 - 2 * n / cfg.m
        tail = pool.tail
        ok = ok and pool.expected_fraction > bound and tail > TAIL_LEVEL
        captured = pool.cells - pool.uncaptured
        lines.append(f"n={n:.0f} {captured}/{pool.cells}="
                     f"{pool.realized_fraction:.5f}"
                     f"{'>' if pool.realized_fraction > bound else '<='}"
                     f"{bound:.5f} expected {pool.expected_fraction:.5f} "
                     f"P(X>={pool.uncaptured})={tail:.3g}")
    verdict(6, ok, "; ".join(lines) + f" (tail level {TAIL_LEVEL:g})")
    assert ok


def primary_weighted(weight):
    """Relay rule where a primary node counts weight times a secondary one."""
    return lambda n_c, m_c: weight * n_c / (weight * n_c + m_c)


def tier_coin(p_primary):
    """Relay rule that picks the tier by coin, forced where a tier is absent."""
    return lambda n_c, m_c: np.where(
        m_c == 0, 1.0, np.where(n_c == 0, 0.0, p_primary(n_c, m_c)))


RIVAL_RULES = {
    "equal tiers": tier_coin(lambda n_c, m_c: 0.5),
    "swapped tier weights": tier_coin(lambda n_c, m_c: m_c / (n_c + m_c)),
}


def draw_uncaptured(pool, rule, rng, draws=1):
    """Uncaptured counts of relays drawn by a rival rule on the pool's cells."""
    p = rule(pool.n_c, pool.m_c)
    return (rng.random((draws, pool.cells)) < p).sum(axis=1)


def test_06_capture_check_rejects_rival_rules(capture_pools):
    rng = np.random.default_rng(SEED0)
    for n, pool in capture_pools.items():
        for name, rule in RIVAL_RULES.items():
            x = int(draw_uncaptured(pool, rule, rng)[0])
            assert pool.tail_law[x] <= TAIL_LEVEL, (
                f"n={n:.0f} {name}: {x} uncaptured")


def test_06_capture_check_power_against_primary_weighting(capture_pools):
    # eight-fold primary weighting is rejected in 73-88% of draws per n
    rng = np.random.default_rng(SEED0)
    for n, pool in capture_pools.items():
        x = draw_uncaptured(pool, primary_weighted(8.0), rng, draws=2000)
        power = float(np.mean(pool.tail_law[x] <= TAIL_LEVEL))
        assert power > 0.5, f"n={n:.0f} power {power:.3f}"


def test_07_audited_rate_floors(sweep):
    results, _ = sweep
    by_n = base_grid_runs(results)
    rates = {"primary": [], "delivery": [], "secondary": []}
    for n, runs in by_n.items():
        rates["primary"].append(min(r.min_sinr_primary for r in runs))
        rates["delivery"].append(min(r.min_sinr_delivery for r in runs))
        rates["secondary"].append(min(r.min_sinr_secondary for r in runs))
    ratios = {}
    positive = True
    for cat, floors in rates.items():
        positive = positive and all(s > 0 for s in floors)
        vals = [math.log2(1 + s) for s in floors]
        ratios[cat] = max(vals) / min(vals)
    # the bound covers the broadcast receptions and the region handovers;
    # the relay-to-relay floor rides along as a reported extra
    ok = positive and ratios["primary"] < 2.0 and ratios["delivery"] < 2.0
    verdict(7, ok, f"min-rate ratios across n: primary {ratios['primary']:.3f}, "
                   f"delivery {ratios['delivery']:.3f} (bound 2.0), "
                   f"relay-to-relay {ratios['secondary']:.3f} (reported)")
    assert ok


def test_08_no_transmission_inside_preservation_regions(monkeypatch):
    cfg = SimConfig(n=128.0, frames=224, warmup_frames=128, seed=SEED0)
    # every cell sent from in the 64 audited frames after warmup
    sim = prepare(cfg, RunOptions(audit_frames=64))
    sent_cells = watch_sent_cells(sim, monkeypatch)
    sim.run()
    sent = sent_cells()
    dep = sim.dep
    assert len(sent) > 1000

    # recompute the forbidden rectangles from the pair table alone
    src_cells = np.unique(dep.primary_cells[sim.pairs_p[:, 0]])
    sigma = slot_offsets(dep.primary_grid.side_count)
    k_s = dep.secondary_grid.side_count
    rects_by_phase = {}
    violations = checked = 0
    for t, cell in sent:
        phase = t % PHASES
        if phase not in rects_by_phase:
            active = src_cells[sigma[src_cells] == phase]
            rects_by_phase[phase] = rect_regions(active, dep.primary_grid,
                                                 dep.secondary_grid)
        checked += bool(rects_by_phase[phase])
        cx, cy = cell // k_s, cell % k_s
        for x0, x1, y0, y1 in rects_by_phase[phase]:
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                violations += 1
    # the window must hold sends from phases with a region, or the check is vacuous
    assert checked > 0
    ok = violations == 0
    verdict(8, ok, f"{violations} forbidden transmissions in "
                   f"{len(sent)} logged over 64 frames")
    assert ok


def test_09_conservation_and_reassembly():
    cfg = SimConfig(n=128.0, frames=224, warmup_frames=0, seed=SEED0)
    sim = prepare(cfg, RunOptions(collect_records=True))
    sim.run()  # per-frame balance asserts hold on every step of every run
    conserved = (
        sim.injected_s == sim.delivered_s + int(sim.cnt.sum())
        and sim.injected_p == (sim.delivered_direct + sim.delivered_carried
                               + sim.dropped_p + len(sim.bundles)
                               + len(sim.pending)))
    carried = [r for r in sim.records if r.tier == "primary" and r.segments]
    # whole holds by construction: _deliver stamps every carried record with
    # n_relays segments, as a bundle's segments ride one path together; the
    # balance is also asserted by every step.
    whole = all(r.segments == sim.n_relays for r in carried)
    ok = conserved and whole and len(carried) > 0
    verdict(9, ok, f"balance exact over {cfg.frames} frames; "
                   f"{len(carried)} carried packets all reassembled from "
                   f"{sim.n_relays} segments")
    assert ok


def test_10_planted_data_self_test():
    report = check_theorems(planted_results())
    fit_ok = all(f.verdict == "pass" for f in report.fits.values())
    residual = max(f.residual for f in report.fits.values())
    const_ok = all(abs(c.ratio - 1.0) < 1e-9 and c.verdict == "pass"
                   for c in report.constancy.values())
    # the affine delay relation is checked on live data only; exact power
    # laws leave it no offset to fit
    ok = fit_ok and const_ok and residual < 1e-10
    verdict(10, ok, f"{len(report.fits)} planted fits recover slope 1.0, "
                    f"max residual {residual:.2e}")
    assert ok


def test_11_segment_synchrony(sweep):
    results, _ = sweep
    fractions = [r.extras["segment_gap_within_frame"] for r in results
                 if r.valid]
    worst_gap = max(r.extras["segment_gap_max"] for r in results if r.valid)
    ok = len(fractions) == len(results) and min(fractions) >= 0.99
    verdict(11, ok, f"within-frame arrival fraction >= {min(fractions):.4f} "
                    f"per run ({len(fractions)} runs), max gap {worst_gap} ticks")
    assert ok
