"""Sweep driver, fits, planted self-test, emission, and the CLI."""

import csv
import json
import math

import numpy as np
import pytest

from planted_results import planted_results
from tiersim.cli import main
from tiersim.deployment import ConfigurationError, SimConfig
from tiersim.harness import (
    CSV_COLUMNS,
    SweepPlan,
    check_theorems,
    emit,
    fit_exponent,
    fit_line,
    format_fit_report,
    run_point,
    sweep_configs,
    trace_packet,
)
from tiersim.transport import RunOptions


# ======== fitting primitives ========


def test_fit_exponent_recovers_power_law():
    pts = [(x, 3.0 * x**2) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
    slope, intercept, residual = fit_exponent(pts)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12
    assert residual < 1e-12


def test_fit_exponent_negative_exponent():
    pts = [(x, 5.0 / math.sqrt(x)) for x in (1.0, 3.0, 9.0, 27.0)]
    slope, _, _ = fit_exponent(pts)
    assert abs(slope + 0.5) < 1e-12


def test_fit_exponent_input_guards():
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0), (2.0, 2.0), (3.0, -1.0)])
    with pytest.raises(ValueError):
        fit_exponent([(0.0, 1.0), (2.0, 2.0), (3.0, 1.0)])


def test_fit_line_exact():
    pts = [(x, 2.0 * x + 7.0) for x in (0.0, 1.0, 5.0, 9.0)]
    slope, intercept, residual = fit_line(pts)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - 7.0) < 1e-12
    assert residual < 1e-12
    with pytest.raises(ValueError):
        fit_line(pts[:2])


# ======== planted data drive every fit to a known answer ========


def test_planted_results_pass_all_exponent_fits():
    report = check_theorems(planted_results())
    assert report.used_runs == report.total_runs == 5
    assert len(report.fits) == 8
    for name, f in report.fits.items():
        assert f.verdict == "pass", name
        assert abs(f.slope - 1.0) < 1e-9, name
        assert f.residual < 1e-9, name
    for name, c in report.constancy.items():
        assert c.verdict == "pass", name
        assert abs(c.ratio - 1.0) < 1e-9, name
    # the inter-tier line is left out of the plant: exact power laws admit
    # no affine offset, so only its presence is checked here
    assert report.linear is not None
    assert report.linear.points == 5


def test_check_theorems_skips_invalid_and_shaky_runs():
    results = planted_results()
    results[0].valid = False
    results[1].low_confidence = True
    report = check_theorems(results)
    assert report.total_runs == 5
    assert report.used_runs == 3
    for f in report.fits.values():
        assert f.points == 3
        assert f.verdict == "pass"


def test_check_theorems_inconclusive_when_starved():
    report = check_theorems(planted_results(n_values=(64, 128)))
    for f in report.fits.values():
        assert f.verdict == "inconclusive"
    assert not report.all_pass
    assert "pdelay_linear" in report.failures()


def test_narrow_span_flagged_not_failed():
    # 64..1024 spans 1.2 decades in n, under the 1.5-decade comfort line
    report = check_theorems(planted_results())
    f = report.fits["lambda_p"]
    assert f.narrow_span
    assert f.verdict == "pass"
    assert "[narrow span]" in format_fit_report(report)


def test_format_fit_report_carries_verdicts():
    report = check_theorems(planted_results())
    text = format_fit_report(report)
    assert "runs used: 5/5" in text
    assert text.count("-> pass") >= 10
    assert "linear D_p vs D_s" in text


def _forced_fail():
    # D_p tilted by n**0.3 fails both D_p fits; a unit bound fails constancy
    results = planted_results()
    for r in results:
        r.D_p *= r.n ** 0.3
    return check_theorems(results, tolerance_const=1.0)


PINNED_REPORTS = {
    "planted": (lambda: check_theorems(planted_results()), """\
runs used: 5/5
fit lambda_s vs 1/(m*sqrt(a_s)): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.32 [narrow span] -> pass
fit T_s vs 1/sqrt(a_s): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit D_s vs 1/sqrt(a_s): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit D_s_tradeoff vs m*lambda_s: slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit lambda_p vs 1/(n*a_p): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=0.22 [narrow span] -> pass
fit T_p vs 1/a_p: slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=0.98 [narrow span] -> pass
fit D_p vs sqrt(m*ln m)/(n*a_p): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit D_p_tradeoff vs sqrt(m*ln n)*lambda_p: slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
constancy lambda_p*n*a_p: max/min=1.0000 (bound 2.00), points=5 -> pass
constancy lambda_p*ln n: max/min=1.0000 (bound 2.00), points=5 -> pass
linear D_p vs D_s: slope=1.414214 (band [0.023438, 0.093750]), intercept C=-0.000, residual=0.000, points=5 -> fail
overall: FAIL (pdelay_linear)"""),
    "inconclusive": (lambda: check_theorems(planted_results(n_values=(64, 128))), """\
runs used: 2/2
fit lambda_s vs 1/(m*sqrt(a_s)): slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit T_s vs 1/sqrt(a_s): slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit D_s vs 1/sqrt(a_s): slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit D_s_tradeoff vs m*lambda_s: slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit lambda_p vs 1/(n*a_p): slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit T_p vs 1/a_p: slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit D_p vs sqrt(m*ln m)/(n*a_p): slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
fit D_p_tradeoff vs sqrt(m*ln n)*lambda_p: slope=nan (expect 1.00 +/- 0.15), residual=nan, points=2, decades=0.00 [narrow span] -> inconclusive
constancy lambda_p*n*a_p: max/min=1.0000 (bound 2.00), points=2 -> pass
constancy lambda_p*ln n: max/min=1.0000 (bound 2.00), points=2 -> pass
linear D_p vs D_s: slope=nan (band [0.023438, 0.093750]), intercept C=nan, residual=nan, points=2 -> inconclusive
overall: FAIL (lambda_s, T_s, D_s, D_s_tradeoff, lambda_p, T_p, D_p, D_p_tradeoff, pdelay_linear)"""),
    "forced_fail": (_forced_fail, """\
runs used: 5/5
fit lambda_s vs 1/(m*sqrt(a_s)): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.32 [narrow span] -> pass
fit T_s vs 1/sqrt(a_s): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit D_s vs 1/sqrt(a_s): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit D_s_tradeoff vs m*lambda_s: slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=1.09 [narrow span] -> pass
fit lambda_p vs 1/(n*a_p): slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=0.22 [narrow span] -> pass
fit T_p vs 1/a_p: slope=1.0000 (expect 1.00 +/- 0.15), residual=0.0000, points=5, decades=0.98 [narrow span] -> pass
fit D_p vs sqrt(m*ln m)/(n*a_p): slope=1.3303 (expect 1.00 +/- 0.15), residual=0.0028, points=5, decades=1.09 [narrow span] -> fail
fit D_p_tradeoff vs sqrt(m*ln n)*lambda_p: slope=1.3303 (expect 1.00 +/- 0.15), residual=0.0028, points=5, decades=1.09 [narrow span] -> fail
constancy lambda_p*n*a_p: max/min=1.0000 (bound 1.00), points=5 -> fail
constancy lambda_p*ln n: max/min=1.0000 (bound 1.00), points=5 -> fail
linear D_p vs D_s: slope=11.987826 (band [0.023438, 0.093750]), intercept C=-189.354, residual=97.453, points=5 -> fail
overall: FAIL (D_p, D_p_tradeoff, lambda_p*n*a_p, lambda_p*ln n, pdelay_linear)"""),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_fit_report_text_and_keys_are_pinned(case):
    make, text = PINNED_REPORTS[case]
    report = make()
    assert format_fit_report(report) == text
    doc = report.to_dict()
    assert list(doc) == ["fits", "constancy", "pdelay_linear",
                         "used_runs", "total_runs", "all_pass"]
    assert list(doc["fits"]) == ["lambda_s", "T_s", "D_s", "D_s_tradeoff",
                                 "lambda_p", "T_p", "D_p", "D_p_tradeoff"]
    for f in doc["fits"].values():
        assert list(f) == ["quantity", "abscissa", "slope", "intercept", "residual",
                           "points", "x_decades", "expected", "tolerance",
                           "verdict", "narrow_span"]
    assert list(doc["constancy"]) == ["lambda_p*n*a_p", "lambda_p*ln n"]
    for c in doc["constancy"].values():
        assert list(c) == ["quantity", "ratio", "bound", "points", "verdict"]
    assert list(doc["pdelay_linear"]) == ["slope", "intercept", "residual",
                                          "points", "slope_band", "verdict"]
    json.dumps(doc)  # the report must stay JSON-serialisable


def test_non_finite_values_are_filtered_per_check():
    results = planted_results()
    results[0].D_s = float("nan")
    report = check_theorems(results)
    for name, f in report.fits.items():
        assert f.points == (4 if name in ("D_s", "D_s_tradeoff") else 5), name
        assert f.verdict == "pass", name
    for c in report.constancy.values():
        assert c.points == 5
    assert report.linear.points == 4


# ======== sweep plan and runner ========


def test_sweep_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(n_values=())
    with pytest.raises(ValueError):
        SweepPlan(n_values=(128, 64))
    with pytest.raises(ValueError):
        SweepPlan(n_values=(64,), seeds=0)


def test_sweep_configs_cross_product_order():
    plan = SweepPlan(n_values=(64.0, 100.0), ap_scale_values=(1.0, 2.0),
                     seeds=2, seed0=7, frames=64, warmup=16)
    configs = sweep_configs(plan)
    assert len(configs) == 8
    assert [c.n for c in configs] == [64.0] * 4 + [100.0] * 4
    assert [c.ap_scale for c in configs[:4]] == [1.0, 1.0, 2.0, 2.0]
    assert [c.seed for c in configs[:4]] == [7, 8, 7, 8]
    assert all(c.frames == 64 and c.warmup_frames == 16 for c in configs)


@pytest.mark.parametrize("frames", [96, 34], ids=["carried", "none_carried"])
def test_run_point_is_deterministic(frames):
    # 34 frames carry no packet after warmup, so pending_wait is nan
    cfg = SimConfig(n=100.0, frames=frames, warmup_frames=32, seed=3)
    a = run_point(cfg)
    b = run_point(cfg)
    assert a.csv_row() == b.csv_row()
    # repr, as nan != nan; repr round-trips every float
    assert repr(a.extras) == repr(b.extras)


def test_run_point_carries_geometry_and_measures():
    cfg = SimConfig(n=100.0, frames=96, warmup_frames=32, seed=0)
    r = run_point(cfg)
    assert (r.k_p, r.k_s, r.N) == (3, 18, 32)
    assert r.m == 1e4
    assert r.lambda_p > 0
    assert r.D_p >= 5
    assert r.drop_rate == 0.0
    assert r.valid
    assert 0 < r.capture_fraction <= 1


def test_run_point_rejects_undersized_network():
    # n = 8 cannot host even a 2x2 broadcast grid
    with pytest.raises(ConfigurationError):
        run_point(SimConfig(n=8.0, frames=32, warmup_frames=8, seed=0))


# ======== the per-packet delay decomposition ========


def test_trace_packet_identity():
    cfg = SimConfig(n=100.0, frames=96, warmup_frames=0, seed=0)
    t = trace_packet(cfg)
    assert t["segments"] == 32
    assert t["D_s_hat"] % 64 == 0
    assert t["D_s_hat"] == 64 * t["carry_frames"]
    # the leftover is the roster wait plus the handoff tail of the last slot
    assert t["D_p"] == (3 / 64) * t["D_s_hat"] + t["C"]
    assert t["roster_and_admission_frames"] >= 1
    assert t["C"] == 3 * t["roster_and_admission_frames"] + 2
    assert t["C"] >= 5


def test_trace_packet_needs_a_delivery():
    cfg = SimConfig(n=100.0, frames=2, warmup_frames=0, seed=0)
    with pytest.raises(RuntimeError):
        trace_packet(cfg)


# ======== emission ========


def test_emit_csv_round_trip(tmp_path):
    results = planted_results()
    report = check_theorems(results)
    out = tmp_path / "results.csv"
    emit(results, report, "csv", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(results)
    first = dict(zip(rows[0], rows[1]))
    assert float(first["n"]) == results[0].n
    assert float(first["lambda_p"]) == results[0].lambda_p
    assert first["valid"] == "true"
    assert first["N"] == str(results[0].N)
    fit_text = (tmp_path / "results.csv.fit.txt").read_text()
    # planted data passes every power-law fit but not the affine delay line
    assert "overall: FAIL (pdelay_linear)" in fit_text


def test_emit_json_document(tmp_path):
    results = planted_results()
    report = check_theorems(results)
    out = tmp_path / "results.json"
    emit(results, report, "json", str(out))
    doc = json.loads(out.read_text())
    assert len(doc["results"]) == len(results)
    assert doc["results"][0]["k_p"] == results[0].k_p
    assert doc["fit_report"]["all_pass"] is False  # the linear check is real
    assert set(doc["fit_report"]["fits"]) == set(report.fits)


def test_emit_guards(tmp_path):
    with pytest.raises(ValueError):
        emit([], None, "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit(planted_results(), None, "yaml", str(tmp_path / "x.yaml"))


# ======== command line ========


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_single_point_sweep(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli(["--n", "100", "--seeds", "1", "--frames", "64",
                    "--warmup", "16", "--out", out, "--no-verdict"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert (tmp_path / "r.csv.fit.txt").exists()


def test_cli_verdict_gates_exit_code(tmp_path):
    # one grid point cannot support any fit, so the verdict must fail
    args = ["--n", "100", "--seeds", "1", "--frames", "64",
            "--warmup", "16", "--out", tmp_path / "r.csv"]
    assert run_cli(args) == 1
    assert run_cli(args + ["--no-verdict"]) == 0


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(
        {"n": [100], "seeds": 2, "frames": 64, "warmup": 16}))
    out = tmp_path / "r.csv"
    code = run_cli(["--config", cfg, "--seeds", "1",
                    "--out", out, "--no-verdict"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # the --seeds flag overrode the config's 2
    assert float(dict(zip(rows[0], rows[1]))["n"]) == 100.0


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "plan.json"
    for unknown in ({"bogus": 1}, {"warmup_frames": 16}, {"power_const": 1.0}):
        cfg.write_text(json.dumps({"n": [100], **unknown}))
        assert run_cli(["--config", cfg]) == 2


def test_cli_rejects_non_object_config(tmp_path):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    assert run_cli(["--config", cfg]) == 2


def test_cli_rejects_undersized_n(tmp_path):
    code = run_cli(["--n", "8", "--seeds", "1", "--frames", "32",
                    "--warmup", "8", "--out", tmp_path / "r.csv"])
    assert code == 2


def test_cli_trace_output(tmp_path):
    out = tmp_path / "r.csv"
    trace = tmp_path / "trace.csv"
    code = run_cli(["--n", "100", "--seeds", "1", "--frames", "64",
                    "--warmup", "16", "--out", out, "--trace", trace,
                    "--no-verdict"])
    assert code == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "tier", "creation_slot", "delivery_slot",
                       "path_length", "segments"]
    assert len(rows) > 10
    tiers = {r[1] for r in rows[1:]}
    assert tiers <= {"primary", "secondary"}
    for r in rows[1:]:
        assert int(r[3]) > int(r[2])
