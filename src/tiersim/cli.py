"""Command-line sweep driver.

Runs the (n, ap_scale, seed) grid, fits the scaling laws, writes results,
and exits nonzero when a theorem verdict fails (unless --no-verdict).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import typing

from .deployment import ConfigurationError
from .harness import (
    SweepPlan,
    check_theorems,
    emit,
    format_fit_report,
    run_point,
    sweep_configs,
)
from .transport import RunOptions

# keys accepted in a --config file and by the flags of the same name: the
# grids (one value or a list) and the scalar SweepPlan fields with their types
GRID_KEYS = {"n": "n_values", "ap_scale": "ap_scale_values"}
PLAN_KEYS = {name: kind for name, kind in typing.get_type_hints(SweepPlan).items()
             if name not in GRID_KEYS.values()}
CONFIG_KEYS = GRID_KEYS.keys() | PLAN_KEYS.keys()


def _float_list(values) -> tuple:
    out = []
    for v in values:
        for part in str(v).split(","):
            if part:
                out.append(float(part))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tiersim",
        description="Two-tier network scaling sweep: run, fit, verdict.")
    p.add_argument("--n", nargs="+", help="primary densities, e.g. --n 64 128 256")
    p.add_argument("--beta", type=float, help="secondary density exponent (m = n^beta)")
    p.add_argument("--alpha", type=float, help="pathloss exponent")
    p.add_argument("--ap-scale", nargs="+", dest="ap_scale",
                   help="primary cell-area inflation factors, one run grid each")
    p.add_argument("--seeds", type=int, help="seeds per grid point")
    p.add_argument("--seed0", type=int, help="first seed")
    p.add_argument("--frames", type=int, help="frames per run")
    p.add_argument("--warmup", type=int, help="frames dropped before measuring")
    p.add_argument("--out", help="results path (default results.csv)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--trace", help="also write per-packet records to this CSV path")
    p.add_argument("--tolerance-slope", type=float, dest="tolerance_slope",
                   help="allowed deviation of fitted exponents from 1.0")
    p.add_argument("--tolerance-const", type=float, dest="tolerance_const",
                   help="allowed max/min ratio on constancy checks")
    p.add_argument("--no-verdict", action="store_true",
                   help="exit 0 regardless of theorem verdicts")
    p.add_argument("--config", help="JSON file with plan fields; flags override it")
    return p


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _plan_from(args, cfg: dict) -> SweepPlan:
    """The plan from flags over config keys; SweepPlan defaults fill the rest."""
    fields = {}
    for key, name in GRID_KEYS.items():
        raw = getattr(args, key) or cfg.get(key)
        if raw is not None:
            fields[name] = _float_list(raw if isinstance(raw, (list, tuple)) else [raw])
    for key, kind in PLAN_KEYS.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = cfg.get(key)
        if raw is not None:
            fields[key] = kind(raw)
    return SweepPlan(**fields)


def _write_trace(records, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "tier", "creation_slot", "delivery_slot",
                    "path_length", "segments"))
        for r in records:
            w.writerow((r.packet_id, r.tier, r.creation, r.delivery,
                        r.path_length, r.segments))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        plan = _plan_from(args, cfg)
        options = RunOptions(collect_records=bool(args.trace))
        results, records = [], []
        for config in sweep_configs(plan):
            r = run_point(config, options)
            print(f"ran n={config.n:g} ap_scale={config.ap_scale:g} "
                  f"seed={config.seed}: lambda_p={r.lambda_p:.3e} "
                  f"D_p={r.D_p:.1f} lambda_s={r.lambda_s:.3e} D_s={r.D_s:.1f}",
                  file=sys.stderr)
            results.append(r)
            if r.records:
                records.extend(r.records)
        tolerances = {k: getattr(args, k) for k in ("tolerance_slope", "tolerance_const")
                      if getattr(args, k) is not None}
        report = check_theorems(results, **tolerances)
        out = args.out or "results.csv"
        fmt = args.format or "csv"
        emit(results, report, fmt, out)
        if args.trace:
            _write_trace(records, args.trace)
        print(format_fit_report(report))
        print(f"results written to {out}")
        if args.no_verdict:
            return 0
        return 0 if report.all_pass else 1
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
