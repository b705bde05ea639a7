"""Run one tiersim benchmark workload and print its metrics.

From the root of a tiersim checkout:

    python3 perfbench/run.py --workload point_n1024 --seed 0 --seconds 40 --trace 0

Workloads: point_n1024, ladder_n1024 (see perfbench/README.md).
The simulator is imported from ``src/`` of the checkout and runs in this one
process with BLAS limited to one thread.

With ``--trace 0`` the workload is repeated, untraced, while a further
repetition is expected to end within ``--seconds`` (at least one runs), and
the end-to-end metrics are reported, timings as medians over repetitions.
With ``--trace 1`` a traced ``run_sweep`` + ``check_theorems`` of the same
plan is followed by one untraced repetition, and the per-module metrics are
reported. Every repetition is checked for correctness, and all
repetitions must produce bit-identical simulated metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show each metric with its unit, the digest of the simulated metrics and the
environment. A copy of the result, and in traced runs the spans, is written
under ``.bench_out/``. Exit code 0 when every check passed, 1 when one
failed, 2 when the checkout holds no tiersim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("point_n1024", "ladder_n1024")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(bench, plan, seconds):
    """Untraced repetitions; returns (reps, attempted, failed, failure messages)."""
    reps, errors, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        attempted += 1
        try:
            rep = bench.run_workload(plan)
        except Exception:
            traceback.print_exc()
            rep_errors = [f"repetition {attempted} raised"]
        else:
            reps.append(rep)
            rep_errors = list(rep.failures)
            if rep.digest != reps[0].digest:
                rep_errors.append(f"repetition {attempted} digest {rep.digest} "
                                  f"!= {reps[0].digest}")
        failed += bool(rep_errors)
        errors += rep_errors
        elapsed = time.perf_counter() - start
        if not reps or elapsed + elapsed / attempted > seconds:
            return reps, attempted, failed, errors


def measure_traced(bench, spans, plan):
    """A warm-up point, then one traced and one untraced repetition.

    The warm-up runs the plan's first point untimed, because the first
    full-size run in a process pays for page faults that later ones do not;
    without it, whichever repetition came first would carry that cost.
    Returns (metrics, spans, details, failure messages).
    """
    from tiersim import harness, sweep_configs

    errors = list(bench.run_point_timed(sweep_configs(plan)[0]).failures)
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with spans.traced(tracer):
        results = harness.run_sweep(plan)
        harness.check_theorems(results)
    traced_wall = time.perf_counter() - t0
    untraced = bench.run_workload(plan)
    errors += untraced.failures

    digest = bench.results_digest(results)
    if digest != untraced.digest:
        errors.append(f"traced digest {digest} != untraced {untraced.digest}")
    for s in tracer.spans:
        if s.name == "transport.metrics":
            errors += s.info["failures"]
    metrics = spans.layer_metrics(tracer.spans, traced_wall - untraced.wall_s)
    residual = spans.step_residual(tracer.spans)
    if abs(residual) > 1e-6:
        errors.append(f"self times inside step() miss the step total by {residual:.3g} s")
    return metrics, tracer.spans, {"step_residual_s": residual,
                                   "traced_wall_s": traced_wall,
                                   "untraced_wall_s": untraced.wall_s,
                                   "digest": digest}, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tiersim" / "__init__.py").is_file():
        print(f"error: no tiersim sources at {src / 'tiersim'}; "
              "run from the root of a tiersim checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench
    import spans

    plan = bench.plan_for(args.workload, args.seed)
    env = bench.environment()
    bench.warm_up()
    if args.trace:
        try:
            values, span_list, details, errors = measure_traced(bench, spans, plan)
        except Exception:
            traceback.print_exc()
            values, span_list, details, errors = {}, [], {}, ["traced run raised"]
        attempted, failed = 1, int(bool(errors))
        units = spans.PER_LAYER
    else:
        reps, attempted, failed, errors = measure(bench, plan, args.seconds)
        values, details = bench.end_to_end(reps) if reps else ({}, {})
        units = bench.END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"plan {plan}")
    for name, (unit, better) in units.items():
        if name in values:
            print(f"  {name:32s} {values[name]:>16.6g} {unit:6s} ({better} is better)")
    if "tail_percentile" in details:
        print(f"  {'frame_ms_tail':32s} is p{details['tail_percentile']:g} of "
              f"{details['frames_per_rep']} frames per repetition, "
              f"{details['tail_beyond']} beyond it, median over {details['reps']} repetitions")
        print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} ratio  "
              f"({failed} of {attempted} repetitions)")
        print(f"  valid (reported, not a failure): {details['valid']}")
    if "step_residual_s" in details:
        print(f"  step() total minus the self times inside it: "
              f"{details['step_residual_s']:.3g} s")
    for e in errors:
        print(f"  FAILED CHECK: {e}")
    if details.get("digest"):
        print(f"digest {args.workload} seed {args.seed} {details['digest']}")
    print("env " + json.dumps(env, sort_keys=True))

    correct = not errors and bool(values)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in units.items() if name in values},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "details": details, "errors": errors,
                   "environment": env, "plan": repr(plan)}, fh, indent=1)
    if args.trace:
        spans.dump(span_list, OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
