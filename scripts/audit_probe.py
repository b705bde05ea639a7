"""Time the SINR audit per frame, on one helper thread and on all CPUs.

    PYTHONPATH=src python3 scripts/audit_probe.py --n 1024 --seed 0 --ap-scale 1

Builds the same run twice with harness.prepare, once with
deployment.WORKERS patched to 1 and once at its default (the CPUs this
process may run on; taskset limits them), so set-up runs at the same count,
and steps each through its SINR audit window. It times every call of
TransportSim._audit_frame, and of the secondary-hop stage inside it,
TransportSim._audit_hops, and prints one JSON line per worker count, in
ms: the median over the audited frames of each, and the median and p99.5
(nearest rank) of _audit_frame over the frames that audit a broadcast.
It asserts that both runs end with equal RateReports, since the worker
count may never change a number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from tiersim import deployment, harness  # noqa: E402
from tiersim.deployment import SimConfig  # noqa: E402
from tiersim.transport import RunOptions  # noqa: E402


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(cfg: SimConfig, options: RunOptions, workers: int):
    """The run's RateReport, (ms, audits a broadcast) per audited frame, and
    the ms of _audit_hops per audited frame."""
    deployment.WORKERS = workers
    sim = harness.prepare(cfg, options)
    audit, audit_hops = sim._audit_frame, sim._audit_hops
    frames, hops = [], []

    def timed(*args):
        before = sim._audited_broadcasts
        t0 = time.perf_counter()
        audit(*args)
        frames.append(((time.perf_counter() - t0) * 1e3, sim._audited_broadcasts > before))

    def timed_hops(*args):
        t0 = time.perf_counter()
        audit_hops(*args)
        hops.append((time.perf_counter() - t0) * 1e3)

    sim._audit_frame, sim._audit_hops = timed, timed_hops
    sim.run()
    return sim.report, frames, hops


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=float, default=1024.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ap-scale", type=float, default=1.0)
    ap.add_argument("--warmup", type=int, default=256)
    ap.add_argument("--audit-frames", type=int, default=512)
    args = ap.parse_args()
    # the run ends with its audit window: frames after it call no audit
    cfg = SimConfig(n=args.n, frames=args.warmup + args.audit_frames,
                    warmup_frames=args.warmup, seed=args.seed, ap_scale=args.ap_scale)
    options = RunOptions(audit_frames=args.audit_frames)
    reports = []
    for workers in (1, deployment.WORKERS):
        report, frames, hops = timed_run(cfg, options, workers)
        reports.append(report)
        broadcast = [ms for ms, took in frames if took]
        print(json.dumps({
            "n": args.n, "seed": args.seed, "ap_scale": args.ap_scale,
            "audit_workers": workers,
            "audit_frames": len(frames), "broadcast_frames": len(broadcast),
            "audit_frame_ms_p50": round(float(np.median([ms for ms, _ in frames])), 3),
            "audit_hops_ms_p50": round(float(np.median(hops)), 4),
            "broadcast_frame_ms_p50": round(nearest_rank(broadcast, 0.5), 3)
            if broadcast else None,
            "broadcast_frame_ms_p99_5": round(nearest_rank(broadcast, 0.995), 3)
            if broadcast else None,
            "audit_s": round(sum(ms for ms, _ in frames) / 1e3, 3),
        }))
    assert reports[0] == reports[1], "the worker count changed the audit"


if __name__ == "__main__":
    main()
