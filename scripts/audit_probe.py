"""Time the broadcast SINR audit per frame, on one helper thread and on all CPUs.

    PYTHONPATH=src python3 scripts/audit_probe.py --n 1024 --seed 0

Builds the same run twice with harness.prepare, once with
transport.AUDIT_WORKERS patched to 1 and once at its default (the CPUs this
process may run on; taskset limits them), and steps each through its SINR
audit window. It times every call of TransportSim._audit_frame and prints
one JSON line per worker count: the median over the audited frames, and
the median and p99.5 (nearest rank) over the frames that audit a
broadcast, in ms.
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

from tiersim import harness, transport  # noqa: E402
from tiersim.deployment import SimConfig  # noqa: E402
from tiersim.transport import RunOptions  # noqa: E402


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(cfg: SimConfig, options: RunOptions, workers: int):
    """The run's RateReport, and (ms, audits a broadcast) per audited frame."""
    transport.AUDIT_WORKERS = workers
    sim = harness.prepare(cfg, options)
    audit = sim._audit_frame
    frames = []

    def timed(*args):
        before = sim._audited_broadcasts
        t0 = time.perf_counter()
        audit(*args)
        frames.append(((time.perf_counter() - t0) * 1e3, sim._audited_broadcasts > before))

    sim._audit_frame = timed
    sim.run()
    return sim.report, frames


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=float, default=1024.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=256)
    ap.add_argument("--audit-frames", type=int, default=512)
    args = ap.parse_args()
    # the run ends with its audit window: frames after it call no audit
    cfg = SimConfig(n=args.n, frames=args.warmup + args.audit_frames,
                    warmup_frames=args.warmup, seed=args.seed)
    options = RunOptions(audit_frames=args.audit_frames)
    reports = []
    for workers in (1, transport.AUDIT_WORKERS):
        report, frames = timed_run(cfg, options, workers)
        reports.append(report)
        broadcast = [ms for ms, took in frames if took]
        print(json.dumps({
            "n": args.n, "seed": args.seed, "audit_workers": workers,
            "audit_frames": len(frames), "broadcast_frames": len(broadcast),
            "audit_frame_ms_p50": round(float(np.median([ms for ms, _ in frames])), 3),
            "broadcast_frame_ms_p50": round(nearest_rank(broadcast, 0.5), 3)
            if broadcast else None,
            "broadcast_frame_ms_p99_5": round(nearest_rank(broadcast, 0.995), 3)
            if broadcast else None,
            "audit_s": round(sum(ms for ms, _ in frames) / 1e3, 3),
        }))
    assert reports[0] == reports[1], "the worker count changed the audit"


if __name__ == "__main__":
    main()
