"""Time one run's set-up at a large n and report its peak memory.

    PYTHONPATH=src python3 scripts/setup_probe.py --n 4096 --seed 0

Builds one run with harness.prepare (deployment, relays, TransportSim),
steps it for --frames frames, and prints one JSON line: workers (the
threads set-up's node passes split over, deployment.WORKERS: the CPUs this
process may run on, so taskset -c 0 gives 1), setup_s (host seconds of
prepare), peak_rss_mb (ru_maxrss of this process when the frames
are done), the peak so far after each set-up layer (peak_rss_mb_after:
build_deployment, select_relays, TransportSim), the node counts, the fewest
secondary nodes in a secondary cell (build_deployment rejects 0), the bytes
per secondary node that the deployment holds for the whole run, and a
digest of the set-up state (primary pair paths and int-dest cells, relay tiers
and relays, the capture fraction, primary cell counts, secondary cell
orders, census maximum) that must not change when set-up is only made
faster or smaller. Run one size per process, so that each peak is its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from tiersim import deployment, harness  # noqa: E402
from tiersim.deployment import SimConfig  # noqa: E402


def peak_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def peak_after(layers: dict, name: str, fn):
    """fn, recording the peak RSS in layers[name] when it returns."""
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        layers[name] = peak_mb()
        return out
    return call


def setup_digest(sim) -> str:
    h = hashlib.sha256()
    dep = sim.dep
    for a in (sim.pair_path_len, sim.pair_direct, sim.pair_relay_cell, sim.pair_int_dest_cell,
              sim.relays.primary_relay_is_secondary, sim.relays.secondary_relay,
              dep.primary_counts):
        h.update(memoryview(a))
    h.update(repr(sim.relays.secondary_capture_fraction).encode())
    # the cell orders are hashed as int64, the form they had when the digest
    # was fixed, a slice at a time; the secondary-grid order is not held by
    # the deployment, so it is derived here
    for order in (np.argsort(dep.secondary_cells, kind="stable"),
                  dep.secondary_index_primary_grid.order):
        for i in range(0, len(order), 1 << 20):
            h.update(memoryview(order[i : i + (1 << 20)].astype(np.int64)))
    h.update(str(sim.census_max).encode())
    return h.hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--frames", type=int, default=64)
    args = ap.parse_args()
    cfg = SimConfig(n=args.n, frames=args.frames, warmup_frames=args.frames // 2,
                    seed=args.seed)
    # prepare looks the layers up in harness, so they are wrapped there
    layers = {}
    for name in ("build_deployment", "select_relays"):
        setattr(harness, name, peak_after(layers, name, getattr(harness, name)))
    t0 = time.perf_counter()
    sim = harness.prepare(cfg)
    setup_s = time.perf_counter() - t0
    layers["TransportSim"] = peak_mb()
    sim.run()
    dep = sim.dep  # its per-node secondary arrays are held for the whole run
    held = dep.secondary_cells.nbytes + dep.secondary_index_primary_grid.order.nbytes
    print(json.dumps({
        "n": args.n, "seed": args.seed, "frames": args.frames, "workers": deployment.WORKERS,
        "k_p": sim.k_p, "k_s": sim.k_s,
        "primaries": len(sim.pri_pos), "secondaries": len(sim.sec_pos),
        "min_secondary_per_cell": int(dep.secondary_counts.min()),
        "setup_s": round(setup_s, 4), "peak_rss_mb": peak_mb(),
        "peak_rss_mb_after": layers,
        "held_bytes_per_secondary": round(held / len(sim.sec_pos), 2),
        "digest": setup_digest(sim),  # after the peak is read: it sorts m cells
    }))


if __name__ == "__main__":
    main()
