"""Collect the results under ``.bench_out/`` into one summary document.

    python3 perfbench/summarize.py > summary.json

For every workload it gives each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) over the untraced
runs, every run's value with its seed, the digest of each seed's simulated
metrics, and the traced runs' per-module metrics. ``baseline.json`` in this
directory was made this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def spread_stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def summarize(out_dir: Path = OUT_DIR) -> dict:
    runs = defaultdict(lambda: {"untraced": [], "traced": []})
    environments = {}
    for path in sorted(out_dir.glob("*-seed*-trace[01].json")):
        workload, rest = path.stem.split("-seed")
        seed, trace = rest.split("-trace")
        doc = json.loads(path.read_text())
        doc["seed"] = int(seed)
        runs[workload]["traced" if trace == "1" else "untraced"].append(doc)
        environments[json.dumps(doc["environment"], sort_keys=True)] = doc["environment"]

    workloads = {}
    for workload, kinds in sorted(runs.items()):
        untraced = sorted(kinds["untraced"], key=lambda d: d["seed"])
        metrics = defaultdict(dict)
        for doc in untraced:
            for name, m in doc["result"]["metrics"].items():
                metrics[name]["unit"] = m["unit"]
                metrics[name].setdefault("values", []).append(m["value"])
        for m in metrics.values():
            m.update(spread_stats(m["values"]))
        workloads[workload] = {
            "seeds": [d["seed"] for d in untraced],
            "correct": all(d["result"]["correct"] for d in untraced),
            "metrics": dict(metrics),
            "digests": {str(d["seed"]): d["details"].get("digest") for d in untraced},
            "traced": [{"seed": d["seed"], "correct": d["result"]["correct"],
                        "metrics": {k: v["value"] for k, v in d["result"]["metrics"].items()}}
                       for d in sorted(kinds["traced"], key=lambda d: d["seed"])],
        }
    return {"environments": list(environments.values()), "workloads": workloads}


if __name__ == "__main__":
    json.dump(summarize(), sys.stdout, indent=1)
    sys.stdout.write("\n")
