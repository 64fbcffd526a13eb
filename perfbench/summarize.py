"""Fold the result files of several benchmark runs into per-workload statistics.

    python3 perfbench/summarize.py perfbench/.work/results/*-t0.json > summary.json

For each workload and metric: the median over the runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``), their distance as
a share of the median (the spread the bounds in BENCHMARK.json are checked
against) and the number of runs. Output digests are listed per seed, so two
commits can be compared file for file on the same seeds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        detail = json.loads(path.read_text())
        by_workload.setdefault(detail["workload"], []).append(detail)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values),
                             "spread": (q3 - q1) / median if median else 0.0}
        out[workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "missed_increments": sum(r["missed_increments"] for r in runs),
            "false_increments": sum(r["false_increments"] for r in runs),
            "digests": {str(r["seed"]): r["digests"] for r in sorted(runs, key=lambda r: r["seed"])},
            "env": runs[0]["env"],
        }
    return out


if __name__ == "__main__":
    json.dump(summarize([Path(p) for p in sys.argv[1:]]), sys.stdout, indent=1, sort_keys=True)
    print()
