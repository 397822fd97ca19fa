"""``python -m perfbench compare A.json B.json``: B against the base A.

One row per workload and gated metric: both medians, how much worse B is as a
share of A (negative = better), the bound, the widest spread of either side
(first-to-third-quartile distance as a share of the median) and a verdict:

``ok``
    B is no worse than A by more than the bound.
``worse``
    B is worse than A by more than the bound.
``unresolved``
    The run-to-run spread of a side is wider than the bound, so the pair
    cannot say either way.  Not the same as unchanged.

When both files come from the same commit and the same seeds, every
simulated-clock metric must be identical -- the bound that applies is zero --
and a difference reads ``worse`` whichever way it points.  A larger failed
share of operations is ``worse`` too.  ``--all`` adds the ungated per-layer
rows.  Exit status 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench.catalogue import METRICS, WORKLOADS, Metric


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for fewer than two values)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def _values(runs: List[dict], workload: str, name: str) -> List[float]:
    return [run["metrics"][name] for run in runs
            if run["workload"] == workload and run["metrics"].get(name) is not None]


def _failed_share(runs: List[dict], workload: str) -> Optional[float]:
    attempted = sum(run["ops_attempted"] for run in runs if run["workload"] == workload)
    failed = sum(run["ops_failed"] for run in runs if run["workload"] == workload)
    return failed / attempted if attempted else None


def verdict(metric: Metric, base: List[float], new: List[float], identical_inputs: bool) -> dict:
    """Compare one metric's values on one workload."""
    a, b = statistics.median(base), statistics.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else (0.0 if b == a else sign * float("inf"))
    widest = max(spread(base), spread(new))
    if metric.clock == "sim" and identical_inputs:
        bound, status = 0.0, "ok" if sorted(base) == sorted(new) else "worse"
    elif metric.bound is None:
        bound, status = None, "-"
    elif widest > metric.bound:
        bound, status = metric.bound, "unresolved"
    else:
        bound, status = metric.bound, "worse" if worse_by > metric.bound else "ok"
    return {"base": a, "new": b, "worse_by": worse_by, "bound": bound, "spread": widest,
            "status": status}


def compare(base: dict, new: dict, every_metric: bool = False) -> List[dict]:
    """All rows of the comparison, in catalogue order within each workload."""
    seeds = [sorted((run["workload"], run["seed"]) for run in side["runs"]) for side in (base, new)]
    commits = [side["environment"].get("commit") for side in (base, new)]
    identical_inputs = (seeds[0] == seeds[1] and commits[0] is not None
                        and commits[0] == commits[1]
                        and base.get("run_seconds") == new.get("run_seconds")
                        and base.get("quick") == new.get("quick"))
    rows = []
    for workload in WORKLOADS:
        for metric in METRICS:
            if metric.bound is None and not every_metric:
                continue
            a, b = (_values(side["runs"], workload, metric.name) for side in (base, new))
            if a and b:
                rows.append({"workload": workload, "metric": metric.name, "unit": metric.unit,
                             **verdict(metric, a, b, identical_inputs)})
        shares = [_failed_share(side["runs"], workload) for side in (base, new)]
        if None not in shares:
            rows.append({"workload": workload, "metric": "ops_failed_share", "unit": "ratio",
                         "base": shares[0], "new": shares[1], "worse_by": shares[1] - shares[0],
                         "bound": 0.0, "spread": 0.0,
                         "status": "worse" if shares[1] > shares[0] else "ok"})
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--all", action="store_true", help="include the ungated per-layer metrics")
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.base.read_text()), json.loads(args.new.read_text()), args.all)
    print(f"{'workload':<16} {'metric':<30} {'base':>14} {'new':>14} {'worse by':>9} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:<16} {row['metric']:<30} {row['base']:>14.4f} {row['new']:>14.4f} "
              f"{row['worse_by']:>+9.1%} {bound:>6} {row['spread']:>7.1%}  {row['status']}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print(", ".join(f"{count} {status}" for status, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
