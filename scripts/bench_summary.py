"""Summarise a ``BENCH_<TAG>.json`` recording, parent against change.

Usage, from any directory::

    python3 scripts/bench_summary.py BENCH_<TAG>.json

For each workload of the recording and each end-to-end metric of
``BENCHMARK.json`` it prints the median of the ``parent`` runs and of the
``change`` runs, the change of the median in percent, the parent's
quartiles, and in how many seed pairs the change reads better, worse or
equal, by the metric's ``better`` direction.  A metric whose parent
quartile spread, relative to the parent median, exceeds the metric's
bound is marked ``unresolved``: its run-to-run noise alone can move it by
more than the bound, so neither a gain nor a regression shows there.  The
script only reads files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary_rows(record: dict, metrics) -> list[dict]:
    """One row per workload (in recording order) and end-to-end metric."""
    values = {}  # (workload, metric, checkout) -> {seed: value}
    workloads = []
    for run in record["runs"]:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
        for name, metric in run["result"]["metrics"].items():
            key = (run["workload"], name, run["checkout"])
            values.setdefault(key, {})[run["seed"]] = metric["value"]
    rows = []
    for workload in workloads:
        for metric in metrics:
            parent = values.get((workload, metric["name"], "parent"), {})
            change = values.get((workload, metric["name"], "change"), {})
            if not parent or not change:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            diffs = [sign * (parent[s] - change[s]) for s in parent if s in change]
            q1, _, q3 = statistics.quantiles(parent.values(), n=4, method="inclusive")
            p_median = statistics.median(parent.values())
            c_median = statistics.median(change.values())
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "parent": p_median, "change": c_median,
                "percent": 100 * (c_median - p_median) / p_median if p_median else None,
                "q1": q1, "q3": q3,
                "better": sum(d > 0 for d in diffs), "worse": sum(d < 0 for d in diffs),
                "equal": sum(d == 0 for d in diffs),
                "unresolved": q3 - q1 > metric["bound"] * abs(p_median),
            })
    return rows


def render(row: dict) -> str:
    percent = "n/a" if row["percent"] is None else f"{row['percent']:+.1f} %"
    return (f"{row['workload']:<10} {row['metric']:<12} {row['parent']:>10.4g} ->"
            f" {row['change']:<10.4g} {row['unit']:<5} {percent:>8}"
            f"  parent q1-q3 {row['q1']:.4g}-{row['q3']:.4g}"
            f"  better/worse/equal {row['better']}/{row['worse']}/{row['equal']}"
            + ("  unresolved" if row["unresolved"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", help="a BENCH_<TAG>.json file of scripts/record_bench.py")
    args = parser.parse_args(argv)
    record = json.loads(Path(args.record).read_text(encoding="utf-8"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for row in summary_rows(record, metrics):
        print(render(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
