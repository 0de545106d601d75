"""Compare two benchmark result sets: a parent and a change.

Each set is a JSON-lines file written by ``run.py --out``.  Run from
the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Per workload and metric it prints each side's median and quartiles,
the seed-matched pairs the change won (ties count for neither) and a
verdict from the bounds in ``BENCHMARK.json``:

* ``REGRESSED``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread (quartile distance over the
  median) is wider than the bound, and not every change run beats
  every parent run;
* ``improved``: the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
* ``within bound`` otherwise.

It also requires the result digest of every (workload, seed) to agree
across both sets: a change to host speed must leave every simulated
output identical.  The exit status is 1 when a metric regressed or a
digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[dict]:
    with open(path) as stream:
        return [json.loads(line) for line in stream if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: List[float], change: List[float], wins: int,
            pairs: int, bound: float, lower_better: bool) -> str:
    _, parent_median, _ = quartiles(parent)
    _, change_median, _ = quartiles(change)
    difference = change_median - parent_median
    worse = difference if lower_better else -difference
    if parent_median and worse / abs(parent_median) > bound:
        return "REGRESSED"
    better_everywhere = (
        max(change) < min(parent) if lower_better
        else min(change) > max(parent)
    )
    if spread(parent) > bound and not better_everywhere:
        return "unresolved"
    q1, _, q3 = quartiles(parent)
    if pairs and wins >= 0.9 * pairs and -worse > q3 - q1:
        return "improved"
    return "within bound"


def compare(parent: List[dict], change: List[dict],
            benchmark: dict) -> Tuple[List[str], bool]:
    """The report lines, and whether the change is acceptable."""
    specs: Dict[str, dict] = {
        spec["name"]: spec
        for spec in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    runs: Dict[Tuple[str, int], Dict[str, Dict[int, dict]]] = \
        defaultdict(lambda: {"parent": {}, "change": {}})
    for side, records in (("parent", parent), ("change", change)):
        for record in records:
            key = (record["workload"], record["trace"])
            runs[key][side][record["seed"]] = record
    lines: List[str] = []
    acceptable = True
    for (workload, trace), sides in sorted(runs.items()):
        lines.append(f"## {workload} (trace {trace}): "
                     f"{len(sides['parent'])} parent runs, "
                     f"{len(sides['change'])} change runs")
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        for seed in seeds:
            before = sides["parent"][seed]["digest"]
            after = sides["change"][seed]["digest"]
            if before != after:
                acceptable = False
                lines.append(f"  digest differs on seed {seed}: "
                             f"{before} -> {after}")
        names = [
            name for name in specs
            if any(name in r["metrics"] for r in sides["parent"].values())
            and any(name in r["metrics"] for r in sides["change"].values())
        ]
        for name in names:
            spec = specs[name]
            lower_better = spec.get("better") == "lower"
            parent_values = [r["metrics"][name]["value"]
                             for r in sides["parent"].values()]
            change_values = [r["metrics"][name]["value"]
                             for r in sides["change"].values()]
            wins = 0
            for seed in seeds:
                before = sides["parent"][seed]["metrics"][name]["value"]
                after = sides["change"][seed]["metrics"][name]["value"]
                if (after < before) if lower_better else (after > before):
                    wins += 1
            p1, pm, p3 = quartiles(parent_values)
            c1, cm, c3 = quartiles(change_values)
            text = (f"  {name:<34} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                    f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
                    f"  won {wins}/{len(seeds)}")
            if "bound" in spec:
                outcome = verdict(parent_values, change_values, wins,
                                  len(seeds), spec["bound"], lower_better)
                acceptable &= outcome != "REGRESSED"
                text += f"  {outcome} (bound {spec['bound']:.0%})"
            lines.append(text)
    return lines, acceptable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as stream:
        benchmark = json.load(stream)
    lines, acceptable = compare(load(args.parent), load(args.change),
                                benchmark)
    print("\n".join(lines))
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
