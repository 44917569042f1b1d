"""Compare two sets of benchmark runs: parent (A) against change (B).

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``perfbench/run.py --out`` appends, one
per run. For every workload and end-to-end metric this prints each
side's median and quartiles over its runs, the share of pairs B won
(runs paired by seed where both sides ran it, else in file order; ties
count for neither side), the median and tail over every job of each
side's runs, and a verdict:

* ``improved``: B won at least 9 in 10 pairs and its median is better by
  more than A's spread (the distance between A's quartiles);
* ``regressed``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: A's own spread is wider than the bound, so a change
  that size cannot be told apart, unless every run of B beat every run
  of A;
* ``unchanged``: none of the above.

It then prints the per-layer deltas between the medians of the traced
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List, Optional

from stats import describe, quartiles

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str) -> List[dict]:
    with open(path) as src:
        return [json.loads(line) for line in src if line.strip()]


def pairs(a: List[dict], b: List[dict]) -> List[tuple]:
    """(A run, B run) pairs: by seed where both ran it, else by order."""
    b_by_seed = {run["seed"]: run for run in b}
    if all(run["seed"] in b_by_seed for run in a) and len(a) == len(b_by_seed):
        return [(run, b_by_seed[run["seed"]]) for run in a]
    return list(zip(a, b))


def job_samples(runs: List[dict], name: str) -> List[float]:
    """Every job's value of ``name`` across ``runs``."""
    return [value for run in runs for value in run.get("samples", {}).get(name, [])]


def verdict(
    a: List[float], b: List[float], won: float, better: str, bound: Optional[float]
) -> str:
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (med_a - med_b)  # > 0 when B is better
    if won >= 0.9 and gain > q3 - q1:
        return "improved"
    every_run_better = all(sign * (x - y) > 0 for x in a for y in b)
    if bound is not None and med_a and (q3 - q1) / abs(med_a) > bound:
        return "unchanged" if every_run_better else "unresolved"
    if bound is not None and med_a and -gain / abs(med_a) > bound:
        return "regressed"
    return "unchanged"


def compare(a_runs: List[dict], b_runs: List[dict], spec: dict) -> List[str]:
    lines = []
    workloads = sorted({run["workload"] for run in a_runs} & {run["workload"] for run in b_runs})
    for workload in workloads:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            a = [r for r in a_runs if r["workload"] == workload and r["trace"] == trace]
            b = [r for r in b_runs if r["workload"] == workload and r["trace"] == trace]
            if not a or not b:
                continue
            lines.append(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}): "
                         f"A {len(a)} runs, B {len(b)} runs")
            matched = pairs(a, b)
            for metric in metrics:
                name = metric["name"]
                av = [r["metrics"][name] for r in a if name in r["metrics"]]
                bv = [r["metrics"][name] for r in b if name in r["metrics"]]
                if not av or not bv:
                    continue
                aq, bq = quartiles(av), quartiles(bv)
                if trace:
                    delta = bq[1] - aq[1]
                    rel = f"{100 * delta / aq[1]:+.1f}%" if aq[1] else "n/a"
                    lines.append(f"  {name:34s} A {aq[1]:.6g}  B {bq[1]:.6g}  "
                                 f"delta {delta:+.6g} ({rel}) [{metric['unit']}]")
                    continue
                sign = 1.0 if metric["better"] == "lower" else -1.0
                scored = [
                    sign * (x["metrics"][name] - y["metrics"][name])
                    for x, y in matched
                    if name in x["metrics"] and name in y["metrics"]
                ]
                won = sum(s > 0 for s in scored) / len(scored) if scored else 0.0
                result = verdict(av, bv, won, metric["better"], metric.get("bound"))
                lines.append(
                    f"  {name:16s} A {aq[1]:.6g} [{aq[0]:.6g}, {aq[2]:.6g}]  "
                    f"B {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                    f"B won {won:.0%} of {len(scored)} pairs  -> {result} [{metric['unit']}]"
                )
                jobs_a, jobs_b = job_samples(a, name), job_samples(b, name)
                if jobs_a and jobs_b:
                    lines.append(f"  {'':16s} jobs: A {describe(jobs_a)}  B {describe(jobs_b)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("a", help="parent runs (JSONL from run.py --out)")
    parser.add_argument("b", help="change runs (JSONL from run.py --out)")
    parser.add_argument("--spec", default=BENCHMARK_JSON, help="BENCHMARK.json with the bounds")
    args = parser.parse_args(argv)
    with open(args.spec) as src:
        spec = json.load(src)
    for line in compare(load(args.a), load(args.b), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
