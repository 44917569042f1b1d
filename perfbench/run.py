"""Benchmark entry point: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload clicklog-fine --seed 1 --seconds 40 --trace 0

Runs jobs of the workload one at a time, each in a fresh fork of this
process, until the next job would overrun ``--seconds``. Every job's
output is checked against the workload's oracle. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, each the median over the run's
  jobs, measured with no wrapper installed anywhere. Times are at
  reference speed: a fixed probe kernel runs between jobs and each job's
  times are scaled by how fast the host ran it around that job (see
  ``speed.py``); the raw times are printed too;
* ``--trace 1``: the per-layer metrics. Untraced and traced jobs
  alternate; wrappers exist only in the traced jobs' processes, and the
  untraced ones give the baseline for ``trace.overhead_pct``.

``--out FILE`` appends the run's samples as one JSON line, the input of
``perfbench/compare.py``. Run from anywhere; it works on the checkout
that holds it and writes only under ``.perfbench-work/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

import harness
import speed
from stats import describe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(spec_path: str):
    """``(end_to_end, per_layer)``: metric name -> unit, from BENCHMARK.json."""
    with open(spec_path) as src:
        spec = json.load(src)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's samples to this JSONL file")
    return parser.parse_args(argv)


#: Job times scaled to reference speed, each by the probe's wall or CPU
#: factor; each keeps its raw value as ``raw_<name>``.
SCALED = {"wall_s": "wall_s", "setup_s": "wall_s", "cpu_s": "cpu_s"}


def at_reference_speed(job, records: int, before: speed.Probe, after: speed.Probe) -> None:
    """Scale a job's times by the probes just before and after it."""
    factors = speed.scale(before, after)._asdict()
    job["probe_s"] = [before.wall_s, after.wall_s]
    job["probe_cpu_s"] = [before.cpu_s, after.cpu_s]
    for key, kind in SCALED.items():
        if key in job:
            raw, factor = job[key], factors[kind]
            job["raw_" + key] = raw
            job[key] = [v * factor for v in raw] if isinstance(raw, list) else raw * factor
    if "wall_s" in job:
        job["records_per_s"] = records / job["wall_s"]


def run_jobs(workload, seconds: float, trace: bool, temp: str):
    """Alternate (traced and) untraced jobs until ``seconds`` would pass."""
    deadline = time.monotonic() + seconds
    # Past this no job runs, so a hung job cannot stretch the run much
    # beyond ``seconds`` plus one watchdog period.
    hard_stop = deadline + harness.WATCHDOG_S
    longest = {False: 0.0, True: 0.0}
    jobs = []
    leaked_tmpdirs = 0
    traced = False
    before = speed.probe(workload.probe_procs)
    while True:
        kinds = {job["traced"] for job in jobs}
        enough = kinds == ({False, True} if trace else {False})
        now = time.monotonic()
        if (enough and now + longest[traced] > deadline) or now >= hard_stop:
            break
        trace_dir = None
        if workload.kind == "sim":
            job = lambda: harness.sim_job(workload, traced)
        else:
            if traced:
                trace_dir = os.path.join(WORK, f"trace-{len(jobs)}")
                os.makedirs(trace_dir)
            job = lambda: harness.dist_job(workload, trace_dir)
        result = harness.run_forked(job, min(harness.WATCHDOG_S, hard_stop - now))
        after = speed.probe(workload.probe_procs)
        at_reference_speed(result, workload.records, before, after)
        before = after
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        leaked_tmpdirs += harness.sweep_temp_dir(temp)
        result["traced"] = traced
        jobs.append(result)
        if not result["ok"]:
            print(f"job {len(jobs)} failed: {result.get('error', 'wrong output')}",
                  file=sys.stderr)
        longest[traced] = max(longest[traced], time.monotonic() - now)
        if trace:
            traced = not traced
    return jobs, leaked_tmpdirs


def _samples(jobs, key):
    good = [job for job in jobs if job["ok"] and key in job]
    chosen = good or [job for job in jobs if key in job]
    values = []
    for job in chosen:
        value = job[key]
        values.extend(value if isinstance(value, list) else [value])
    return values


def end_to_end(jobs, names):
    samples = {name: _samples(jobs, name) for name in names if name != "success_share"}
    failed = sum(not job["ok"] for job in jobs)
    samples["success_share"] = [(len(jobs) - failed) / len(jobs)]
    return {name: values for name, values in samples.items() if values}


def per_layer(jobs, names, leaked_tmpdirs):
    untraced = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    samples = {}
    for name in names:
        values = [job["layers"][name] for job in traced if name in job.get("layers", {})]
        if values:
            samples[name] = values
    base_walls, traced_walls = _samples(untraced, "wall_s"), _samples(traced, "wall_s")
    if base_walls and traced_walls:
        base_wall = statistics.median(base_walls)
        overhead = statistics.median(traced_walls) / base_wall - 1.0
        samples["trace.overhead_pct"] = [100.0 * overhead]
        events = samples.get("kernel.events", [0])
        samples["kernel.events_per_s"] = [statistics.median(events) / base_wall]
    samples["runtime.leaked_children"] = [sum(job["leaked_children"] for job in jobs)]
    samples["runtime.leaked_tmpdirs"] = [leaked_tmpdirs]
    samples["bench.probe_s"] = _samples(jobs, "probe_s")
    samples["bench.raw_wall_s"] = _samples(untraced, "raw_wall_s")
    return {name: values for name, values in samples.items() if values}


def raw_samples(jobs):
    """The unscaled times and the probes, printed beside the end-to-end metrics."""
    names = ["raw_" + key for key in SCALED] + ["probe_s", "probe_cpu_s"]
    return {name: values for name in names if (values := _samples(jobs, name))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = metric_units(SPEC)
    out_path = os.path.abspath(args.out) if args.out else None
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    temp = harness.use_temp_dir(os.path.join(WORK, "tmp"))
    workload = WORKLOADS[args.workload](args.seed)
    # Every job forks from this heap; keep its collector off those pages.
    gc.collect()
    gc.freeze()
    jobs, leaked_tmpdirs = run_jobs(workload, args.seconds, bool(args.trace), temp)
    shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        units = per_layer_units
        samples = per_layer(jobs, units, leaked_tmpdirs)
    else:
        units = end_to_end_units
        samples = end_to_end(jobs, units)
    failed = sum(not job["ok"] for job in jobs)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} failed={failed}")
    for name, values in samples.items():
        print(f"  {name} [{units[name]}] {describe(values)}")
    if not args.trace:
        for name, values in raw_samples(jobs).items():
            print(f"  {name} [s] {describe(values)}")
    for job in jobs:
        if "trace" in job:
            print(f"  traced job: {job['trace']}")
    metrics = {
        name: {"value": statistics.median(samples.get(name, [0.0])), "unit": unit}
        for name, unit in units.items()
    }
    if out_path:
        with open(out_path, "a") as out:
            out.write(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "seconds": args.seconds,
                "samples": samples,
                "raw": raw_samples(jobs),
                "metrics": {name: m["value"] for name, m in metrics.items()},
            }) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
