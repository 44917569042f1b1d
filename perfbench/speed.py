"""The machine-speed probe: a fixed reference kernel timed between jobs.

This benchmark runs on a few vCPUs of a shared host, whose speed drifts
by tens of percent over minutes: neighbours load the host, and at times
the job's two vCPUs deliver about one CPU of throughput. A job's raw
times then move with the host, not with the program. So the benchmark
times this kernel, which belongs to the benchmark and never to the
program, just before and just after every job, on as many processes as
the job keeps busy, and reports the job's times at reference speed:

    wall time = raw wall time * REFERENCE_S / (mean probe wall time)
    CPU time  = raw CPU time  * REFERENCE_S / (mean probe CPU time per process)

At reference speed the probe takes ``REFERENCE_S``; a host running 30%
slow makes both the job and the probe 30% slower, and the reported
value stays put. CPU time has its own factor because a host that lends
fewer CPUs stretches wall time but not CPU seconds. A change to the
program moves the job and not the probe, so it shows in full. The raw
times are reported beside the scaled ones.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import NamedTuple

#: Probe time at reference speed, about the median probe (0.28 s on one
#: process, 0.32 s on two) on the 2-vCPU Xeon (Sapphire Rapids) VM with
#: Python 3.11 the baseline in README.md was measured on.
REFERENCE_S = 0.30
#: Kernel repetitions per probe process.
PROBE_REPS = 3


def reference_kernel(n: int = 40_000) -> int:
    """Fixed pure-Python work: a small event loop over generators, a heap and a dict.

    It exercises what the program's hot paths do in the interpreter:
    generator switches, heap pushes and pops, tuple and dict churn.
    """

    def process(k):
        t = 0
        for i in range(8):
            t += (k * 31 + i) % 17 + 1
            yield t

    heap = []
    seq = 0
    for k in range(n // 8):
        gen = process(k)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
    table = {}
    total = 0
    while heap:
        t, _, gen = heapq.heappop(heap)
        key = ("k", t % 4096)
        table[key] = table.get(key, 0) + 1
        total += t
        try:
            heapq.heappush(heap, (t + next(gen), seq, gen))
            seq += 1
        except StopIteration:
            pass
    return total + len(table)


class Probe(NamedTuple):
    """One probe: its wall seconds, and the mean CPU seconds of its processes."""

    wall_s: float
    cpu_s: float


def probe(procs: int, reps: int = PROBE_REPS) -> Probe:
    """``procs`` forked processes each run the kernel ``reps`` times, all at once."""
    started = time.perf_counter()
    pids = []
    cpu_s = 0.0
    failed = False
    try:
        for _ in range(procs):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for _ in range(reps):
                        reference_kernel()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
    finally:
        for pid in pids:
            _, status, usage = os.wait4(pid, 0)
            cpu_s += usage.ru_utime + usage.ru_stime
            failed = failed or status != 0
    wall_s = time.perf_counter() - started
    if failed:
        raise RuntimeError("a speed probe process failed")
    return Probe(wall_s, cpu_s / procs)


def scale(before: Probe, after: Probe) -> Probe:
    """Factors that turn a job's raw wall and CPU times into times at reference speed."""
    return Probe(*(2.0 * REFERENCE_S / (b + a) for b, a in zip(before, after)))
