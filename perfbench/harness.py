"""One job per forked process: timing, resource use, oracle and leak checks.

Every job runs in a fresh fork of the benchmark process, which hosts the
dist master (or the simulator) for that one job. A fork starts with CPU
counters at zero and its own peak-RSS mark, so ``getrusage`` for the job
process and the workers and shards it reaps gives the job's CPU seconds
and the peak RSS of its largest process, and no earlier job's peak can
mask this one's. Every job also starts from the same parent heap.

The job process becomes the leader of a new process group. After it
exits, any process still in that group is a leaked child: it is counted,
killed and waited for, like the ``repro-dist-*`` temp dirs left behind.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import resource
import select
import shutil
import signal
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, Optional

import tracing

_clock = time.perf_counter

#: ``DistRuntime.run`` deadline for one job.
DIST_TIMEOUT_S = 60.0
#: Parent-side watchdog on one forked job, past the run's own deadline.
WATCHDOG_S = 100.0
#: Set-ups timed per untraced job: empty-input dist jobs (~0.1 s each)
#: or simulator graph builds (~10 ms each).
SETUPS = 3


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; CHILDREN holds the largest reaped child.
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _reap_children() -> int:
    """Stop and count the processes the job left running."""
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.kill()
    for proc in alive:
        proc.join(5.0)
    return len(alive)


# -- jobs (run inside the forked job process) ------------------------------------


def dist_job(workload, trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Time one dist job, plus an empty-input job with the same graph."""
    from repro.dist import DistRuntime

    out: Dict[str, Any] = {"wrappers": len(tracing.wrapped_attributes())}
    rec = None
    if trace_dir is not None:
        rec = tracing.Recorder()
        rec.out_dir = trace_dir
        tracing.install(rec)
    else:
        # Set-up time: fork, connect, dispatch and shut down, no records.
        out["setup_s"] = []
        for _ in range(SETUPS):
            runtime = DistRuntime(workload.build(), **workload.settings)
            started = _clock()
            runtime.run(workload.empty_inputs(), timeout=DIST_TIMEOUT_S)
            out["setup_s"].append(_clock() - started)
    graph = workload.build().graph
    if rec is not None:
        tracing.wrap_task_fns(rec, graph)
    runtime = DistRuntime(graph, **workload.settings)
    cpu0, self0 = _cpu_s(), _self_cpu_s()
    started = _clock()
    try:
        result = runtime.run(workload.inputs, timeout=DIST_TIMEOUT_S)
    finally:
        out["wall_s"] = _clock() - started
    out["cpu_s"] = _cpu_s() - cpu0
    out["master_cpu_s"] = _self_cpu_s() - self0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["records_per_s"] = workload.records / out["wall_s"]
    out["ok"] = workload.check(result)
    if rec is not None:
        dumps = tracing.load_dumps(trace_dir) + [rec.snapshot()]
        layers, detail = tracing.layer_metrics(
            dumps, workload.settings["workers"] + workload.settings["shards"]
        )
        layers.update(
            {
                "master.cpu_s": out["master_cpu_s"],
                "master.clones": result.total_clones(),
                "worker.chunks": result.chunks_processed,
                "segments.written": result.segments_written,
                "segments.compacted": result.segments_compacted,
                "segments.bytes_reclaimed": result.bytes_reclaimed,
                "server.resident_peak_bytes": result.resident_peak_bytes,
            }
        )
        out["layers"] = layers
        out["trace"] = detail
    return out


def sim_job(workload, traced: bool = False) -> Dict[str, Any]:
    """Time one simulator job and the set-up (graph build + SimJob) before it."""
    out: Dict[str, Any] = {"wrappers": len(tracing.wrapped_attributes())}
    rec = None
    if traced:
        rec = tracing.Recorder()
        tracing.install(rec)
    setups = []
    for _ in range(1 if traced else SETUPS):
        started = _clock()
        job = workload.setup()
        setups.append(_clock() - started)
    out["setup_s"] = setups
    cpu0 = _cpu_s()
    started = _clock()
    try:
        report = job.run()
    finally:
        out["wall_s"] = _clock() - started
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["records_per_s"] = workload.records / out["wall_s"]
    out["ok"] = workload.check(report)
    out["events"] = job.env.step_count
    if rec is not None:
        layers, detail = tracing.layer_metrics([rec.snapshot()], 0)
        decided = report.clones_granted + report.clones_rejected
        layers.update(
            {
                "kernel.events": job.env.step_count,
                "runtime.clones_granted": report.clones_granted,
                "runtime.clone_grant_share": (
                    report.clones_granted / decided if decided else 0.0
                ),
            }
        )
        out["layers"] = layers
        out["trace"] = detail
    return out


# -- the fork ---------------------------------------------------------------------


def _read_all(fd: int, deadline: float) -> Optional[bytes]:
    chunks = []
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            return None
        data = os.read(fd, 1 << 16)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _kill_group(pgid: int) -> int:
    """Kill whatever is left in the job's process group; 1 if anything was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return 0
    # Orphans are reaped by init; wait until the group is gone.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return 1


def run_forked(job: Callable[[], Dict[str, Any]], watchdog_s: float = WATCHDOG_S) -> Dict[str, Any]:
    """Run ``job`` in a forked process group; returns its result dict.

    A job that raises, or that the watchdog kills, comes back with
    ``ok=False`` and an ``error``. ``leaked_children`` counts processes
    the job left alive, which are killed and waited for here.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # job process
        os.close(read_fd)
        code = 0
        try:
            os.setpgid(0, 0)
            result = job()
        except BaseException:
            result = {"ok": False, "error": traceback.format_exc()}
            code = 1
        try:
            result["leaked_children"] = _reap_children()
            payload = pickle.dumps(result)
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already did it, or already exited
    try:
        payload = _read_all(read_fd, time.monotonic() + watchdog_s)
    finally:
        os.close(read_fd)
    if payload is None:
        os.killpg(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    strays = _kill_group(pid)
    if payload is None:
        result = {"ok": False, "error": f"job killed after {watchdog_s}s"}
    elif not payload:
        result = {"ok": False, "error": "job process died without a result"}
    else:
        result = pickle.loads(payload)
    result["leaked_children"] = result.get("leaked_children", 0) + strays
    if result.get("wrappers"):
        result["ok"] = False
        result["error"] = "a job started with wrappers already installed"
    return result


# -- the job's temp directory ------------------------------------------------------


def use_temp_dir(path: str) -> str:
    """Make ``path`` the temp root of this process and every fork of it.

    Unix socket paths are limited to ~107 bytes, so a deep checkout gets
    the path relative to the working directory instead.
    """
    os.makedirs(path, exist_ok=True)
    if len(os.path.abspath(path)) > 60:
        path = os.path.relpath(path)
    tempfile.tempdir = path
    os.environ["TMPDIR"] = path
    return path


def sweep_temp_dir(path: str) -> int:
    """Remove what a job left in the temp root; count runtime leftovers."""
    leaked = 0
    for entry in os.listdir(path):
        full = os.path.join(path, entry)
        if entry.startswith("repro-dist-") or entry.endswith(".sock"):
            leaked += 1
        if os.path.isdir(full) and not os.path.islink(full):
            shutil.rmtree(full, ignore_errors=True)
        else:
            os.unlink(full)
    return leaked
