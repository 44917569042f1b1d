"""Span and counter recording for the benchmark's traced runs.

The traced run wraps calls into each layer's public functions from
outside the program. A wrapper is installed on the attribute its caller
looks up: the class attribute for a method, or the importing module's
global for a function pulled in with ``from ... import``. Wrappers are
installed only in a forked job process that times no untraced run, and
before :class:`repro.dist.DistRuntime` forks its workers and shards, so
those children inherit them.

Every process keeps its spans in memory as parallel arrays of
``(name, start, end, parent)``; the parent is the index of the span that
was open on the same thread when this one started, or -1. The wrapped
``worker_main`` and ``storage_server_main`` write their process's spans
and counters to the job's trace directory when they return, and the job
process merges them with its own (the master's).

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import pickle
import resource
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from stats import percentile

_clock = time.perf_counter

#: Attribute set on every wrapper, so a run can prove none is installed.
MARK = "__perfbench_wrapper__"


class Span(NamedTuple):
    pid: int
    index: int
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same process, or -1


class Recorder:
    """One process's spans and counters, kept in memory until dumped."""

    def __init__(self) -> None:
        self.out_dir: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        """Forget everything; a forked child calls this before recording."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self.counters: Dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self._start)
            self._name.append(self._name_id(name))
            self._start.append(_clock())
            self._end.append(0.0)
            self._parent.append(parent)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._end[index] = _clock()
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span with no caller on the stack (an RPC's round trip)."""
        with self._lock:
            self._name.append(self._name_id(name))
            self._start.append(start)
            self._end.append(end)
            self._parent.append(-1)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pid": self.pid,
                "names": list(self._names),
                "name": self._name.tobytes(),
                "start": self._start.tobytes(),
                "end": self._end.tobytes(),
                "parent": self._parent.tobytes(),
                "counters": dict(self.counters),
            }

    def dump(self) -> None:
        """Write this process's spans into :attr:`out_dir`."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.pkl")
        with open(path + ".part", "wb") as out:
            pickle.dump(self.snapshot(), out, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(path + ".part", path)


def spans_of(snapshot: Dict[str, Any]) -> List[Span]:
    """Decode one :meth:`Recorder.snapshot` back into spans."""
    columns = []
    for key, code in (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i")):
        column = array(code)
        column.frombytes(snapshot[key])
        columns.append(column)
    names = snapshot["names"]
    pid = snapshot["pid"]
    return [
        Span(pid, i, names[n], s, e, p)
        for i, (n, s, e, p) in enumerate(zip(*columns))
    ]


def load_dumps(out_dir: str) -> List[Dict[str, Any]]:
    """Every snapshot the job's child processes wrote."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.pkl"))):
        with open(path, "rb") as src:
            dumps.append(pickle.load(src))
    return dumps


# -- self time ------------------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class LayerTime(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def layer_times(spans: Iterable[Span]) -> Dict[str, LayerTime]:
    """Per span name: calls, summed duration, and summed self time."""
    spans = list(spans)
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault((span.pid, span.parent), []).append(
                (span.start, span.end)
            )
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for span in spans:
        duration = span.end - span.start
        kids = children.get((span.pid, span.index))
        self_s = duration - covered(span.start, span.end, kids) if kids else duration
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + duration
        own[span.name] = own.get(span.name, 0.0) + self_s
    return {name: LayerTime(calls[name], total[name], own[name]) for name in calls}


# -- wrappers -------------------------------------------------------------------


def _mark(wrapper: Callable, original: Callable) -> Callable:
    wrapper.__wrapped__ = original
    setattr(wrapper, MARK, True)
    return wrapper


def span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return _mark(wrapper, fn)


def count_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return _mark(wrapper, fn)


def _process_main(rec: Recorder, kind: str, fn: Callable) -> Callable:
    def main(*args, **kwargs):
        rec.reset()
        try:
            return fn(*args, **kwargs)
        finally:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            rec.count(f"{kind}.cpu_s", usage.ru_utime + usage.ru_stime)
            rec.count(f"{kind}.processes")
            rec.dump()

    return _mark(main, fn)


def _submit(rec: Recorder, fn: Callable) -> Callable:
    def submit(self, op, *args):
        started = _clock()
        future = fn(self, op, *args)
        if op in ("remove_batch", "rremove_batch"):
            rec.count("client.remove_batch_calls")

            def done(f, started=started):
                rec.record("client.rpc", started, _clock())
                if not f.cancelled() and f.exception() is None:
                    rec.count("client.chunks_removed", len(f.result()[0]))

            future.add_done_callback(done)
        return future

    return _mark(submit, fn)


def _encode_frame(rec: Recorder, fn: Callable) -> Callable:
    def encode_frame(call_id, kind, obj):
        index = rec.open("protocol.encode")
        try:
            data = fn(call_id, kind, obj)
        finally:
            rec.close(index)
        rec.count("protocol.frame_bytes", len(data))
        return data

    return _mark(encode_frame, fn)


def _iter_chunk(rec: Recorder, fn: Callable) -> Callable:
    # Decoding is lazy; materialize the chunk inside the span so the span
    # holds the decode and none of the consumer's work.
    def iter_chunk(chunk, codec):
        index = rec.open("serde.decode")
        try:
            records = list(fn(chunk, codec))
        finally:
            rec.close(index)
        rec.count("serde.records", len(records))
        return iter(records)

    return _mark(iter_chunk, fn)


_END = object()


def _chunk_records(rec: Recorder, fn: Callable) -> Callable:
    # A generator: time each step of the inner one, not the caller's use.
    def chunk_records(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = rec.open("serde.encode")
            try:
                chunk = next(inner, _END)
            finally:
                rec.close(index)
            if chunk is _END:
                return
            yield chunk

    return _mark(chunk_records, fn)


def _fold_partials(rec: Recorder, fn: Callable) -> Callable:
    def fold_partials(merge, task_id, partials):
        rec.count("merge.partials", len(partials))
        index = rec.open("merge.fold")
        try:
            return fn(merge, task_id, partials)
        finally:
            rec.close(index)

    return _mark(fold_partials, fn)


def targets(rec: Recorder) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """``(owner, attribute, make_wrapper)`` for every traced call site."""
    import repro.dist.client as client
    import repro.dist.protocol as protocol
    import repro.dist.runtime as runtime
    import repro.dist.segments as segments
    import repro.dist.server as server
    import repro.dist.worker as worker
    import repro.engine.common as common
    import repro.local.context as context
    import repro.sim.kernel as kernel
    import repro.sim.resources as resources
    import repro.storage.client as sim_storage
    import repro.storage.local as local_store

    def span(name):
        return lambda fn: span_wrapper(rec, name, fn)

    def count(name):
        return lambda fn: count_wrapper(rec, name, fn)

    return [
        (runtime, "worker_main", lambda fn: _process_main(rec, "worker", fn)),
        (runtime, "storage_server_main", lambda fn: _process_main(rec, "server", fn)),
        (runtime, "fill_bag", span("master.fill")),
        (client.MuxBatchFetcher, "get", span("client.fetch_wait")),
        (client.MuxShardClient, "submit", lambda fn: _submit(rec, fn)),
        (client.RemoteBag, "insert", span("client.insert")),
        (client.ReplicatedRemoteBag, "insert", span("client.insert")),
        # Not reported: these keep side-input loads out of task.user self time.
        (client.RemoteBag, "read_all", span("client.read_all")),
        (client.ReplicatedRemoteBag, "read_all", span("client.read_all")),
        (client, "encode_frame", lambda fn: _encode_frame(rec, fn)),
        (server, "encode_frame", lambda fn: _encode_frame(rec, fn)),
        (protocol.FrameDecoder, "feed", span("protocol.decode")),
        (local_store.LocalBag, "insert", span("store.local.insert")),
        (local_store.LocalBag, "remove", span("store.local.remove_batch")),
        (local_store.LocalBag, "read_page", span("store.local.read_page")),
        (segments.SegmentBag, "insert", span("store.segment.insert")),
        (segments.SegmentBag, "insert_id", span("store.segment.insert")),
        (segments.SegmentBag, "remove_batch", span("store.segment.remove_batch")),
        (segments.SegmentBag, "read_page", span("store.segment.read_page")),
        (segments.SegmentBagStore, "finalize_bag", span("segments.finalize")),
        (context.TaskContext, "emit", span("task.emit")),
        (context, "iter_chunk", lambda fn: _iter_chunk(rec, fn)),
        (common, "chunk_records", lambda fn: _chunk_records(rec, fn)),
        (worker, "fold_partials", lambda fn: _fold_partials(rec, fn)),
        (kernel.Environment, "timeout", count("kernel.timeouts")),
        (resources.BandwidthServer, "transfer", count("resources.transfers")),
        (resources.Resource, "request", count("resources.requests")),
        (sim_storage.BagWriter, "add", count("storage.writer_adds")),
    ]


def _current(owner: Any, attr: str) -> Any:
    # The raw class-dict entry, not a bound or re-wrapped view of it.
    return vars(owner)[attr]


def wrapped_attributes() -> List[str]:
    """Names of traced call sites that currently hold a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _make in targets(Recorder())
        if getattr(_current(owner, attr), MARK, False)
    ]


def install(rec: Recorder) -> Callable[[], None]:
    """Install every wrapper; returns the function that restores them."""
    saved = []
    for owner, attr, make in targets(rec):
        original = _current(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def wrap_task_fns(rec: Recorder, graph) -> None:
    """Time each app task fn as ``task.user`` (the worker calls ``spec.fn``)."""
    for task_id, spec in list(graph.tasks.items()):
        if spec.fn is not None:
            graph.tasks[task_id] = dataclasses.replace(
                spec, fn=span_wrapper(rec, "task.user", spec.fn)
            )


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(
    dumps: List[Dict[str, Any]], processes: int
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The per-layer metrics of one traced job, plus collection details.

    ``dumps`` holds one snapshot per process of the job; ``processes`` is
    how many forked workers and shards should have written one.
    """
    spans: List[Span] = []
    counters: Dict[str, float] = {}
    for dump in dumps:
        spans.extend(spans_of(dump))
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    times = layer_times(spans)

    def total(name: str) -> float:
        return times[name].total_s if name in times else 0.0

    def calls(name: str) -> int:
        return times[name].calls if name in times else 0

    rpcs_ms = [(s.end - s.start) * 1e3 for s in spans if s.name == "client.rpc"]
    batches = counters.get("client.remove_batch_calls", 0)
    metrics = {
        "master.fill_s": total("master.fill"),
        "client.fetch_wait_s": total("client.fetch_wait"),
        "client.remove_batch_calls": batches,
        "client.chunks_per_remove_batch": (
            counters.get("client.chunks_removed", 0) / batches if batches else 0.0
        ),
        "client.rpc_p50_ms": percentile(rpcs_ms, 50) if rpcs_ms else 0.0,
        "client.rpc_p90_ms": percentile(rpcs_ms, 90) if rpcs_ms else 0.0,
        "client.insert_calls": calls("client.insert"),
        "client.insert_s": total("client.insert"),
        "protocol.frames": calls("protocol.encode"),
        "protocol.frame_bytes": counters.get("protocol.frame_bytes", 0),
        "protocol.encode_s": total("protocol.encode"),
        "protocol.decode_s": total("protocol.decode"),
        "server.cpu_s": counters.get("server.cpu_s", 0.0),
        "worker.cpu_s": counters.get("worker.cpu_s", 0.0),
        "task.user_s": times["task.user"].self_s if "task.user" in times else 0.0,
        "task.emit_calls": calls("task.emit"),
        "task.emit_s": total("task.emit"),
        "serde.encode_s": total("serde.encode"),
        "serde.decode_s": total("serde.decode"),
        "serde.records": counters.get("serde.records", 0),
        "merge.partials": counters.get("merge.partials", 0),
        "merge.fold_s": total("merge.fold"),
        "segments.finalize_s": total("segments.finalize"),
        "kernel.timeouts": counters.get("kernel.timeouts", 0),
        "resources.transfers": counters.get("resources.transfers", 0),
        "resources.requests": counters.get("resources.requests", 0),
        "storage.writer_adds": counters.get("storage.writer_adds", 0),
    }
    for store in ("local", "segment"):
        for op in ("insert", "remove_batch", "read_page"):
            metrics[f"store.{store}.{op}_s"] = total(f"store.{store}.{op}")
    written = counters.get("worker.processes", 0) + counters.get("server.processes", 0)
    detail = {
        "spans": len(spans),
        "child_dumps": int(written),
        "children_expected": processes,
        "rpc_samples": len(rpcs_ms),
    }
    return metrics, detail
