"""Tests of the benchmark's own code: oracles, self time, wrappers, collection.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.local import LocalRuntime  # noqa: E402


def tiny_clicklog(seed=3):
    return workloads.clicklog_fine(seed, records=4000, regions=4)


def tiny_hashjoin(seed=3):
    return workloads.hashjoin_spill(seed, build_rows=300, probe_rows=3000)


# -- oracles ------------------------------------------------------------------------


@pytest.mark.parametrize("make", [tiny_clicklog, tiny_hashjoin])
def test_oracle_agrees_with_local_runtime(make):
    workload = make()
    result = LocalRuntime(workload.build(), workers=2).run(dict(workload.inputs))
    assert workload.check(result)


@pytest.mark.parametrize("make", [tiny_clicklog, tiny_hashjoin])
def test_oracle_rejects_lost_records(make):
    workload = make()
    short = {bag: records[: len(records) * 9 // 10] for bag, records in workload.inputs.items()}
    result = LocalRuntime(workload.build(), workers=2).run(short)
    assert not workload.check(result)


def test_sim_fingerprint_rejects_a_changed_report():
    sim = workloads.SimWorkload()

    class Report:
        runtime = sim.expected["makespan_s"]
        phases = {k: tuple(v) for k, v in sim.expected["phases"].items()}
        clones_granted = sim.expected["clones_granted"]
        clones_rejected = sim.expected["clones_rejected"]
        bytes_read = sim.expected["bytes_read"]
        bytes_written = sim.expected["bytes_written"]

    assert sim.check(Report())
    Report.clones_granted += 1
    assert not sim.check(Report())


# -- self time ------------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(1, 0, "root", 0.0, 10.0, -1),
        S(1, 1, "b", 1.0, 4.0, 0),
        S(1, 2, "d", 2.0, 3.0, 1),
        S(1, 3, "c", 3.0, 6.0, 0),  # overlaps b: the root loses [1, 6] once
        S(1, 4, "rpc", 0.5, 9.0, -1),  # no caller: shadows nothing
        S(2, 0, "root", 0.0, 2.0, -1),  # same index, other process
        S(2, 1, "b", 1.5, 3.0, 0),  # sticks out past its parent's end
    ]
    times = tracing.layer_times(spans)
    assert times["root"].calls == 2
    assert times["root"].total_s == pytest.approx(12.0)
    assert times["root"].self_s == pytest.approx((10 - 5) + (2 - 0.5))
    assert times["b"].self_s == pytest.approx((3 - 1) + 1.5)
    assert times["c"].self_s == pytest.approx(3.0)
    assert times["d"].self_s == pytest.approx(1.0)
    assert times["rpc"].self_s == pytest.approx(8.5)


def test_recorder_nests_spans_and_round_trips():
    rec = tracing.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    rec.record("rpc", 1.0, 2.0)
    rec.count("calls", 3)
    spans = tracing.spans_of(rec.snapshot())
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("rpc", -1)]
    assert rec.snapshot()["counters"] == {"calls": 3}


# -- wrappers ---------------------------------------------------------------------------


def _attributes():
    return {
        (owner, attr): vars(owner)[attr]
        for owner, attr, _ in tracing.targets(tracing.Recorder())
    }


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = _attributes()
    assert tracing.wrapped_attributes() == []
    uninstall = tracing.install(tracing.Recorder())
    try:
        during = _attributes()
        assert all(during[key] is not before[key] for key in before)
        assert len(tracing.wrapped_attributes()) == len(before)
    finally:
        uninstall()
    after = _attributes()
    assert all(after[key] is before[key] for key in before)
    assert tracing.wrapped_attributes() == []


def test_untraced_job_runs_no_wrapper():
    result = harness.run_forked(lambda: harness.dist_job(tiny_clicklog()))
    assert result["ok"], result.get("error")
    assert result["wrappers"] == 0
    assert "layers" not in result
    assert result["leaked_children"] == 0


def test_job_started_with_wrappers_fails():
    uninstall = tracing.install(tracing.Recorder())
    try:
        result = harness.run_forked(lambda: {"ok": True, "wrappers": len(tracing.wrapped_attributes())})
    finally:
        uninstall()
    assert not result["ok"]


# -- collection from forked processes ------------------------------------------------


def test_traced_job_collects_spans_from_every_worker_and_shard(tmp_path):
    workload = tiny_clicklog()
    result = harness.run_forked(lambda: harness.dist_job(workload, str(tmp_path)))
    assert result["ok"], result.get("error")
    trace, layers = result["trace"], result["layers"]
    assert trace["child_dumps"] == trace["children_expected"] == 4
    assert len(list(tmp_path.glob("spans-*.pkl"))) == 4
    # Each layer's spans come from the process that hosts it.
    assert layers["task.emit_calls"] == workload.records  # workers
    assert layers["store.local.insert_s"] > 0  # shards
    assert layers["master.fill_s"] > 0  # the job process itself
    assert layers["worker.cpu_s"] > 0 and layers["server.cpu_s"] > 0
    assert layers["serde.records"] >= workload.records
    assert layers["client.remove_batch_calls"] > 0


def test_watchdog_kills_a_hung_job_and_its_children():
    def hang():
        import multiprocessing
        import time

        multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,)).start()
        time.sleep(60)

    started = time.monotonic()
    result = harness.run_forked(hang, watchdog_s=1.0)
    assert not result["ok"] and "killed" in result["error"]
    assert result["leaked_children"] == 1
    assert time.monotonic() - started < 10


def test_temp_sweep_counts_runtime_leftovers(tmp_path):
    (tmp_path / "repro-dist-abc").mkdir()
    (tmp_path / "stray.sock").write_text("")
    (tmp_path / "other").write_text("")
    assert harness.sweep_temp_dir(str(tmp_path)) == 2
    assert list(tmp_path.iterdir()) == []


# -- speed probe ------------------------------------------------------------------------


def test_times_scale_to_reference_speed():
    job = {"wall_s": 4.0, "cpu_s": 6.0, "setup_s": [0.2, 0.4], "peak_rss_mb": 40.0}
    ref = speed.REFERENCE_S
    # The host lent half its throughput: probes took twice the reference
    # wall time, but their CPU seconds rose only by a fifth.
    before, after = speed.Probe(1.5 * ref, 1.1 * ref), speed.Probe(2.5 * ref, 1.3 * ref)
    run.at_reference_speed(job, 1000, before, after)
    assert job["wall_s"] == pytest.approx(2.0)
    assert job["cpu_s"] == pytest.approx(5.0)
    assert job["setup_s"] == pytest.approx([0.1, 0.2])
    assert job["records_per_s"] == pytest.approx(500.0)
    assert job["peak_rss_mb"] == 40.0
    assert (job["raw_wall_s"], job["raw_cpu_s"], job["raw_setup_s"]) == (4.0, 6.0, [0.2, 0.4])


def test_probe_runs_the_fixed_kernel_on_each_process():
    assert speed.reference_kernel(800) == speed.reference_kernel(800)
    wall_s, cpu_s = speed.probe(2, reps=1)
    assert 0 < cpu_s < 30 and 0 < wall_s < 30


# -- compare ------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in steady]
    slower = [x * 1.3 for x in steady]
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(steady, faster, 1.0, "lower", 0.1) == "improved"
    assert compare.verdict(steady, slower, 0.0, "lower", 0.1) == "regressed"
    assert compare.verdict(steady, steady, 0.0, "lower", 0.1) == "unchanged"
    assert compare.verdict(noisy, slower, 0.3, "lower", 0.1) == "unresolved"
    # Higher is better: the same numbers read the other way round.
    assert compare.verdict(steady, slower, 1.0, "higher", 0.1) == "improved"
    assert compare.verdict(steady, faster, 0.0, "higher", 0.1) == "regressed"
