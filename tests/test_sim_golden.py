"""Golden reports: the simulator's exact output for five small jobs.

``test_determinism`` compares two runs of the same code, so it cannot
notice a change that alters the event schedule. These tests compare
against values committed in ``tests/data/sim_golden.json``: every float
in a report (makespan, phase spans, throughput timeline, event times) and
the kernel's ``step_count`` must match bit for bit. A kernel or resource
optimisation that reorders one heap entry or rounds one float differently
fails here.

The configs cover cloning under skew, HashJoin, interrupts plus replica
failover (a compute crash and a storage crash at ``replication=2``), ring
growth (``storage_added``, which pins replica sets) and one baseline
engine job. Regenerate the file only for a change that is *meant* to move
the schedule::

    PYTHONPATH=src python tests/test_sim_golden.py --record
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.apps import build_clicklog_sim, build_hashjoin_sim
from repro.baselines import BaselineEngine, SPARK_PROFILE, clicklog_baseline
from repro.cluster.spec import paper_cluster
from repro.runtime import FaultPlan, HurricaneConfig
from repro.runtime.job import SimJob
from repro.units import GB

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")


def _sim_record(job: SimJob) -> dict:
    report = job.run(timeout=3600)
    return {
        "runtime": report.runtime,
        "phases": {k: list(v) for k, v in sorted(report.phases.items())},
        "clone_counts": dict(sorted(report.clone_counts.items())),
        "clones_granted": report.clones_granted,
        "clones_rejected": report.clones_rejected,
        "bytes_read": report.bytes_read,
        "bytes_written": report.bytes_written,
        "timeline": [list(point) for point in report.timeline],
        "events": [[t, kind] for t, kind, _info in report.events],
        "step_count": job.env.step_count,
    }


def _clicklog_cloning() -> dict:
    app, inputs = build_clicklog_sim(4 * GB, skew=1.0)
    return _sim_record(SimJob(app.graph, inputs, cluster_spec=paper_cluster(8)))


def _hashjoin() -> dict:
    app, inputs = build_hashjoin_sim(GB // 2, 4 * GB, skew=1.0, partitions=16)
    return _sim_record(SimJob(app.graph, inputs, cluster_spec=paper_cluster(8)))


def _faults_replicated() -> dict:
    app, inputs = build_clicklog_sim(2 * GB, skew=0.8)
    plan = (
        FaultPlan()
        .crash_compute(at=3.0, node=2, restart_after=2.0)
        .crash_storage(at=4.0, node=5)
    )
    job = SimJob(
        app.graph,
        inputs,
        cluster_spec=paper_cluster(8),
        config=HurricaneConfig(replication=2),
        fault_plan=plan,
    )
    return _sim_record(job)


def _storage_added() -> dict:
    app, inputs = build_clicklog_sim(2 * GB, skew=0.8)
    job = SimJob(
        app.graph,
        inputs,
        cluster_spec=paper_cluster(8),
        config=HurricaneConfig(
            storage_nodes=[0, 1, 2, 3, 4, 5], replication=2
        ),
    )

    def grower():
        yield job.env.timeout(3.0)
        job.add_storage_node(6)
        yield job.env.timeout(1.0)
        job.add_storage_node(7)

    job.env.process(grower())
    return _sim_record(job)


def _baseline_spark() -> dict:
    engine = BaselineEngine(SPARK_PROFILE, paper_cluster(8))
    report = engine.run("clicklog", clicklog_baseline(2 * GB, skew=1.0), timeout=3600)
    return {
        "runtime": report.runtime,
        "stage_times": dict(sorted(report.stage_times.items())),
        "straggler_times": dict(sorted(report.straggler_times.items())),
        "spilled_bytes": report.spilled_bytes,
        "crashed": report.crashed,
        "timed_out": report.timed_out,
        "step_count": engine.env.step_count,
    }


CONFIGS = {
    "clicklog_cloning": _clicklog_cloning,
    "hashjoin": _hashjoin,
    "faults_replicated": _faults_replicated,
    "storage_added": _storage_added,
    "baseline_spark": _baseline_spark,
}


def _json_round_trip(record: dict) -> dict:
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as src:
        return json.load(src)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, golden):
    actual = _json_round_trip(CONFIGS[name]())
    expected = golden[name]
    # Field by field first, so a failure names what moved.
    for field_name in expected:
        assert actual[field_name] == expected[field_name], field_name
    assert actual == expected


def test_golden_configs_exercise_their_paths(golden):
    """Each config reaches the code path it is there to pin."""
    assert golden["clicklog_cloning"]["clones_granted"] > 0
    assert golden["clicklog_cloning"]["clones_rejected"] > 0
    assert golden["hashjoin"]["clones_granted"] > 0
    kinds = {kind for _t, kind in golden["faults_replicated"]["events"]}
    assert {"compute_crash", "compute_restart", "storage_crash"} <= kinds
    kinds = {kind for _t, kind in golden["storage_added"]["events"]}
    assert "storage_added" in kinds
    assert golden["baseline_spark"]["crashed"] is None


def _record() -> None:
    records = {name: _json_round_trip(build()) for name, build in sorted(CONFIGS.items())}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as out:
        json.dump(records, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_golden.py --record")
    _record()
