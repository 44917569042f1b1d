"""The benchmark's workloads: inputs from a seed, the job, and its oracle.

Each workload is a batch job driven through the public API from outside
the program: :meth:`repro.dist.DistRuntime.run` for the two dist
workloads and :meth:`repro.runtime.job.SimJob.run` for the simulator.
The benchmark generates the records from its seed and hands the program
only those records; the expected output is computed here, outside any
timed region.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List

from repro.apps.clicklog import build_clicklog_local, build_clicklog_sim
from repro.apps.hashjoin import build_hashjoin_local
from repro.cluster.spec import paper_cluster
from repro.experiments.common import auto_granularity
from repro.runtime.config import HurricaneConfig
from repro.runtime.job import SimJob
from repro.units import GB, KB, MB
from repro.workloads.clicklog_data import (
    exact_distinct_counts,
    generate_clicklog,
    region_name,
    region_of_ip,
)
from repro.workloads.relations import generate_relation, join_reference

#: Dist topology of every dist workload: no more processes than the
#: 2-core machine the baseline was measured on has cores.
TOPOLOGY = {"workers": 2, "shards": 2}

FINGERPRINT_PATH = os.path.join(os.path.dirname(__file__), "sim_fingerprint.json")


class DistWorkload:
    """A dist job: generated inputs, engine settings and an exact oracle."""

    kind = "dist"
    #: Speed-probe processes: one per vCPU the workers keep busy.
    probe_procs = TOPOLOGY["workers"]

    def __init__(
        self,
        name: str,
        build: Callable[[], Any],
        settings: Dict[str, Any],
        inputs: Dict[str, List[Any]],
        expected: Any,
        snapshot: Callable[[Any], Any],
    ):
        self.name = name
        self.build = build
        self.settings = dict(TOPOLOGY, **settings)
        self.inputs = inputs
        self.expected = expected
        self.snapshot = snapshot
        self.records = sum(len(records) for records in inputs.values())

    def empty_inputs(self) -> Dict[str, List[Any]]:
        return {bag_id: [] for bag_id in self.inputs}

    def check(self, result) -> bool:
        """True when the job's sinks equal the reference exactly."""
        return self.snapshot(result) == self.expected


def clicklog_fine(seed: int, records: int = 500_000, regions: int = 8) -> DistWorkload:
    """ClickLog over a Zipf-0.8 click log restricted to ``regions`` regions.

    4 KiB chunks make hundreds of chunks per phase, so per-chunk costs
    dominate: fetch RPC, frame codec, server dispatch and insert acks.
    500k clicks drawn (about 229k kept) make a job of about 2 s, so a
    run's median rests on about a dozen jobs; single jobs of this
    five-process workload can take 40% longer than their neighbours.
    ``unique_per_region`` is large enough that no region saturates, so a
    lost chunk shows in the distinct counts.
    """
    names = [region_name(i) for i in range(regions)]
    clicks = [
        ip
        for ip in generate_clicklog(
            records, skew=0.8, seed=seed, unique_per_region=1 << 16
        )
        if region_of_ip(ip) < regions
    ]
    distinct = exact_distinct_counts(clicks)
    expected = {name: distinct.get(name, 0) for name in names}
    return DistWorkload(
        "clicklog-fine",
        lambda: build_clicklog_local(regions=names),
        {"chunk_size": 4 * KB, "replication": 1},
        {"clicklog": clicks},
        expected,
        lambda result: {name: result.value(f"count.{name}") for name in names},
    )


def hashjoin_spill(
    seed: int, build_rows: int = 4000, probe_rows: int = 300_000, partitions: int = 4
) -> DistWorkload:
    """HashJoin of a Zipf-0.9 small relation with a uniform large one.

    Replication 2 and a 1 MiB resident budget, far below the ~4 MiB of
    encoded input, send every chunk through the segment store: backup
    fan-out writes, segment appends, compaction and paged reads.
    """
    left = list(generate_relation(build_rows, key_space=1 << 16, skew=0.9, seed=seed))
    right = list(generate_relation(probe_rows, key_space=1 << 16, skew=0.0, seed=seed))

    def snapshot(result):
        # Join output order depends on interleaving; compare it sorted.
        return sorted(
            row for p in range(partitions) for row in result.records(f"join.{p}")
        )

    return DistWorkload(
        "hashjoin-spill",
        lambda: build_hashjoin_local(partitions=partitions),
        {"replication": 2, "resident_bytes": 1 * MB},
        {"relation.r": left, "relation.s": right},
        join_reference(left, right),
        snapshot,
    )


class SimWorkload:
    """The simulated ClickLog job; its output is a committed fingerprint.

    The simulator's input is a cost model, not records, so the seed does
    not change it: every run simulates the same job. 16 GB (about 425k
    kernel events, 9 clones granted and 17 refused) takes about 4 s, so a
    run's median rests on about ten jobs; a 64 GB job takes 12 s, and a
    40 s run would hold three.
    """

    kind = "sim"
    #: The simulator runs on one process.
    probe_procs = 1
    name = "sim-clicklog-skew"
    total_bytes = 16 * GB
    #: One simulated click per 8 input bytes (the u64 record of the dist
    #: ClickLog), so ``records_per_s`` reads as the simulator's throughput.
    record_bytes = 8

    def __init__(self, fingerprint_path: str = FINGERPRINT_PATH):
        self.records = self.total_bytes // self.record_bytes
        with open(fingerprint_path) as src:
            self.expected = json.load(src)

    def setup(self) -> SimJob:
        app, inputs = build_clicklog_sim(self.total_bytes, skew=1.0, phase1_tasks=1)
        config = HurricaneConfig(granularity=auto_granularity(self.total_bytes))
        return SimJob(app.graph, inputs, cluster_spec=paper_cluster(32), config=config)

    def check(self, report) -> bool:
        return fingerprint(report) == self.expected


def fingerprint(report) -> Dict[str, Any]:
    """The parts of a sim report that must not change, JSON round-tripped."""
    return json.loads(
        json.dumps(
            {
                "makespan_s": report.runtime,
                "phases": {k: list(v) for k, v in sorted(report.phases.items())},
                "clones_granted": report.clones_granted,
                "clones_rejected": report.clones_rejected,
                "bytes_read": report.bytes_read,
                "bytes_written": report.bytes_written,
            }
        )
    )


WORKLOADS = {
    "clicklog-fine": clicklog_fine,
    "hashjoin-spill": hashjoin_spill,
    "sim-clicklog-skew": lambda seed: SimWorkload(),
}
