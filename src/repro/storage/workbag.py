"""Work bags: the decentralized task-queueing interface (Section 4.1).

Each application has three work bags — *ready*, *running*, and *done* —
spread across storage nodes like data bags, but holding task descriptors
instead of chunks. They are unordered; compute nodes poll the ready bag
for tasks, the running bag tracks in-flight work for failure handling, and
the done bag is an append-only log the master tails (and replays in full
after a master crash).

Items are small, so operations cost network round trips but no disk
bandwidth in the simulation.

Failure handling mirrors the chunk client (:mod:`repro.storage.client`):
every shard access first asks :meth:`ReplicaMap.has_live_replica`, so a
shard whose home node crashed is still served by a live backup when
replication > 1. A shard with *no* live replica is unreachable — inserts
back off and retry per the :class:`~repro.storage.policy.StorageConfig`
policy rather than homing items on a dead node, and probes/scans skip the
shard (its items are stranded, not lost: they become visible again when a
replica restarts).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import ReplicationError
from repro.sim.kernel import Environment
from repro.sim.rand import SplitMix, derive_seed
from repro.storage.policy import StorageConfig
from repro.storage.replication import ReplicaMap


class WorkBag:
    """An unordered distributed bag of task descriptors."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        name: str,
        storage_nodes: List[int],
        replica_map: Optional[ReplicaMap] = None,
        retry: Optional[StorageConfig] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.name = name
        self.storage_nodes = list(storage_nodes)
        self.replica_map = replica_map or ReplicaMap(self.storage_nodes)
        self.retry = retry or StorageConfig()
        self._shards: Dict[int, List[Any]] = {n: [] for n in self.storage_nodes}
        self._rng = SplitMix(derive_seed("workbag", name))

    def _rtt(self) -> float:
        return self.cluster.machines[0].spec.network_rtt

    def _alive(self, node: int) -> bool:
        return self.cluster.machines[node].alive

    def _reachable(self, home: int) -> bool:
        """Whether some live replica serves ``home``'s shard right now."""
        return self.replica_map.has_live_replica(home, self._alive)

    def _reachable_homes(self) -> List[int]:
        return [n for n in self.storage_nodes if self._reachable(n)]

    def insert(self, item: Any) -> Generator:
        """Process: place ``item`` at a pseudorandom *reachable* storage node.

        A node whose shard has no live replica receives nothing (inserting
        there would strand the descriptor until a restart). When every shard
        is unreachable the insert backs off and retries per the storage
        retry policy before raising :class:`ReplicationError`.
        """
        yield self.env.timeout(self._rtt())
        backoffs = self.retry.backoffs()
        while True:
            candidates = self._reachable_homes()
            if candidates:
                home = candidates[self._rng.randrange(len(candidates))]
                self._shards[home].append(item)
                return
            try:
                delay = next(backoffs)
            except StopIteration:
                raise ReplicationError(
                    f"no live replica for any shard of work bag {self.name!r}"
                ) from None
            yield self.env.timeout(delay)

    def try_remove(
        self, accept: Optional[Callable[[Any], bool]] = None
    ) -> Generator:
        """Process: probe nodes in pseudorandom cyclic order for one item.

        Returns the first item satisfying ``accept`` (or any item when
        ``accept`` is None); returns None after one full unsuccessful cycle.
        Unreachable shards (no live replica) are skipped without an RPC —
        there is nobody to answer the probe.
        """
        order = self._rng.permutation(len(self.storage_nodes))
        rtt = self._rtt()
        for position in order:
            home = self.storage_nodes[position]
            if not self._reachable(home):
                continue
            yield self.env.timeout(rtt)
            shard = self._shards[home]
            for index, item in enumerate(shard):
                if accept is None or accept(item):
                    return shard.pop(index)
        return None

    def scan(self, predicate: Callable[[Any], bool]) -> Generator:
        """Process: non-destructively collect all matching items.

        Items on unreachable shards are invisible to the scan; with
        replication > 1 that only happens once every replica of a shard is
        down.
        """
        matches: List[Any] = []
        for home in self.storage_nodes:
            if not self._reachable(home):
                continue
            yield self.env.timeout(self._rtt())
            matches.extend(item for item in self._shards[home] if predicate(item))
        return matches

    def discard(self, predicate: Callable[[Any], bool]) -> Generator:
        """Process: remove the first matching item (one round trip).

        Used when the caller knows the item exists (e.g. the master removing
        a completed task's running-bag entry): the storage node that holds it
        is part of the entry's identity, so this costs a single RPC rather
        than a full scan.
        """
        yield self.env.timeout(self._rtt())
        for home in self.storage_nodes:
            if not self._reachable(home):
                continue
            shard = self._shards[home]
            for index, item in enumerate(shard):
                if predicate(item):
                    return shard.pop(index)
        return None

    def remove_if(self, predicate: Callable[[Any], bool]) -> Generator:
        """Process: destructively remove all matching items; returns them.

        Unreachable shards are skipped: their items survive the purge and
        stay claimable after a replica restarts (callers purging a task
        family also tombstone the done log, so stale survivors are filtered
        at replay time).
        """
        removed: List[Any] = []
        for home in self.storage_nodes:
            if not self._reachable(home):
                continue
            yield self.env.timeout(self._rtt())
            shard = self._shards[home]
            kept = [item for item in shard if not predicate(item)]
            removed.extend(item for item in shard if predicate(item))
            self._shards[home] = kept
        return removed

    def items(self) -> List[Any]:
        """Snapshot of every shard's contents (offline; no RPC cost).

        For invariant checks and tests only — it sees items on unreachable
        shards too, unlike :meth:`scan`.
        """
        return [item for shard in self._shards.values() for item in shard]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())


class DoneLog:
    """The done work bag: an append-only, replayable completion log.

    The master consumes it by offset (``read_from``), so restarting the
    master and replaying from offset 0 reconstructs the execution graph —
    the paper's master-recovery mechanism (Section 4.4).
    """

    def __init__(self, env: Environment, cluster: Cluster, name: str = "done"):
        self.env = env
        self.cluster = cluster
        self.name = name
        self._log: List[Any] = []

    def append(self, item: Any) -> Generator:
        yield self.env.timeout(self.cluster.machines[0].spec.network_rtt)
        self._log.append(item)

    def read_from(self, offset: int) -> Generator:
        """Process: entries at ``offset`` onward -> (entries, new_offset)."""
        yield self.env.timeout(self.cluster.machines[0].spec.network_rtt)
        entries = self._log[offset:]
        return entries, offset + len(entries)

    def entries(self) -> List[Any]:
        """Snapshot of the full log (offline; no RPC cost)."""
        return list(self._log)

    def __len__(self) -> int:
        return len(self._log)


class WorkBags:
    """The ready/running/done triple for one application."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        storage_nodes: List[int],
        replica_map: Optional[ReplicaMap] = None,
        retry: Optional[StorageConfig] = None,
    ):
        self.ready = WorkBag(env, cluster, "ready", storage_nodes, replica_map, retry)
        self.running = WorkBag(
            env, cluster, "running", storage_nodes, replica_map, retry
        )
        self.done = DoneLog(env, cluster)
