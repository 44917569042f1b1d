"""Primary-backup replication for storage nodes (Section 4.4).

An application tolerates ``n`` storage-node failures with ``n + 1``-way
replication. Replicas of (the shard homed at) node ``i`` live on the next
``r - 1`` nodes in ring order. Shard *state* (read pointers) is logical and
replicated implicitly; what replication changes physically is (a) inserts
write ``r`` copies and (b) reads are served by the first live replica.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Tuple

from repro.errors import ReplicationError


def ring_successors(position: int, total: int, count: int) -> List[int]:
    """Ring positions ``position, position+1, ... (mod total)``, ``count`` long.

    The one placement rule both replication layers share: replicas of the
    shard homed at ring position ``p`` live on the next ``count - 1``
    positions in ring order. :class:`ReplicaMap` (the sim) and the dist
    engine's :class:`~repro.dist.sharding.ShardRouter` both derive their
    replica sets from this function, so the real engine provably models
    the same policy the simulator's experiments measure
    (``tests/test_property_sharding.py`` pins the equivalence).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > total:
        raise ValueError(f"count {count} exceeds ring size {total}")
    return [(position + j) % total for j in range(count)]


def stable_spread(key: str, buckets: int) -> int:
    """Uniform pseudorandom bucket for ``key``, stable across processes.

    This is the placement primitive behind the paper's always-spread
    storage: both the sim's per-bag shard homing and the dist engine's
    :class:`~repro.dist.sharding.ShardRouter` place by this function, so
    the two layers model the *same* policy. Uses a keyed blake2b digest
    rather than Python's builtin ``hash``, which is salted per process
    (``PYTHONHASHSEED``) and therefore useless for cross-process
    placement agreement.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


class ReplicaMap:
    def __init__(self, node_indices: List[int], replication: int = 1):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if replication > len(node_indices):
            raise ValueError(
                f"replication {replication} exceeds node count {len(node_indices)}"
            )
        self.nodes = list(node_indices)
        self.replication = replication
        self._ring_pos = {node: i for i, node in enumerate(self.nodes)}
        #: Replica sets frozen at ring-growth time. Without pinning, adding
        #: a node silently *changes* the wrap-around assignments: a shard
        #: homed near the ring tail would swap a backup that already holds
        #: its copies for the newcomer, which holds nothing.
        self._pinned: Dict[int, List[int]] = {}
        #: Each home's replica set as resolved for the current ring. Reads
        #: and work-bag probes look it up per chunk; only ring growth can
        #: change it, so :meth:`add_node` clears it.
        self._cache: Dict[int, Tuple[int, ...]] = {}

    def add_node(self, node: int) -> None:
        """Append a new storage node to the replica ring (Section 3.4).

        Existing shard->replica assignments are pinned as-is: data was
        written to the replica sets in force before the ring grew, so the
        map must keep pointing reads at those copies. Only shards homed on
        nodes added from now on wrap onto the newcomer.
        """
        if node in self._ring_pos:
            return
        for home in self.nodes:
            self._pinned.setdefault(home, self._ring_replicas(home))
        self._ring_pos[node] = len(self.nodes)
        self.nodes.append(node)
        self._cache.clear()

    def _ring_replicas(self, home: int) -> List[int]:
        pos = self._ring_pos[home]
        m = len(self.nodes)
        return [
            self.nodes[p] for p in ring_successors(pos, m, self.replication)
        ]

    def home_of(self, key: str) -> int:
        """The ring node that homes ``key`` under pseudorandom spread.

        Keys spread uniformly over the *current* ring via
        :func:`stable_spread` — the same placement the dist engine's
        ``ShardRouter`` applies to bag ids, so sim placement experiments
        and real sharded runs agree on who owns what.
        """
        return self.nodes[stable_spread(key, len(self.nodes))]

    def _replica_set(self, home: int) -> Tuple[int, ...]:
        cached = self._cache.get(home)
        if cached is None:
            pinned = self._pinned.get(home)
            cached = tuple(pinned if pinned is not None else self._ring_replicas(home))
            self._cache[home] = cached
        return cached

    def replicas(self, home: int) -> List[int]:
        """All nodes holding a copy of the shard homed at ``home``."""
        return list(self._replica_set(home))

    def has_live_replica(self, home: int, is_alive: Callable[[int], bool]) -> bool:
        """Whether any replica of ``home``'s shard can serve right now."""
        for node in self._replica_set(home):
            if is_alive(node):
                return True
        return False

    def serving_replica(self, home: int, is_alive: Callable[[int], bool]) -> int:
        """The node that serves reads for ``home``'s shard right now."""
        for node in self._replica_set(home):
            if is_alive(node):
                return node
        raise ReplicationError(
            f"all {self.replication} replicas of shard {home} are dead"
        )
