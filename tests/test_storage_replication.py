"""Tests for the primary-backup replica map."""

import pytest

from repro.errors import ReplicationError
from repro.storage.replication import ReplicaMap


def test_single_replica_is_home():
    rmap = ReplicaMap([0, 1, 2])
    assert rmap.replicas(1) == [1]


def test_ring_successors():
    rmap = ReplicaMap([0, 1, 2, 3], replication=3)
    assert rmap.replicas(2) == [2, 3, 0]


def test_serving_replica_prefers_primary():
    rmap = ReplicaMap([0, 1, 2], replication=2)
    assert rmap.serving_replica(1, lambda n: True) == 1


def test_serving_replica_fails_over():
    rmap = ReplicaMap([0, 1, 2], replication=2)
    assert rmap.serving_replica(1, lambda n: n != 1) == 2


def test_all_replicas_dead_raises():
    rmap = ReplicaMap([0, 1, 2], replication=2)
    with pytest.raises(ReplicationError):
        rmap.serving_replica(0, lambda n: False)


def test_n_plus_one_tolerates_n_failures():
    """The paper's claim: n+1 replication survives n storage failures."""
    nodes = list(range(8))
    for n_failures in range(3):
        rmap = ReplicaMap(nodes, replication=n_failures + 1)
        dead = set(nodes[: n_failures])
        for home in nodes:
            serving = rmap.serving_replica(home, lambda n: n not in dead)
            assert serving not in dead


def test_invalid_replication():
    with pytest.raises(ValueError):
        ReplicaMap([0, 1], replication=0)
    with pytest.raises(ValueError):
        ReplicaMap([0, 1], replication=3)


def test_non_contiguous_node_ids():
    rmap = ReplicaMap([5, 9, 12], replication=2)
    assert rmap.replicas(12) == [12, 5]


def test_add_node_pins_existing_assignments():
    """Ring growth must not silently swap a wrap-around backup that already
    holds a shard's copies for the empty newcomer."""
    rmap = ReplicaMap([0, 1, 2], replication=2)
    before = {home: rmap.replicas(home) for home in [0, 1, 2]}
    rmap.add_node(3)
    for home in [0, 1, 2]:
        assert rmap.replicas(home) == before[home]
    # The tail shard keeps its old wrap-around backup in particular.
    assert rmap.replicas(2) == [2, 0]
    # Only the newcomer's own shard uses the grown ring.
    assert rmap.replicas(3) == [3, 0]


def test_add_node_repeated_growth_with_replication():
    rmap = ReplicaMap([0, 1], replication=2)
    rmap.add_node(2)
    rmap.add_node(3)
    assert rmap.replicas(0) == [0, 1]
    assert rmap.replicas(1) == [1, 0]
    assert rmap.replicas(2) == [2, 0]  # pinned when node 3 arrived
    assert rmap.replicas(3) == [3, 0]
    # Failover still consults the pinned set.
    assert rmap.serving_replica(1, lambda n: n != 1) == 0


def test_has_live_replica():
    rmap = ReplicaMap([0, 1, 2], replication=2)
    assert rmap.has_live_replica(1, lambda n: n == 2)
    assert not rmap.has_live_replica(0, lambda n: n == 2)


def test_replicas_returns_a_fresh_list():
    """Replica sets are cached per home; callers still get their own list."""
    rmap = ReplicaMap([0, 1, 2], replication=2)
    first = rmap.replicas(1)
    first.append(99)
    assert rmap.replicas(1) == [1, 2]
    assert rmap.replicas(1) is not rmap.replicas(1)


def test_cached_lookups_agree_with_pinning_across_growth():
    """Interleaved lookups and growth resolve exactly as a map that never
    looked anything up before growing."""
    looked_up = ReplicaMap([0, 1, 2], replication=3)
    untouched = ReplicaMap([0, 1, 2], replication=3)
    for node in (3, 4, 5):
        for home in looked_up.nodes:
            looked_up.serving_replica(home, lambda n: True)
        looked_up.add_node(node)
        untouched.add_node(node)
    for home in range(6):
        assert looked_up.replicas(home) == untouched.replicas(home)
        assert looked_up.serving_replica(home, lambda n: n != home) == (
            untouched.replicas(home)[1]
        )
