"""Client-side storage access: placement, batch sampling, flow control.

One :class:`StorageClient` lives on each compute node and is shared by all
workers on that node. It enforces the paper's flow-control rule — at most
``b`` storage requests in flight per compute node (Section 3.3) — with a
counted gate, places chunks in pseudorandom cyclic order across storage
nodes (or on the local node when data spreading is disabled, the Fig. 7/8
ablation), and exposes:

* :class:`BagReader` — batch-sampled destructive chunk removal: up to ``b``
  fetchers probe *distinct* storage nodes concurrently, so storage stays
  busy and the tail latency of a nearly-empty bag is ``m*L/b``;
* :class:`BagWriter` — buffered chunk insertion with the same placement and
  flow control, replicated when the catalog has replication enabled;
* :meth:`StorageClient.read_full` — non-destructive whole-bag read used to
  load side-input state (the "loading task state in a new clone" cost).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Generator, Optional, Set

from repro.cluster.cluster import Cluster
from repro.errors import BagError, ReplicationError, StorageNodeDown
from repro.sim.kernel import Environment
from repro.sim.rand import SplitMix, cyclic_permutations, derive_seed
from repro.sim.resources import Resource, Store
from repro.storage.bags import BagCatalog, SimBag
from repro.storage.policy import StorageConfig
from repro.storage.replication import ReplicaMap


class StorageClient:
    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        catalog: BagCatalog,
        compute_node: int,
        batch_factor: int = 10,
        spread: bool = True,
        replica_map: Optional[ReplicaMap] = None,
        granularity: int = 1,
        retry: Optional[StorageConfig] = None,
    ):
        if batch_factor < 1:
            raise ValueError(f"batch_factor must be >= 1, got {batch_factor}")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self.env = env
        self.cluster = cluster
        self.catalog = catalog
        self.compute_node = compute_node
        self.batch_factor = batch_factor
        self.spread = spread
        self.granularity = granularity
        self.replica_map = replica_map or ReplicaMap(catalog.storage_nodes)
        self.retry = retry or StorageConfig()
        #: Flow control: at most b outstanding storage requests per node.
        self.gate = Resource(env, batch_factor, name=f"gate{compute_node}")
        self.bytes_read = 0
        self.bytes_written = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def machine(self):
        return self.cluster.machine(self.compute_node)

    def _alive(self, node: int) -> bool:
        return self.cluster.machines[node].alive

    def _io_unit(self, bag: SimBag) -> int:
        return bag.chunk_size * self.granularity

    def _serving_replica_rpc(self, home: int) -> Generator:
        """Process: resolve the live serving replica for ``home``'s shard.

        When every replica is down the lookup does not fail immediately:
        the client backs off and retries per the storage retry policy, so a
        node that restarts within the policy window is transparent to the
        caller. Raises :class:`ReplicationError` once the policy is
        exhausted.
        """
        backoffs = self.retry.backoffs()
        while True:
            try:
                return self.replica_map.serving_replica(home, self._alive)
            except ReplicationError:
                delay = next(backoffs, None)
                if delay is None:
                    raise
            yield self.env.timeout(delay)

    def _read_shard(self, home: int, nbytes: int) -> Generator:
        """Disk read at a live replica + transfer to this compute node.

        A replica crashing mid-read raises StorageNodeDown into this
        process; the request is re-issued against the next live replica
        (the failover path of Section 4.4).
        """
        while True:
            serving = yield from self._serving_replica_rpc(home)
            source = self.cluster.machine(serving)
            try:
                yield self.env.timeout(source.spec.disk_latency)
                yield source.disk_io(nbytes)
            except StorageNodeDown:
                continue  # retry on the next live replica
            yield from self.cluster.network.transfer(source, self.machine, nbytes)
            self.bytes_read += nbytes
            return

    def _write_shard(self, home: int, nbytes: int) -> Generator:
        """Transfer to every live replica of ``home`` and write its disk.

        Succeeds as long as at least one replica accepted the write; a
        replica crashing mid-write is tolerated (the paper re-replicates
        such shards offline). Finding *no* live replica — or losing every
        live replica mid-write — backs off and retries per the storage
        retry policy before raising.
        """
        backoffs = self.retry.backoffs()
        while True:
            pending = []
            for replica in self.replica_map.replicas(home):
                if not self._alive(replica):
                    continue  # dead backup: skipped
                pending.append(self.env.process(self._write_one(replica, nbytes)))
            if pending:
                results = yield self.env.all_of(pending)
                if any(results):
                    self.bytes_written += nbytes
                    return
            delay = next(backoffs, None)
            if delay is None:
                raise BagError(f"no live replica to write shard {home}")
            yield self.env.timeout(delay)

    def _write_one(self, replica: int, nbytes: int) -> Generator:
        target = self.cluster.machine(replica)
        yield from self.cluster.network.transfer(self.machine, target, nbytes)
        try:
            yield self.env.timeout(target.spec.disk_latency)
            yield target.disk_io(nbytes)
        except StorageNodeDown:
            return False
        return True

    # -- public API ---------------------------------------------------------------

    def reader(self, bag_id: str) -> "BagReader":
        return BagReader(self, self.catalog.get(bag_id))

    def writer(self, bag_id: str) -> "BagWriter":
        return BagWriter(self, self.catalog.get(bag_id))

    def read_full(self, bag_id: str) -> Generator:
        """Process: non-destructively read the entire bag ("reuse" read).

        Returns the number of bytes read. Shards are fetched with the same
        b-bounded concurrency as destructive reads.
        """
        bag = self.catalog.get(bag_id)
        done = Store(self.env)
        outstanding = 0
        for home in self.catalog.storage_nodes:
            nbytes = bag.shard_bytes(home)
            if nbytes == 0:
                continue
            outstanding += 1
            self.env.process(self._read_full_shard(home, nbytes, done))
        total = 0
        for _ in range(outstanding):
            total += yield done.get()
        return total

    def _read_full_shard(self, home: int, nbytes: int, done: Store) -> Generator:
        unit = self.catalog.chunk_size * self.granularity
        read = 0
        while read < nbytes:
            step = min(unit, nbytes - read)
            yield self.gate.request()
            try:
                yield from self._read_shard(home, step)
            finally:
                self.gate.release()
            read += step
        done.put(read)


_DONE = object()


class BagReader:
    """Batch-sampled destructive reads from one bag.

    Spawns ``min(b, m)`` fetcher processes. Fetchers draw storage nodes
    from a shared pseudorandom cyclic order and never target the same node
    concurrently, matching "requests to a fixed number b of *different*
    storage nodes". Workers consume with ``size = yield from
    reader.next_chunk()``; ``None`` means the bag is exhausted.
    """

    def __init__(self, client: StorageClient, bag: SimBag):
        self.client = client
        self.env = client.env
        self.bag = bag
        self._results = Store(self.env)
        self._exhausted: Set[int] = set()
        self._stopped = False
        # Snapshot the roster: a reader probes the shards that exist when it
        # starts; nodes added later only receive *new* writes, and this bag
        # is sealed before consumption.
        self._nodes = list(bag.shards)
        seed = derive_seed("reader", bag.bag_id, client.compute_node)
        self._perms = cyclic_permutations(len(self._nodes), seed)
        self._order = deque(self._nodes[i] for i in next(self._perms))
        self._fetchers = min(client.batch_factor, len(self._nodes))
        self._live_fetchers = self._fetchers
        # Flow control: at most b chunks fetched-but-not-yet-consumed. This
        # is what keeps a slow worker from hoarding the bag while its clones
        # starve — consuming a chunk is what licenses the next fetch.
        self._credits = Resource(
            self.env, client.batch_factor, name=f"credits.{bag.bag_id}"
        )
        for _ in range(self._fetchers):
            self.env.process(self._fetch_loop())

    def stop(self) -> None:
        """Abandon the read (worker killed); fetchers wind down.

        Chunks that were destructively taken but never consumed — buffered
        in the result queue, or in flight in a fetcher — are written back to
        their shards so the bag's byte accounting survives the kill.
        """
        self._stopped = True
        returned = 0
        for item in self._results.drain():
            if item is _DONE:
                self._results.put(_DONE)  # keep signalling for late callers
                continue
            node, nbytes, gen = item
            returned += self._putback(node, nbytes, gen)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "reader_stopped", cat="storage", bag=self.bag.bag_id,
                tid=f"node{self.client.compute_node}", putback_bytes=returned,
            )
            tracer.inc("storage.putback_bytes", returned)

    def _putback(self, node: int, nbytes: int, gen: int) -> int:
        """Return unconsumed bytes to their shard; stale generations are
        dropped (a rewind/discard since the take already reset the pointer).
        Returns the bytes actually restored."""
        if gen != self.bag.generation:
            return 0
        self.bag.putback(node, nbytes)
        return nbytes

    def _next_node(self) -> Optional[int]:
        nodes = self._nodes
        if len(self._exhausted) >= len(nodes):
            return None
        if not self._order:
            self._order.extend(
                nodes[i] for i in next(self._perms) if nodes[i] not in self._exhausted
            )
        while self._order:
            node = self._order.popleft()
            if node not in self._exhausted:
                return node
        return None

    def _fetch_loop(self) -> Generator:
        client = self.client
        env = self.env
        rtt = client.machine.spec.network_rtt
        while not self._stopped:
            node = self._next_node()
            if node is None:
                if len(self._exhausted) >= len(self._nodes):
                    break
                yield env.timeout(rtt)  # all candidates busy; try again shortly
                continue
            grabbed = 0
            yield self._credits.request()
            yield client.gate.request()
            tracer = env.tracer
            span = (
                tracer.span(
                    f"fetch {self.bag.bag_id}", cat="storage",
                    tid=f"node{client.compute_node}", node=node,
                )
                if tracer.enabled
                else None
            )
            try:
                yield env.timeout(rtt / 2.0)  # the probe itself
                grabbed = self.bag.take(node, client._io_unit(self.bag))
                gen = self.bag.generation
                if grabbed == 0:
                    if self.bag.sealed:
                        self._exhausted.add(node)
                    yield env.timeout(rtt / 2.0)  # empty reply
                else:
                    yield from client._read_shard(node, grabbed)
            finally:
                client.gate.release()
            if span is not None:
                span.end(bytes=grabbed)
                tracer.inc(f"storage.fetched_bytes.{self.bag.bag_id}", grabbed)
            if grabbed and not self._stopped:
                # Credit released by the consumer.
                self._results.put((node, grabbed, gen))
            elif grabbed:
                # Stopped with a chunk in hand: return it to its shard
                # instead of destroying it (the kill-during-read leak).
                self._putback(node, grabbed, gen)
                self._credits.release()
            else:
                self._credits.release()
            if node not in self._exhausted:
                self._order.append(node)
        self._live_fetchers -= 1
        if self._live_fetchers == 0:
            self._results.put(_DONE)

    def next_chunk(self) -> Generator:
        """Process: the next chunk's byte count, or None when the bag is dry."""
        get = self._results.get()
        try:
            result = yield get
        except BaseException:
            # Killed while blocked here. A chunk may already be bound to
            # this dead consumer's get event (delivered in the same step the
            # interrupt was scheduled); reclaim it so it is not destroyed.
            if get.triggered:
                if get.value is _DONE:
                    self._results.put(_DONE)
                else:
                    node, nbytes, gen = get.value
                    self._putback(node, nbytes, gen)
                    self._credits.release()
            else:
                self._results.cancel(get)
            raise
        if result is _DONE:
            self._results.put(_DONE)  # keep signalling for late callers
            return None
        self._credits.release()
        _node, nbytes, _gen = result
        return nbytes


class BagWriter:
    """Buffered, pipelined chunk insertion into one bag."""

    def __init__(self, client: StorageClient, bag: SimBag):
        self.client = client
        self.env = client.env
        self.bag = bag
        self._buffered = 0.0
        self._inflight = 0
        self._drained = self.env.event()
        self._rng = SplitMix(derive_seed("writer", bag.bag_id, client.compute_node))
        self._cycle: deque = deque()

    def _next_node(self) -> int:
        if not self.client.spread:
            return self.client.compute_node
        if not self._cycle:
            # Re-shuffle the *current* writable roster each cycle so node
            # additions start receiving chunks and draining nodes stop.
            nodes = self.client.catalog.writable_nodes()
            if not nodes:
                raise BagError("no writable storage nodes (all draining)")
            self._cycle.extend(
                nodes[i] for i in self._rng.permutation(len(nodes))
            )
        return self._cycle.popleft()

    def add(self, nbytes: float) -> None:
        """Buffer output bytes; full chunks are flushed asynchronously."""
        if nbytes < 0:
            raise BagError(f"negative insert of {nbytes} bytes")
        self._buffered += nbytes
        unit = self.client._io_unit(self.bag)
        while self._buffered >= unit:
            self._buffered -= unit
            self._flush(unit)

    def _flush(self, nbytes: int) -> None:
        self._inflight += 1
        self.env.process(self._flush_proc(nbytes))

    def _flush_proc(self, nbytes: int) -> Generator:
        client = self.client
        node = self._next_node()
        yield client.gate.request()
        tracer = self.env.tracer
        span = (
            tracer.span(
                f"flush {self.bag.bag_id}", cat="storage",
                tid=f"node{client.compute_node}", node=node, bytes=nbytes,
            )
            if tracer.enabled
            else None
        )
        try:
            yield self.env.timeout(client.machine.spec.network_rtt / 2.0)
            yield from client._write_shard(node, nbytes)
            self.bag.write(node, nbytes)
        finally:
            if span is not None:
                span.end()
                tracer.inc(f"storage.flushed_bytes.{self.bag.bag_id}", nbytes)
            client.gate.release()
            self._inflight -= 1
            if self._inflight == 0:
                event, self._drained = self._drained, self.env.event()
                event.succeed()

    def close(self) -> Generator:
        """Process: flush the partial tail chunk and wait for all inserts.

        The tail is *ceiled*, not rounded: ``output_ratio`` accounting leaves
        fractional-byte residue in the buffer (e.g. 0.4 bytes), and rounding
        it away made repeated open/close cycles drift below the inserted
        totals. Ceiling carries the residue as a whole byte, so written
        totals never undercount what was inserted. The epsilon absorbs float
        accumulation error just above an exact integer.
        """
        tail = math.ceil(self._buffered - 1e-6)
        self._buffered = 0.0
        if tail > 0:
            self._flush(tail)
        while self._inflight > 0:
            yield self._drained
        return None
