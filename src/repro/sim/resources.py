"""Resource models for the cluster simulation.

Three resource types cover everything the Hurricane model needs:

* :class:`Resource` — a counted semaphore (worker slots on a compute node).
* :class:`Store` — an unbounded FIFO queue with blocking ``get`` (RPC
  inboxes of simulated storage servers and task managers).
* :class:`BandwidthServer` — a processor-sharing capacity server: all active
  flows share ``rate`` equally, optionally capped per flow. Disks and NICs
  are uncapped PS servers; a CPU is a PS server with ``rate = cores`` and a
  per-flow cap of one core (one thread cannot use more than one core).

All three track a busy-time integral so the runtime can compute utilization
— the signal Hurricane's overload detector monitors (Section 4.2).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event

_EPS = 1e-9


class Resource:
    """A counted semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Enqueue time of each waiter, recorded only while tracing so the
        #: grant can report how long it waited.
        self._wait_from: Dict[Event, float] = {}
        self._busy_integral = 0.0
        self._last_update = env.now

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += self._in_use * (now - self._last_update)
        self._last_update = now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires once a token is granted."""
        self._account()
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
            tracer = self.env.tracer
            if tracer.enabled:
                self._wait_from[event] = self.env.now
                tracer.counter(
                    f"resource.{self.name or 'anon'}",
                    queued=float(len(self._waiters)),
                    in_use=float(self._in_use),
                )
        return event

    def release(self) -> None:
        """Return one token, granting it to the oldest waiter if any."""
        self._account()
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # Token passes directly to the next waiter; in_use is unchanged.
            waiter = self._waiters.popleft()
            tracer = self.env.tracer
            if tracer.enabled:
                waited = self.env.now - self._wait_from.pop(waiter, self.env.now)
                label = self.name or "anon"
                tracer.inc(f"resource.{label}.wait_seconds", waited)
                tracer.inc(f"resource.{label}.grants_after_wait")
                tracer.counter(
                    f"resource.{label}",
                    queued=float(len(self._waiters)),
                    in_use=float(self._in_use),
                )
            waiter.succeed()
        else:
            self._in_use -= 1

    def busy_seconds(self) -> float:
        """Integral of tokens-in-use over time (token-seconds)."""
        self._account()
        return self._busy_integral


class Store:
    """An unbounded FIFO queue; ``get`` blocks until an item is available."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items

    def cancel(self, event: Event) -> bool:
        """Forget a waiting getter (its process died before being served).

        Returns False if the getter was already served (or never queued) —
        the caller then owns whatever value the event carries.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False


class _Flow:
    __slots__ = ("remaining", "event", "aborted")

    def __init__(self, remaining: float, event: Event):
        self.remaining = remaining
        self.event = event
        self.aborted = False


class BandwidthServer:
    """Processor-sharing capacity server.

    Active flows each receive ``min(per_flow_cap, rate / n_flows)``. Because
    every flow gets the same instantaneous rate, the next completion is the
    flow with the least remaining work; the server re-plans on every arrival
    and departure. Work units are arbitrary (bytes for disks and NICs,
    core-seconds for CPUs).
    """

    def __init__(
        self,
        env: Environment,
        rate: float,
        per_flow_cap: Optional[float] = None,
        name: str = "",
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise ValueError(f"per_flow_cap must be positive, got {per_flow_cap}")
        self.env = env
        self.rate = float(rate)
        self.per_flow_cap = per_flow_cap
        self.name = name
        self._flows: List[_Flow] = []
        self._last_update = env.now
        self._generation = 0
        self._busy_integral = 0.0  # delivered work (units)

    # -- rate bookkeeping --------------------------------------------------

    def _rate_per_flow(self) -> float:
        n = len(self._flows)
        if n == 0:
            return 0.0
        share = self.rate / n
        cap = self.per_flow_cap
        # Same result as min(share, cap), without the builtin call.
        if cap is not None and cap < share:
            share = cap
        return share

    def _settle(self) -> None:
        """Advance all flows to the current time."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        r = self._rate_per_flow()
        progress = r * dt
        self._busy_integral += progress * len(self._flows)
        for flow in self._flows:
            flow.remaining -= progress

    def _replan(self) -> None:
        """Schedule a wakeup at the next flow completion.

        The wake carries the generation it was planned in as its value;
        any arrival or departure bumps the generation and so makes the
        wake stale.
        """
        self._generation += 1
        if not self._flows:
            return
        r = self._rate_per_flow()
        shortest = min([flow.remaining for flow in self._flows])
        delay = max(0.0, shortest / r)
        wake = self.env.timeout(delay, self._generation)
        wake.callbacks.append(self._on_wake)

    def _on_wake(self, wake: Event) -> None:
        if wake._value != self._generation:
            return  # superseded by a later arrival/departure
        self._settle()
        finished = [f for f in self._flows if f.remaining <= _EPS]
        if not finished and self._flows:
            # Float round-off: the wake fired at the predicted completion of
            # the then-shortest flow and membership is unchanged (generation
            # matched), so that flow *is* done — complete it explicitly
            # rather than re-planning a zero-delay wake forever.
            shortest = min(self._flows, key=lambda f: f.remaining)
            shortest.remaining = 0.0
            finished = [shortest]
        self._flows = [f for f in self._flows if f.remaining > _EPS]
        for flow in finished:
            if not flow.aborted:
                flow.event.succeed()
        self._replan()

    # -- public API ---------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def demand(self) -> float:
        """Instantaneous demand relative to capacity (may exceed 1.0).

        With a per-flow cap this is ``n_flows * cap / rate`` — the load a CPU
        *would* serve if it had enough cores; the overload detector treats a
        sustained demand above ~1 as saturation.
        """
        if not self._flows:
            return 0.0
        cap = self.per_flow_cap if self.per_flow_cap is not None else self.rate
        return len(self._flows) * cap / self.rate

    def utilization(self) -> float:
        """Fraction of capacity currently in use (0..1)."""
        if not self._flows:
            return 0.0
        return self._rate_per_flow() * len(self._flows) / self.rate

    def delivered_work(self) -> float:
        """Total work served so far (units)."""
        self._settle()
        return self._busy_integral

    def transfer(self, amount: float) -> Event:
        """Start a flow of ``amount`` work units; the event fires at completion."""
        if not math.isfinite(amount):
            raise ValueError(f"transfer amount must be finite, got {amount}")
        event = self.env.event()
        if amount <= 0:
            event.succeed()
            return event
        self._settle()
        self._flows.append(_Flow(float(amount), event))
        self._replan()
        return event

    def abort_all(self, fail_with: Optional[BaseException] = None) -> int:
        """Abort every in-flight flow (node crash).

        With ``fail_with`` set, each flow's event fails with that exception
        so waiting clients can observe the loss and retry elsewhere; without
        it, events simply never fire (callers must be interrupted separately).
        Returns the number of aborted flows.
        """
        self._settle()
        n = len(self._flows)
        for flow in self._flows:
            flow.aborted = True
            if fail_with is not None:
                flow.event.fail(fail_with)
        self._flows = []
        self._replan()
        return n
