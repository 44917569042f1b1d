"""Event loop, events, and generator-based processes.

The kernel is deliberately small: events carry callbacks, the environment
pops them off a heap in (time, priority, sequence) order, and a
:class:`Process` adapts a generator so that each ``yield``-ed event resumes
the generator with the event's value (or throws the event's exception).
Processes can be interrupted — the fault-injection harness uses this to
crash simulated compute nodes and application masters mid-flight.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.trace import NULL_TRACER

#: Priority for events scheduled by ``Event.succeed``; interrupts use URGENT
#: so that a crash beats any same-timestamp wakeup.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot occurrence with callbacks, a value, and an ok/failed flag."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired callbacks yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._heap, (env._now, priority, next(env._seq), self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A waiting process will have the exception thrown into it. If nothing
        ever waits on a failed event the environment re-raises it at the end
        of the step, so failures never pass silently.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    The hot path of every simulation: this pushes the heap entry itself
    rather than going through ``Event.__init__`` and ``Environment._schedule``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # ``not >=`` also rejects NaN, which would corrupt the heap order.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._heap, (env._now + delay, NORMAL, next(env._seq), self))


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _InterruptEvent(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [process._resume]
        process.env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator; the process event fires when the generator returns.

    The generator yields :class:`Event` instances. When a yielded event
    succeeds, the generator is resumed with the event's value; when it fails,
    the exception is thrown into the generator (which may catch it).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = getattr(generator, "__name__", "process")
        if env.tracer.enabled:
            env.tracer.instant("process_spawn", cat="process", proc=self.name)
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks = [self._resume]
        self._target = init
        env._schedule(init, NORMAL)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already terminated")
        if self.env.tracer.enabled:
            self.env.tracer.instant(
                "process_interrupt", cat="process", proc=self.name,
                cause=repr(cause),
            )
        _InterruptEvent(self, cause)

    def _resume(self, event: Event) -> None:
        # Stale wakeup: the process was interrupted while waiting on `event`
        # and has since moved on (or died). Ignore, but treat an unhandled
        # failure as handled because the interrupt superseded it.
        if event is not self._target and type(event) is not _InterruptEvent:
            if not event._ok:
                event._defused = True
            return
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        env = self.env
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self._target = None
            if env.tracer.enabled:
                env.tracer.instant(
                    "process_fail", cat="process", proc=self.name,
                    exception=type(exc).__name__,
                )
            self.fail(exc, priority=URGENT)
            return
        if type(next_event) is not Timeout and not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded {next_event!r}, which is not an Event"
            )
        callbacks = next_event.callbacks
        if callbacks is not None:
            self._target = next_event
            callbacks.append(self._resume)
            return
        # Already processed: resume immediately via a proxy event.
        proxy = Event(env)
        proxy._ok = next_event._ok
        proxy._value = next_event._value
        if not next_event._ok:
            next_event._defused = True
        proxy.callbacks = [self._resume]
        self._target = proxy
        env._schedule(proxy, NORMAL)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        if not self._events:
            # An empty condition is vacuously satisfied. Without this it
            # would deadlock: no constituent ever calls _check, so the
            # condition never fires and its waiter sleeps forever.
            self._trigger_empty()
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _trigger_empty(self) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value is the list of values."""

    __slots__ = ()

    def _trigger_empty(self) -> None:
        self.succeed([])

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed([ev._value for ev in self._events])


class AnyOf(_Condition):
    """Fires when the first constituent event fires; value is (event, value)."""

    __slots__ = ()

    def _trigger_empty(self) -> None:
        self.succeed((None, None))

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed((event, event._value))


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List = []
        self._seq = count()
        #: Total events processed over the environment's lifetime. Used to
        #: calibrate deterministic step budgets (see :meth:`run`).
        self.step_count = 0
        #: Observability hook; NULL_TRACER is a shared no-op, so tracing is
        #: off unless a runtime installs a live Tracer.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL) -> None:
        heappush(self._heap, (self._now, priority, next(self._seq), event))

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event."""
        when, _prio, _seq, event = heappop(self._heap)
        if when < self._now - 1e-12:
            raise SimulationError(
                f"time went backwards: {when} < {self._now}"
            )
        self._now = max(self._now, when)
        self.step_count += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(
        self, until: Optional[object] = None, max_steps: Optional[int] = None
    ) -> Any:
        """Run until ``until`` (an Event or a time), or until the heap drains.

        Returns the value of the ``until`` event if one was given.
        ``max_steps`` bounds how many further events this call may process;
        exceeding it raises :class:`SimulationError`. Unlike a wall-clock
        watchdog it is deterministic, so fuzzing harnesses can use it to
        turn a livelocked schedule into a reproducible failure.

        The loop body is :meth:`step` inlined: each event is popped,
        counted and dispatched exactly as ``step`` would.
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        budget_limit: Optional[int] = None
        if max_steps is not None:
            if max_steps < 0:
                raise ValueError(f"negative max_steps: {max_steps}")
            budget_limit = self.step_count + max_steps
        heap = self._heap
        while heap:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if stop_at is not None and heap[0][0] > stop_at:
                self._now = stop_at
                return None
            if budget_limit is not None and self.step_count >= budget_limit:
                raise SimulationError(
                    f"step budget of {max_steps} events exhausted at t={self._now}"
                )
            when, _prio, _seq, event = heappop(heap)
            now = self._now
            if when > now:
                self._now = when
            elif when < now - 1e-12:
                raise SimulationError(f"time went backwards: {when} < {now}")
            self.step_count += 1
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_at is not None:
            self._now = stop_at
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")
