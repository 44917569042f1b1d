"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt, Resource
from repro.trace import Tracer


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.0, 7.5]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "result"

    assert env.run(until=env.process(proc(env))) == "result"


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "b", 2))
    env.process(proc(env, "a", 1))
    env.process(proc(env, "c", 3))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_value_passing():
    env = Environment()
    event = env.event()

    def producer(env):
        yield env.timeout(3)
        event.succeed(42)

    def consumer(env):
        value = yield event
        return (env.now, value)

    env.process(producer(env))
    assert env.run(until=env.process(consumer(env))) == (3.0, 42)


def test_failed_event_raises_into_process():
    env = Environment()
    event = env.event()

    def failer(env):
        yield env.timeout(1)
        event.fail(ValueError("boom"))

    def catcher(env):
        try:
            yield event
        except ValueError as exc:
            return str(exc)

    env.process(failer(env))
    assert env.run(until=env.process(catcher(env))) == "boom"


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_waiting_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
            return "slept"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(4)
        proc.interrupt("reason")

    env.process(killer(env))
    assert env.run(until=proc) == ("interrupted", "reason", 4.0)


def test_interrupt_terminated_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run(until=proc)
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env, delay):
        yield env.timeout(delay)
        return delay

    procs = [env.process(proc(env, d)) for d in (3, 1, 2)]

    def waiter(env):
        values = yield env.all_of(procs)
        return (env.now, values)

    assert env.run(until=env.process(waiter(env))) == (3.0, [3, 1, 2])


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env, delay):
        yield env.timeout(delay)
        return delay

    procs = [env.process(proc(env, d)) for d in (3, 1, 2)]

    def waiter(env):
        _event, value = yield env.any_of(procs)
        return (env.now, value)

    assert env.run(until=env.process(waiter(env))) == (1.0, 1)


def test_empty_all_of_fires_immediately():
    """Regression: AllOf([]) used to deadlock (no constituent calls _check)."""
    env = Environment()

    def waiter(env):
        values = yield env.all_of([])
        return (env.now, values)

    assert env.run(until=env.process(waiter(env))) == (0.0, [])


def test_empty_any_of_fires_immediately():
    """Regression: AnyOf([]) used to deadlock the waiting process forever."""
    env = Environment()

    def waiter(env):
        event, value = yield env.any_of([])
        return (env.now, event, value)

    assert env.run(until=env.process(waiter(env))) == (0.0, None, None)


def test_empty_condition_does_not_stall_later_events():
    env = Environment()
    order = []

    def empty_waiter(env):
        yield env.all_of([])
        order.append("empty")

    def sleeper(env):
        yield env.timeout(1)
        order.append("slept")

    env.process(empty_waiter(env))
    env.process(sleeper(env))
    env.run()
    assert order == ["empty", "slept"]


def test_run_until_time_stops_clock():
    env = Environment()
    env.process(iter([]) if False else _ticker(env))
    env.run(until=10.0)
    assert env.now == 10.0


def _ticker(env):
    while True:
        yield env.timeout(1)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_past_raises():
    env = Environment(initial_time=5)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="not an Event"):
        env.run()


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_already_processed_event():
    env = Environment()
    event = env.event()
    event.succeed("early")

    def late(env):
        yield env.timeout(2)
        value = yield event
        return value

    proc = env.process(late(env))
    assert env.run(until=proc) == "early"


# -- run-loop branches -----------------------------------------------------
#
# ``Environment.run`` is one loop with three stop conditions. These pin the
# exact ``step_count`` and clock each branch leaves behind: chaos calibrates
# deterministic ``max_steps`` budgets from ``step_count``, so an off-by-one
# in the loop would silently shift every budget.


def _three_tickers(env, log):
    """Three processes ticking at periods 1, 2 and 3 until t=6."""

    def ticker(period):
        while env.now + period <= 6:
            yield env.timeout(period)
            log.append((env.now, period))
        return period

    return [env.process(ticker(p)) for p in (1, 2, 3)]


def test_run_until_event_stops_at_exact_step():
    env = Environment()
    log = []
    procs = _three_tickers(env, log)
    assert env.run(until=procs[2]) == 3
    assert env.now == 6.0
    assert env.step_count == 13
    assert log[-1] == (6.0, 3)
    # The other tickers' last wakes are still queued; a plain run drains them.
    env.run()
    assert env.step_count == 17
    assert all(not p.is_alive for p in procs)


def test_run_until_time_stops_before_later_events():
    env = Environment()
    log = []
    _three_tickers(env, log)
    assert env.run(until=2.5) is None
    assert env.now == 2.5
    assert env.step_count == 6
    assert log == [(1.0, 1), (2.0, 2), (2.0, 1)]
    # An event exactly at the stop time is processed, not deferred.
    env.run(until=3.0)
    assert env.step_count == 8
    assert log[-2:] == [(3.0, 3), (3.0, 1)]


def test_max_steps_exhausted_at_exact_step_count():
    env = Environment()
    env.process(_ticker(env))
    with pytest.raises(SimulationError, match="step budget of 7 events"):
        env.run(max_steps=7)
    assert env.step_count == 7
    assert env.now == 6.0
    # The budget is per call: the next call may process 3 more events.
    with pytest.raises(SimulationError):
        env.run(max_steps=3)
    assert env.step_count == 10


def test_max_steps_not_exhausted_when_heap_drains_first():
    env = Environment()

    def short(env):
        yield env.timeout(1)
        yield env.timeout(1)

    env.process(short(env))
    env.run(max_steps=4)  # init, two timeouts, process exit: exactly 4
    assert env.step_count == 4
    with pytest.raises(ValueError):
        env.run(max_steps=-1)


def test_unhandled_failed_event_raised_out_of_run():
    env = Environment()
    event = env.event()
    event.fail(KeyError("nobody waits"))
    with pytest.raises(KeyError, match="nobody waits"):
        env.run()
    assert env.step_count == 1


def test_defused_failed_event_does_not_raise():
    env = Environment()
    event = env.event()
    event.fail(KeyError("handled elsewhere"))
    event.defuse()
    env.run()
    assert env.step_count == 1


def test_run_until_failed_event_reraises_its_exception():
    env = Environment()
    event = env.event()

    def failer(env):
        yield env.timeout(2)
        event.fail(OSError("lost"))

    def waiter(env):
        try:
            yield event
        except OSError:
            pass

    env.process(failer(env))
    env.process(waiter(env))
    with pytest.raises(OSError, match="lost"):
        env.run(until=event)
    assert env.now == 2.0


def test_run_until_event_that_never_fires():
    env = Environment()
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(until=env.event())


def test_stale_wake_after_interrupt_is_ignored():
    env = Environment()
    resumed = []

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            resumed.append(("interrupted", env.now))
        yield env.timeout(20)
        resumed.append(("woke", env.now))

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(1)
        proc.interrupt()

    env.process(killer(env))
    env.run()
    # The superseded timeout still fires at t=10 but does not resume the
    # process a second time.
    assert resumed == [("interrupted", 1.0), ("woke", 21.0)]
    assert env.step_count == 8


def test_stale_failed_event_after_interrupt_is_defused():
    env = Environment()
    doomed = env.event()

    def waiter(env):
        try:
            yield doomed
        except Interrupt:
            pass
        yield env.timeout(5)
        return env.now

    proc = env.process(waiter(env))

    def chaos(env):
        yield env.timeout(1)
        proc.interrupt()
        yield env.timeout(1)
        doomed.fail(RuntimeError("after the interrupt"))

    env.process(chaos(env))
    assert env.run(until=proc) == 6.0
    env.run()  # the stale failure must not surface here either


def test_contended_resource_with_live_tracer():
    env = Environment()
    env.tracer = Tracer(clock=lambda: env.now)
    res = Resource(env, capacity=1, name="slot")
    grants = []

    def user(env, name, arrive, hold):
        yield env.timeout(arrive)
        yield res.request()
        grants.append((name, env.now))
        yield env.timeout(hold)
        res.release()

    env.process(user(env, "a", 0, 4))
    env.process(user(env, "b", 1, 2))
    env.process(user(env, "c", 2, 1))
    env.run()
    assert grants == [("a", 0.0), ("b", 4.0), ("c", 6.0)]
    metrics = env.tracer.metrics_snapshot()
    assert metrics["resource.slot.wait_seconds"] == 3.0 + 4.0
    assert metrics["resource.slot.grants_after_wait"] == 2.0
    samples = env.tracer.events(name="resource.slot")
    assert [s["args"]["queued"] for s in samples] == [1.0, 2.0, 1.0, 0.0]
    assert env.step_count == 15


def test_nan_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    assert env.peek() == float("inf")  # nothing reached the heap
