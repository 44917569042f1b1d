"""Tests for Resource, Store, and the processor-sharing BandwidthServer."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthServer, Environment, Resource, Store


def _finish_times(env, bw, amounts, starts=None):
    """Run one flow per amount; return completion times."""
    starts = starts or [0.0] * len(amounts)
    times = {}

    def flow(env, index, start, amount):
        yield env.timeout(start)
        yield bw.transfer(amount)
        times[index] = env.now

    for i, (amount, start) in enumerate(zip(amounts, starts)):
        env.process(flow(env, i, start, amount))
    env.run()
    return [times[i] for i in range(len(amounts))]


class TestBandwidthServer:
    def test_single_flow_full_rate(self):
        env = Environment()
        bw = BandwidthServer(env, rate=100.0)
        assert _finish_times(env, bw, [200]) == [2.0]

    def test_two_flows_share_equally(self):
        env = Environment()
        bw = BandwidthServer(env, rate=100.0)
        assert _finish_times(env, bw, [100, 100]) == [2.0, 2.0]

    def test_unequal_flows(self):
        env = Environment()
        bw = BandwidthServer(env, rate=100.0)
        # 50 and 150: both at 50/s until t=1 (short done), then long at 100/s.
        assert _finish_times(env, bw, [50, 150]) == [1.0, 2.0]

    def test_late_arrival_shares(self):
        env = Environment()
        bw = BandwidthServer(env, rate=100.0)
        times = _finish_times(env, bw, [100, 50], starts=[0.0, 0.5])
        assert times == [pytest.approx(1.5), pytest.approx(1.5)]

    def test_per_flow_cap(self):
        env = Environment()
        cpu = BandwidthServer(env, rate=4.0, per_flow_cap=1.0)
        # One thread cannot use more than one core: 2 core-s takes 2 s.
        assert _finish_times(env, cpu, [2.0]) == [2.0]

    def test_capped_flows_below_capacity_dont_contend(self):
        env = Environment()
        cpu = BandwidthServer(env, rate=4.0, per_flow_cap=1.0)
        assert _finish_times(env, cpu, [1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_capped_flows_above_capacity_share(self):
        env = Environment()
        cpu = BandwidthServer(env, rate=2.0, per_flow_cap=1.0)
        # 4 threads on 2 cores: each runs at 0.5 core.
        assert _finish_times(env, cpu, [1.0] * 4) == [2.0] * 4

    def test_zero_transfer_completes_immediately(self):
        env = Environment()
        bw = BandwidthServer(env, rate=10.0)
        event = bw.transfer(0)
        assert event.triggered

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_transfer_rejected(self, amount):
        env = Environment()
        bw = BandwidthServer(env, rate=10.0)
        bw.transfer(5.0)
        with pytest.raises(ValueError, match="finite"):
            bw.transfer(amount)
        # The rejected flow never joined: the live one finishes on time.
        assert bw.active_flows == 1
        env.run()
        assert env.now == 0.5

    def test_stale_wake_after_arrival_is_ignored(self):
        """An arrival re-plans; the superseded wake still pops but is a no-op."""
        env = Environment()
        bw = BandwidthServer(env, rate=1.0)
        times = _finish_times(env, bw, [2.0, 2.0], starts=[0.0, 1.0])
        assert times == [3.0, 4.0]
        # The first flow's wake planned for t=2 went stale at the arrival
        # at t=1. It still pops and counts as a step (11, not 10), which
        # chaos's step budgets rely on.
        assert env.step_count == 11
        assert bw.delivered_work() == pytest.approx(4.0)

    def test_demand_and_utilization(self):
        env = Environment()
        cpu = BandwidthServer(env, rate=4.0, per_flow_cap=1.0)
        for _ in range(8):
            cpu.transfer(100.0)
        assert cpu.demand() == pytest.approx(2.0)
        assert cpu.utilization() == pytest.approx(1.0)

    def test_delivered_work_accounting(self):
        env = Environment()
        bw = BandwidthServer(env, rate=100.0)
        env.process(_one(env, bw, 300))
        env.run()
        assert bw.delivered_work() == pytest.approx(300.0)

    def test_abort_all_drops_flows(self):
        env = Environment()
        bw = BandwidthServer(env, rate=10.0)
        bw.transfer(1000)
        assert bw.abort_all() == 1
        assert bw.active_flows == 0

    def test_invalid_rate(self):
        env = Environment()
        with pytest.raises(ValueError):
            BandwidthServer(env, rate=0)

    def test_many_equal_flows_finish_together(self):
        env = Environment()
        bw = BandwidthServer(env, rate=7.0)
        times = _finish_times(env, bw, [10.0] * 13)
        assert all(t == pytest.approx(13 * 10 / 7) for t in times)


def _one(env, bw, amount):
    yield bw.transfer(amount)


class TestResource:
    def test_fifo_grant(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(env, name, hold):
            yield res.request()
            order.append((name, env.now))
            yield env.timeout(hold)
            res.release()

        env.process(user(env, "a", 2))
        env.process(user(env, "b", 1))
        env.run()
        assert order == [("a", 0.0), ("b", 2.0)]

    def test_capacity_respected(self):
        env = Environment()
        res = Resource(env, capacity=2)
        res.request()
        res.request()
        third = res.request()
        assert not third.triggered
        res.release()
        env.run()
        assert third.triggered

    def test_release_idle_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_busy_seconds(self):
        env = Environment()
        res = Resource(env, capacity=2)

        def user(env):
            yield res.request()
            yield env.timeout(5)
            res.release()

        env.process(user(env))
        env.process(user(env))
        env.run()
        assert res.busy_seconds() == pytest.approx(10.0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        event = store.get()
        assert event.triggered and event.value == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        result = []

        def getter(env):
            item = yield store.get()
            result.append((env.now, item))

        def putter(env):
            yield env.timeout(3)
            store.put("y")

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert result == [(3.0, "y")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        assert [store.get().value for _ in range(3)] == [1, 2, 3]

    def test_drain(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert store.drain() == [1, 2]
        assert len(store) == 0
