"""Unit tests for the discrete-event engine, links, and rate accumulators."""

import pytest

from repro.sim.engine import Engine, Link, LinkCounters, RateAccumulator


class TestEngine:
    def test_events_run_in_time_order(self):
        e = Engine()
        out = []
        e.at(5, lambda: out.append(5))
        e.at(2, lambda: out.append(2))
        e.at(9, lambda: out.append(9))
        e.drain()
        assert out == [2, 5, 9]

    def test_same_cycle_fifo_order(self):
        e = Engine()
        out = []
        e.at(3, lambda: out.append("a"))
        e.at(3, lambda: out.append("b"))
        e.drain()
        assert out == ["a", "b"]

    def test_cannot_schedule_in_past(self):
        e = Engine()
        e.now = 10
        with pytest.raises(ValueError):
            e.at(5, lambda: None)

    def test_after_ceils_fractional_delay(self):
        e = Engine()
        fired = []
        e.after(2.3, lambda: fired.append(e.now))
        e.drain()
        assert fired == [3]

    def test_after_rejects_nonpositive_delay(self):
        # Zero/negative delays land at `now`, where execution depends on
        # the caller's position relative to process_due -- same-cycle
        # scheduling must be the explicit at(engine.now, fn).
        e = Engine()
        with pytest.raises(ValueError, match="positive delay"):
            e.after(0, lambda: None)
        with pytest.raises(ValueError, match="positive delay"):
            e.after(-1.5, lambda: None)

    def test_after_counts_subcycle_delays(self):
        # Sub-cycle delays (a misconverted clock ratio, typically) are
        # legal but surface in the metrics snapshot.
        e = Engine()
        e.after(0.4, lambda: None)
        e.after(0.9, lambda: None)
        e.after(1.0, lambda: None)
        assert e.subcycle_delays == 2
        assert e.metrics_snapshot()["subcycle_delays"] == 2

    def test_event_scheduling_event(self):
        e = Engine()
        out = []
        e.at(1, lambda: e.at(4, lambda: out.append(e.now)))
        e.drain()
        assert out == [4]

    def test_process_due_only_runs_due(self):
        e = Engine()
        out = []
        e.at(0, lambda: out.append("now"))
        e.at(7, lambda: out.append("later"))
        e.process_due()
        assert out == ["now"]
        assert e.next_event_time() == 7


class TestRateAccumulator:
    def test_half_rate_fires_every_other_step(self):
        acc = RateAccumulator(0.5)
        fires = [acc.step() for _ in range(10)]
        assert sum(fires) == 5
        assert max(fires) == 1

    def test_rate_above_one(self):
        acc = RateAccumulator(1.786)  # 1250/700 crossbar ratio
        total = sum(acc.step() for _ in range(700))
        assert total == pytest.approx(1250, abs=2)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RateAccumulator(0.0)


class TestLink:
    def test_serialization_latency(self):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=16, latency=4)
        arrivals = []
        link.send(128, lambda: arrivals.append(e.now))
        e.drain()
        # 128/16 = 8 cycles serialization + 4 latency
        assert arrivals == [12]

    def test_back_to_back_packets_queue(self):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=16, latency=0)
        arrivals = []
        link.send(128, lambda: arrivals.append(e.now))
        link.send(128, lambda: arrivals.append(e.now))
        e.drain()
        assert arrivals == [8, 16]

    def test_bandwidth_is_conserved(self):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=10, latency=0)
        arrivals = []
        for _ in range(50):
            link.send(100, lambda: arrivals.append(e.now))
        e.drain()
        # 5000 bytes at 10 B/cyc cannot finish before cycle 500.
        assert arrivals[-1] == 500

    def test_counters_accumulate_by_class(self):
        e = Engine()
        c = LinkCounters()
        l1 = Link(e, "a", 8, traffic_class="gpu_link", counters=c)
        l2 = Link(e, "b", 8, traffic_class="mem_net", counters=c)
        l1.send(64, lambda: None)
        l2.send(32, lambda: None)
        l2.send(32, lambda: None)
        assert c.get("gpu_link") == 64
        assert c.get("mem_net") == 64
        assert c.total() == 128

    def test_utilization(self):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=10, latency=0)
        link.send(500, lambda: None)
        e.drain()
        assert link.utilization(100) == pytest.approx(0.5)

    def test_rejects_nonpositive_size(self):
        e = Engine()
        link = Link(e, "l", 8)
        with pytest.raises(ValueError):
            link.send(0, lambda: None)

    def test_queue_delay(self):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=1, latency=0)
        link.send(10, lambda: None)
        assert link.queue_delay == 10


class TestWakeQueue:
    def test_starts_fully_active(self):
        from repro.sim.engine import WakeQueue
        wq = WakeQueue(3)
        assert wq.active == [0, 1, 2]
        assert all(wq.is_active(i) for i in range(3))

    def test_park_and_wake_round_trip(self):
        from repro.sim.engine import WakeQueue
        wq = WakeQueue(3)
        wq.park(1, since=10)
        assert wq.active == [0, 2]
        assert not wq.is_active(1)
        # wake returns the first unsettled cycle for idle accounting
        assert wq.wake(1) == 10
        assert wq.active == [0, 1, 2]

    def test_spurious_wake_is_noop(self):
        from repro.sim.engine import WakeQueue
        wq = WakeQueue(2)
        assert wq.wake(0) is None
        assert wq.active == [0, 1]

    def test_double_park_rejected(self):
        from repro.sim.engine import WakeQueue
        wq = WakeQueue(2)
        wq.park(0, since=5)
        with pytest.raises(ValueError):
            wq.park(0, since=6)

    def test_set_since_restamps_parked_member(self):
        from repro.sim.engine import WakeQueue
        wq = WakeQueue(2)
        wq.park(0, since=5)
        wq.set_since(0, 20)
        assert wq.asleep_items() == [(0, 20)]
        with pytest.raises(KeyError):
            wq.set_since(1, 20)
