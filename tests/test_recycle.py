"""Tests for the allocation-rate machinery: pooled event records with
generation stamps, the DRAMRequest free list and its reset() contract,
and MSHR-full structural parking (docs/performance.md)."""

import dataclasses

import pytest

from repro.config import ci_config
from repro.faults import get_scenario
from repro.memory.vault import DRAMRequest, DRAMRequestPool
from repro.sim.engine import Engine
from repro.sim.runner import build_system
from repro.sim.serialize import result_digest


class TestEventRecycling:
    def test_cancel_prevents_dispatch(self):
        e = Engine()
        fired = []
        rec, gen = e.call_after(3, fired.append, "x")
        assert e.cancel(rec, gen) is True
        e.drain()
        assert fired == []
        assert e.metrics_snapshot()["events_cancelled"] == 1

    def test_cancel_is_single_shot(self):
        e = Engine()
        rec, gen = e.call_after(3, lambda: None)
        assert e.cancel(rec, gen) is True
        assert e.cancel(rec, gen) is False

    def test_stale_generation_rejected_after_recycle(self):
        # Once an event fires, its record returns to the pool and its
        # generation bumps; a cancel with the stale handle must neither
        # succeed nor disturb the record's next occupant.
        e = Engine()
        first, second = [], []
        rec1, gen1 = e.call_after(1, first.append, 1)
        e.drain()
        assert first == [1]
        rec2, gen2 = e.call_after(1, second.append, 2)
        assert rec2 is rec1          # LIFO free list reuses the record
        assert gen2 != gen1
        assert e.cancel(rec1, gen1) is False
        e.drain()
        assert second == [2]

    def test_recycle_metrics_exported(self):
        e = Engine()
        for i in range(1, 6):
            e.after(i, lambda: None)
        e.drain()
        snap = e.metrics_snapshot()
        assert snap["events_recycled"] == 5
        assert snap["event_pool_free"] > 0

    def test_cancelled_event_keeps_pending_until_drained(self):
        # Tombstones stay in the queue until their cycle passes; the
        # run loop's termination check (engine.pending) must still see
        # them so time advances past the cancelled slot.
        e = Engine()
        rec, gen = e.call_after(2, lambda: None)
        e.cancel(rec, gen)
        assert e.pending == 1
        e.drain()
        assert e.pending == 0


class TestDRAMRequestPool:
    def test_reset_completeness(self):
        # A recycled record must be field-for-field equal to a freshly
        # constructed one -- the recycle invariant.  Dataclass equality
        # compares every field, so a field added without a reset() line
        # fails here.
        pool = DRAMRequestPool()
        req = pool.acquire(0x1234, True, lambda r: None, bank=3, row=7,
                           extra_latency=11, meta={"k": 1},
                           on_lost=lambda r: None)
        pool.release(req)
        assert req == DRAMRequest(0, False, None)

    def test_acquire_reuses_released_records(self):
        pool = DRAMRequestPool()
        req = pool.acquire(1, False, None)
        pool.release(req)
        again = pool.acquire(2, True, None, bank=5)
        assert again is req
        assert (again.line_addr, again.is_write, again.bank) == (2, True, 5)
        assert pool.metrics_snapshot() == {
            "created": 1, "reused": 1, "released": 1, "free": 0}

    def test_double_free_raises(self):
        pool = DRAMRequestPool()
        req = pool.acquire(1, False, None)
        pool.release(req)
        with pytest.raises(ValueError, match="double-free"):
            pool.release(req)

    def test_foreign_record_rejected(self):
        # Directly-constructed requests (tests, ad-hoc callers) are not
        # pool-owned and must never enter the free list.
        pool = DRAMRequestPool()
        with pytest.raises(ValueError):
            pool.release(DRAMRequest(1, False, None))

    def test_fault_replay_never_double_frees(self):
        # vault-read-loss exercises every release path: normal
        # completion, loss with an on_lost reissue, and loss with no
        # listener (released at service time).  A double-free would
        # raise inside the run; afterwards conservation must hold:
        # every acquired record was released exactly once.
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system = build_system("VADD", "Baseline", base=ci_config(),
                              scale="ci", faults=plan)
        system.run(max_cycles=2_000_000)
        pools = [stack.pool for stack in system.hmcs]
        assert any(p.created + p.reused > 0 for p in pools)
        for p in pools:
            assert p.created + p.reused == p.released
            assert p.free == p.created


class TestStructuralParking:
    def test_mshr_full_parks_without_perturbing_counters(self):
        # Starve the L1 MSHR file so loads hit structural rejects; the
        # active scheduler must park those SMs (fewer sm_ticks, parks
        # observed) while replaying the exact miss/reject counters the
        # legacy cycle-by-cycle scheduler accrues -- proven by digest
        # identity, since l1 stats are part of the result.
        base = ci_config()
        base = dataclasses.replace(
            base, gpu=dataclasses.replace(
                base.gpu, l1d=dataclasses.replace(
                    base.gpu.l1d, mshr_entries=1)))
        results = {}
        for sched in ("active", "legacy"):
            system = build_system("VADD", "Baseline", base=base,
                                  scale="ci", sched=sched)
            res = system.run(max_cycles=2_000_000)
            results[sched] = (result_digest(res), dict(system.sched_stats))
        act_digest, act_stats = results["active"]
        leg_digest, leg_stats = results["legacy"]
        assert act_digest == leg_digest
        assert act_stats["struct_parks"] > 0
        assert act_stats["struct_replayed"] > 0
        assert act_stats["sm_ticks"] < leg_stats["sm_ticks"]
