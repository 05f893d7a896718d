"""Tests for the allocation-rate machinery: pooled event records, the
DRAMRequest free list and its reset() contract, and structural-reject
parking (docs/performance.md)."""

import dataclasses

import pytest

from repro.config import ci_config
from repro.faults import get_scenario
from repro.memory.vault import DRAMRequest, DRAMRequestPool
from repro.sim.engine import Engine
from repro.sim.runner import build_system
from repro.sim.serialize import result_digest


class TestEventRecycling:
    def test_recycle_metrics_exported(self):
        e = Engine()
        for i in range(1, 6):
            e.after(i, lambda: None)
        e.drain()
        snap = e.metrics_snapshot()
        assert snap["events_recycled"] == 5
        assert snap["event_pool_free"] > 0

    def test_fired_record_is_reused(self):
        # A fired record returns to the free list and the next schedule
        # takes it, bound arguments and all, instead of allocating.
        e = Engine()
        fired = []
        e.after(1, fired.append, 1)
        e.drain()
        e.at(e.now + 1, fired.append, 2)
        e.drain()
        assert fired == [1, 2]
        assert e.metrics_snapshot()["event_pool_free"] == 1


class TestDRAMRequestPool:
    def test_reset_completeness(self):
        # A recycled record must be field-for-field equal to a freshly
        # constructed one -- the recycle invariant.  Dataclass equality
        # compares every field, so a field added without a reset() line
        # fails here.
        pool = DRAMRequestPool()
        req = pool.acquire(True, lambda: None, bank=3, row=7,
                           on_lost=lambda: None)
        pool.release(req)
        assert req == DRAMRequest(False, None)

    def test_acquire_reuses_released_records(self):
        pool = DRAMRequestPool()
        req = pool.acquire(False, None)
        pool.release(req)
        again = pool.acquire(True, None, bank=5, row=9)
        assert again is req
        assert (again.is_write, again.bank, again.row) == (True, 5, 9)
        assert pool.metrics_snapshot() == {
            "created": 1, "reused": 1, "released": 1, "free": 0}

    def test_double_free_raises(self):
        pool = DRAMRequestPool()
        req = pool.acquire(False, None)
        pool.release(req)
        with pytest.raises(ValueError, match="double-free"):
            pool.release(req)

    def test_foreign_record_rejected(self):
        # Directly-constructed requests (tests, ad-hoc callers) are not
        # pool-owned and must never enter the free list.
        pool = DRAMRequestPool()
        with pytest.raises(ValueError):
            pool.release(DRAMRequest(False, None))

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


def _starved_l1(base):
    """One L1 MSHR entry: loads keep hitting MSHR-full rejects."""
    return dataclasses.replace(base, gpu=dataclasses.replace(
        base.gpu, l1d=dataclasses.replace(base.gpu.l1d, mshr_entries=1)))


def _small_pending(base):
    """Eight pending-buffer entries per SM: OFLD.BEG keeps being refused."""
    return dataclasses.replace(base, sm_buffers=dataclasses.replace(
        base.sm_buffers, pending_entries=8))


def _gpu(**fields):
    return lambda base: dataclasses.replace(
        base, gpu=dataclasses.replace(base.gpu, **fields))


class TestStructuralParking:
    @pytest.mark.parametrize("workload,config,tweaks,replays", [
        pytest.param("VADD", "Baseline", [_starved_l1], True, id="gto"),
        pytest.param("VADD", "Baseline", [_starved_l1, _gpu(scheduler="lrr")],
                     True, id="lrr"),
        # Four SMs hold more ready warps than MAX_ISSUE_ATTEMPTS, so a
        # tick whose attempt blocks on a dependency must not park: the
        # next cycle would try a different warp.
        pytest.param("VADD", "Baseline", [_starved_l1, _gpu(num_sms=4)],
                     True, id="crowded"),
        # Inline offload blocks: the load status comes up through
        # _issue_inline.
        pytest.param("VADD", "NDP(Dyn)", [_starved_l1], True,
                     id="ndp-inline"),
        # Offload-path rejects (a full pending buffer) are not spins:
        # they count pending_rejects every cycle, and only a retry can
        # see the buffer drain.  Loads outside the blocks still park.
        pytest.param("BFS", "NaiveNDP", [_starved_l1, _small_pending], True,
                     id="pending-full"),
        # Default MSHR file, one load in flight per warp: the cap spin
        # touches no counter, so it parks with nothing to replay.
        pytest.param("VADD", "Baseline",
                     [_gpu(max_inflight_loads_per_warp=1)], False,
                     id="inflight-cap"),
    ])
    def test_mshr_full_parks_without_perturbing_counters(
            self, workload, config, tweaks, replays):
        # The active scheduler must park SMs whose every issue attempt
        # is a structural load reject (fewer sm_ticks, parks observed)
        # while replaying the exact miss/reject counters the legacy
        # cycle-by-cycle scheduler accrues -- proven by digest identity,
        # since l1 stats are part of the result.
        base = ci_config()
        for tweak in tweaks:
            base = tweak(base)
        results = {}
        for sched in ("active", "legacy"):
            system = build_system(workload, config, base=base,
                                  scale="ci", sched=sched)
            res = system.run(max_cycles=2_000_000)
            results[sched] = (result_digest(res), dict(system.sched_stats))
        act_digest, act_stats = results["active"]
        leg_digest, leg_stats = results["legacy"]
        assert act_digest == leg_digest
        assert act_stats["struct_parks"] > 0
        assert (act_stats["struct_replayed"] > 0) is replays
        assert act_stats["sm_ticks"] < leg_stats["sm_ticks"]
