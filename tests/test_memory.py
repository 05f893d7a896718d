"""Unit tests for the HMC memory substrate: address map, DRAM timing,
FR-FCFS vault scheduling."""

import numpy as np
import pytest

from repro.config import (BACKEND_NAMES, LINE_SIZE, PAGE_SIZE, SystemConfig,
                          ci_config)
from repro.memory import (
    AddressMap,
    DRAMRequest,
    DRAMStats,
    DRAMTimingSM,
    HMCStack,
    VaultController,
)
from repro.memory.backend import resolve_backend
from repro.memory.dram import BankState
from repro.sim.engine import Engine, LinkCounters


@pytest.fixture
def cfg():
    return SystemConfig(num_hmcs=8)


@pytest.fixture
def amap(cfg):
    return AddressMap(cfg)


class TestAddressMap:
    def test_hmc_mapping_is_page_granular(self, amap):
        base = 17 * PAGE_SIZE
        hmcs = {amap.hmc_of(base + off) for off in range(0, PAGE_SIZE, 256)}
        assert len(hmcs) == 1

    def test_hmc_mapping_spreads_pages(self, amap):
        hmcs = {amap.hmc_of(p * PAGE_SIZE) for p in range(256)}
        assert hmcs == set(range(8))

    def test_mapping_depends_on_seed(self, cfg):
        a = AddressMap(cfg)
        import dataclasses
        b = AddressMap(dataclasses.replace(cfg, seed=99))
        pages = list(range(200))
        pa = [a.hmc_of(p * PAGE_SIZE) for p in pages]
        pb = [b.hmc_of(p * PAGE_SIZE) for p in pages]
        assert pa != pb

    def test_vectorized_matches_scalar(self, amap):
        lines = np.arange(0, 4096, 7, dtype=np.int64)
        vec = amap.hmc_of_lines(lines)
        scalar = [amap.hmc_of(int(l) * LINE_SIZE) for l in lines]
        assert vec.tolist() == scalar

    def test_consecutive_lines_interleave_vaults(self, amap):
        vaults = [amap.vault_of_line(l) for l in range(16)]
        assert vaults == list(range(16))

    def test_row_groups_lines(self, amap):
        # Lines of the same (vault, bank) 4KB row share a row number.
        loc0 = amap.decode_line(0)
        loc_same_row = amap.decode_line(16 * 16)  # same vault0/bank0, col 1
        assert (loc0.vault, loc0.bank, loc0.row) == (
            loc_same_row.vault, loc_same_row.bank, loc_same_row.row)

    def test_decode_matches_components(self, amap):
        line = 0xABCDE
        loc = amap.decode_line(line)
        assert loc.vault == amap.vault_of_line(line)
        assert (loc.bank, loc.row) == amap.bank_row_of_line(line)

    def test_bad_geometry_rejected(self, cfg):
        import dataclasses
        hmc = dataclasses.replace(cfg.hmc, num_vaults=12)
        bad = dataclasses.replace(cfg, hmc=hmc)
        with pytest.raises(ValueError):
            AddressMap(bad)


class TestDRAMTiming:
    def test_conversion_to_sm_cycles(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz,
                                     cfg.hmc.vault_bus_bytes_per_dram_cycle)
        # 9 DRAM cycles * 1.5ns = 13.5ns = 9.45 SM cycles -> ceil 10
        assert t.tCL == 10
        assert t.tRP == 10
        assert t.tRAS == 26
        assert t.burst == 5   # 128B / 32B-per-cycle = 4 DRAM cyc -> 4.2 -> 5

    def test_row_hit_faster_than_miss(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        ready1, act1 = bank.access(row=5, is_write=False, now=0, t=t)
        assert act1
        bank.busy_until = 0  # isolate latency effects
        ready2, act2 = bank.access(row=5, is_write=False, now=100, t=t)
        assert not act2
        assert (ready2 - 100) < ready1

    def test_row_conflict_pays_precharge(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        bank.access(row=1, is_write=False, now=0, t=t)
        now = 1000
        ready, act = bank.access(row=2, is_write=False, now=now, t=t)
        assert act
        assert ready - now >= t.tRP + t.tRCD + t.tCL

    def test_write_recovery_holds_bank(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        ready, _ = bank.access(row=1, is_write=True, now=0, t=t)
        assert bank.busy_until == ready + t.tWR


def _mk_vault(engine, queue_size=64):
    cfg = SystemConfig()
    t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
    stats = DRAMStats()
    vault = VaultController(engine, t, num_banks=16, stats=stats,
                            queue_size=queue_size)
    return vault, stats, t


class TestVaultController:
    def test_single_request_completes(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        done = []
        vault.submit(DRAMRequest(False, lambda: done.append(e.now),
                                 bank=0, row=0))
        e.drain()
        assert len(done) == 1
        assert stats.reads == 1
        assert stats.activations == 1

    @staticmethod
    def _served_order(queue_size, misses):
        e = Engine()
        vault, stats, t = _mk_vault(e, queue_size=queue_size)
        order = []
        # Open row 1 on bank 0 with a first access, then queue row-2
        # misses and a row-1 request behind them.
        vault.submit(DRAMRequest(False, lambda: order.append("warm"),
                                 bank=0, row=1))
        e.drain()
        for i in range(misses):
            vault.submit(DRAMRequest(False,
                                     lambda i=i: order.append(f"miss{i}"),
                                     bank=0, row=2))
        vault.submit(DRAMRequest(False, lambda: order.append("hit"),
                                 bank=0, row=1))
        e.drain()
        return order

    def test_fr_fcfs_prefers_row_hits(self):
        # The row-1 (hit) must be served first even though the row-2
        # request is older.
        assert self._served_order(64, 1) == ["warm", "hit", "miss0"]

    @pytest.mark.parametrize("queue_size,misses,hit_visible", [
        (64, 30, True),    # deep queue: the hit sits at window index 30
        (4, 4, False),     # the hit is queued just past a 4-entry window
    ], ids=["deep", "past-window"])
    def test_fr_fcfs_scheduler_window(self, queue_size, misses,
                                      hit_visible):
        # Only the first queue_size requests are visible to FR-FCFS: a
        # row hit inside the window jumps every older miss, one queued
        # past it waits its turn.
        misses_in_age_order = [f"miss{i}" for i in range(misses)]
        if hit_visible:
            expected = ["warm", "hit"] + misses_in_age_order
        else:
            expected = ["warm"] + misses_in_age_order + ["hit"]
        assert self._served_order(queue_size, misses) == expected

    def test_banks_overlap(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        done = []
        for b in range(4):
            vault.submit(DRAMRequest(False, lambda: done.append(e.now),
                                     bank=b, row=0))
        e.drain()
        # Four independent banks: completion should be spaced by the data
        # bus (tCCD/burst), not by full access latency.
        spacing = max(done) - min(done)
        assert spacing <= 4 * max(t.tCCD, t.burst) + 2

    def test_row_hit_rate_stat(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        for _ in range(8):
            vault.submit(DRAMRequest(False, lambda: None, bank=0, row=0))
        e.drain()
        assert stats.row_hits == 7
        assert stats.row_misses == 1
        assert stats.row_hit_rate == pytest.approx(7 / 8)

    def test_queue_peak_tracked(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        for i in range(20):
            vault.submit(DRAMRequest(False, lambda: None,
                                     bank=i % 16, row=i))
        assert stats.queue_peak == 20
        e.drain()


class TestHMCStack:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_access_routes_to_owner_only(self, backend):
        # Every backend builds an HMCStack; only the geometry differs.
        e = Engine()
        cfg = ci_config().with_backend(backend)
        amap = resolve_backend(backend).make_address_map(cfg)
        c = LinkCounters()
        stack = HMCStack(e, cfg, hmc_id=0, amap=amap, counters=c)
        # find a line owned by HMC 0
        line = next(l for l in range(10000)
                    if amap.hmc_of(l * LINE_SIZE) == 0)
        wrong = next(l for l in range(10000)
                     if amap.hmc_of(l * LINE_SIZE) != 0)
        done = []
        stack.access_line(line, False, lambda: done.append(line))
        with pytest.raises(ValueError):
            stack.access_line(wrong, False, lambda: None)
        e.drain()
        assert done == [line]
        if backend == "hmc":
            assert c.get("intra_hmc") == LINE_SIZE
        else:
            # The expander's channels sit directly behind its port.
            assert c.get("intra_hmc") == 0
            assert len(stack.vaults) == cfg.cxl.num_channels

    def test_serviced_record_is_reused_before_completion(self, monkeypatch):
        # The vault releases a request as soon as it is serviced -- the
        # callback is already bound into the completion event -- so an
        # access arriving before that event fires reuses the record.
        readies = []
        access = BankState.access

        def recording_access(bank, *args):
            ready, activated = access(bank, *args)
            readies.append(ready)
            return ready, activated

        monkeypatch.setattr(BankState, "access", recording_access)
        e = Engine()
        cfg = ci_config()
        amap = AddressMap(cfg)
        stack = HMCStack(e, cfg, 0, amap, LinkCounters())
        line = next(l for l in range(10000)
                    if amap.hmc_of(l * LINE_SIZE) == 0)
        done = []
        stack.access_line(line, False, lambda: done.append(("first", e.now)))
        e.process_due()        # the vault services the access at cycle 0
        assert done == [] and stack.pool.free == 1
        stack.access_line(line, False, lambda: done.append(("second", e.now)))
        e.drain()
        assert (stack.pool.created, stack.pool.reused) == (1, 1)
        hop = stack.vaults[0].access_latency
        assert hop == 4
        assert done == [("first", readies[0] + hop),
                        ("second", readies[1] + hop)]

    def test_peak_bandwidth_near_spec(self):
        e = Engine()
        cfg = SystemConfig()
        amap = AddressMap(cfg)
        stack = HMCStack(e, cfg, 0, amap, LinkCounters())
        bw = stack.peak_bandwidth_bytes_per_cycle()
        gbps = bw * cfg.gpu.sm_clock_mhz * 1e6 / 1e9
        # HMC spec: ~320 GB/s peak DRAM bandwidth per stack.
        assert 200 <= gbps <= 400
