"""Tests for DRAM refresh modelling (tREFI / tRFC)."""

import dataclasses


from repro.config import SystemConfig, ci_config
from repro.memory.dram import DRAMTimingSM
from repro.memory.vault import DRAMRequest, DRAMStats, VaultController
from repro.sim.engine import Engine
from repro.sim.runner import run_workload


def mk_vault(trefi=200, trfc=50):
    e = Engine()
    cfg = SystemConfig()
    timing = DRAMTimingSM.from_config(
        dataclasses.replace(cfg.hmc.timing, tREFI=0, tRFC=0),
        cfg.gpu.sm_clock_mhz, 32)
    timing = dataclasses.replace(timing, tREFI=trefi, tRFC=trfc)
    stats = DRAMStats()
    return e, VaultController(e, timing, 16, stats), stats


class TestRefresh:
    def test_refresh_fires_periodically_under_load(self):
        e, vault, stats = mk_vault(trefi=100, trfc=20)
        for i in range(200):
            vault.submit(DRAMRequest(False, lambda: None,
                                     bank=i % 16, row=i // 16))
        e.drain()
        assert stats.refreshes >= 2

    def test_refresh_closes_rows(self):
        e, vault, stats = mk_vault(trefi=50, trfc=10)
        done = []
        vault.submit(DRAMRequest(False, lambda: done.append(1),
                                 bank=0, row=7))
        e.drain()
        assert vault.banks[0].open_row == 7
        # Force a refresh by advancing past tREFI with another request.
        e.now = 60
        vault.submit(DRAMRequest(False, lambda: done.append(2),
                                 bank=0, row=7))
        e.drain()
        assert stats.refreshes >= 1
        # The second access re-activated the row after the refresh closed it.
        assert stats.activations == 2

    def test_disabled_when_trefi_zero(self):
        e, vault, stats = mk_vault(trefi=0, trfc=0)
        vault._next_refresh = None
        for i in range(50):
            vault.submit(DRAMRequest(False, lambda: None,
                                     bank=i % 16, row=0))
        e.drain()
        assert stats.refreshes == 0

    def test_idle_backlog_not_replayed(self):
        e, vault, stats = mk_vault(trefi=10, trfc=5)
        e.now = 10_000          # vault idle for many intervals
        vault.submit(DRAMRequest(False, lambda: None, bank=0, row=0))
        e.drain()
        # One refresh, not a thousand.
        assert stats.refreshes == 1

    def test_requests_complete_despite_refresh(self):
        e, vault, stats = mk_vault(trefi=30, trfc=15)
        done = []
        for i in range(64):
            vault.submit(DRAMRequest(False, lambda: done.append(1),
                                     bank=i % 16, row=i))
        e.drain()
        assert len(done) == 64


class TestEndToEnd:
    def test_refresh_costs_bandwidth(self):
        base = ci_config()
        hmc_off = dataclasses.replace(
            base.hmc, timing=dataclasses.replace(base.hmc.timing,
                                                 tREFI=0, tRFC=0))
        no_refresh = dataclasses.replace(base, hmc=hmc_off)
        r_with = run_workload("VADD", "Baseline", base=base, scale="ci")
        r_without = run_workload("VADD", "Baseline", base=no_refresh,
                                 scale="ci")
        assert r_with.cycles >= r_without.cycles
        assert r_with.warps_completed == r_without.warps_completed
