"""One NDP memory device: vault controllers behind a fixed response hop.

The paper's device is an HMC stack: the logic layer receives packets from
the stack's off-chip links (from the GPU or from peer stacks over the
memory network), routes memory requests to the owning vault, and forwards
responses.  The intra-HMC NoC hop is modelled as a small fixed latency
plus byte accounting (it is generously provisioned in the HMC and never
the bottleneck, but its traffic costs energy -- Figure 10 has an
"Intra-HMC NoC" component).

Every backend builds this same class; only the geometry differs.  The
backend's :meth:`~repro.memory.backend.MemoryBackend.device` hook supplies
the DRAM timing, vault (channel) count, queue depth and response hop, and
its ``internal_noc`` flag says whether NoC bytes are charged at all (a CXL
expander's channels sit directly behind its port, so it charges none).
"""

from __future__ import annotations

from typing import Callable

from repro.config import LINE_SIZE, SystemConfig
from repro.memory.address import AddressMap
from repro.memory.dram import DRAMTimingSM
from repro.memory.vault import DRAMRequestPool, DRAMStats, VaultController
from repro.sim.engine import Engine, LinkCounters


class HMCStack:
    """Vaults + response routing for one memory device."""

    def __init__(self, engine: Engine, cfg: SystemConfig, hmc_id: int,
                 amap: AddressMap, counters: LinkCounters) -> None:
        from repro.memory.backend import resolve_backend
        backend = resolve_backend(cfg.backend)
        (timing_cfg, bus_bytes, num_vaults, banks, queue_size,
         access_latency) = backend.device(cfg)
        self.engine = engine
        self.cfg = cfg
        self.hmc_id = hmc_id
        self.amap = amap
        self.counters = counters
        self.internal_noc = backend.internal_noc
        self.stats = DRAMStats()
        self.timing = timing = DRAMTimingSM.from_config(
            timing_cfg, cfg.gpu.sm_clock_mhz, bus_bytes)
        # Request records are pool-recycled per stack (never shared across
        # engines); vaults return them once the access is serviced.
        self.pool = DRAMRequestPool()
        self.vaults = [
            VaultController(engine, timing, banks, self.stats, queue_size,
                            pool=self.pool, access_latency=access_latency)
            for _ in range(num_vaults)]
        # Attached by the system after construction:
        self.nsu = None

    # -- DRAM access --------------------------------------------------------

    def access_line(self, line_addr: int, is_write: bool,
                    on_done: Callable[[], None],
                    noc_bytes: int = LINE_SIZE,
                    on_lost: Callable[[], None] | None = None) -> None:
        """Access one cache line in this device's DRAM.

        ``on_done()`` fires when the data is available at the logic layer
        (read) or written (write).  ``noc_bytes`` is charged to the
        intra-HMC NoC for the request+response traversal when the device
        has one.  ``on_lost()`` fires instead when an armed ``vault_read``
        fault swallows the read response.
        """
        if self.amap.hmc_of(line_addr * LINE_SIZE) != self.hmc_id:
            raise ValueError(
                f"line {line_addr:#x} does not belong to HMC {self.hmc_id}")
        if self.internal_noc:
            self.counters.add("intra_hmc", noc_bytes)
        bank, row = self.amap.bank_row_of_line(line_addr)
        self.vaults[self.amap.vault_of_line(line_addr)].submit(
            self.pool.acquire(is_write, on_done, bank, row, on_lost))

    # -- convenience --------------------------------------------------------

    @property
    def queue_occupancy(self) -> int:
        return sum(len(v.queue) for v in self.vaults)

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        snap = self.stats.metrics_snapshot()
        snap["queue_occupancy"] = self.queue_occupancy
        snap["max_vault_queue"] = max(
            (len(v.queue) for v in self.vaults), default=0)
        snap["req_pool_free"] = self.pool.free
        snap["req_pool_created"] = self.pool.created
        return snap

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate vault-bus bandwidth (the device's peak DRAM bandwidth)."""
        per_vault = LINE_SIZE / max(self.timing.tCCD, self.timing.burst)
        return per_vault * len(self.vaults)
