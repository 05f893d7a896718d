"""The Near-data-processing SIMD Unit (paper Sections 4.1.2 and 4.5).

The NSU is a deliberately small core on the stack's logic layer: warp slots,
a physical instruction cache, a register file, and the three NDP buffers --
*no* MMU/TLB, *no* data cache, *no* coalescer.  Every memory address it
consumes was generated and translated on the GPU; loads pop the read-data
buffer, stores pop the write-address buffer.

Clocking: the NSU runs at half the SM frequency (Table 2); the system calls
:meth:`tick` once per NSU cycle via a rate accumulator.  All timestamps stay
in SM cycles.
"""

from __future__ import annotations

from collections import deque

from repro.config import LINE_SIZE, SystemConfig
from repro.core.buffers import ReadDataBuffer, WriteAddressBuffer
from repro.gpu.cache import Cache, CacheStats
from repro.sim.engine import Engine

#: Bytes per NSU instruction in its I-cache footprint (Figure 11 metric).
NSU_INSTR_BYTES = 16

#: Load-to-use latency from the read-data buffer (SM cycles): a local SRAM
#: access, far cheaper than a cache hierarchy.
READ_BUFFER_LATENCY = 4


class NSUWarp:
    """One spawned offload-block execution on an NSU."""

    __slots__ = ("inst", "code", "sub_pc", "reg_ready",
                 "outstanding_writes", "state", "wait_key")

    def __init__(self, inst) -> None:
        self.inst = inst
        self.code = inst.block.nsu_code
        self.sub_pc = 1          # skip OFLD.BEG, executed at spawn
        self.reg_ready: dict[int, int] = {}
        self.outstanding_writes = 0
        self.state = "ready"     # ready | wait_read | wait_wta | wait_reg
                                 # | wait_writes
        self.wait_key = None


class NSU:
    """One NSU: warp slots + command queue + NDP buffers + issue logic."""

    def __init__(self, engine: Engine, cfg: SystemConfig, hmc_id: int,
                 controller) -> None:
        self.engine = engine
        self.cfg = cfg
        self.hmc_id = hmc_id
        self.controller = controller   # NDPController: write routing, ACKs
        self.faults = None   # armed by the system when a plan is active
        n = cfg.nsu
        self.num_slots = n.num_warp_slots
        self.alu_latency_sm = int(round(
            n.alu_latency / n.cycles_per_sm_cycle(cfg.gpu.sm_clock_mhz)))
        # Temporal SIMT (Section 4.5): a narrow datapath re-issues a
        # 32-thread warp instruction over several NSU cycles.
        self.subcycles_per_instr = max(1, -(-n.warp_width // n.simd_width))
        self._busy_subcycles = 0
        self.read_buf = ReadDataBuffer(n.read_data_entries)
        self.wta_buf = WriteAddressBuffer(n.write_addr_entries)
        self.cmd_queue: deque = deque()
        self.warps: list[NSUWarp] = []
        self.ready: deque[NSUWarp] = deque()
        # WTA packets may arrive before their entry is expected; count the
        # arrived packets per key until the expectation lands.
        self._wta_arrived: dict[tuple, list] = {}
        self._wta_expected: dict[tuple, int] = {}
        # Waiters on read/WTA completion, keyed like the buffers.
        self._read_waiters: dict[tuple, NSUWarp] = {}
        self._wta_waiters: dict[tuple, NSUWarp] = {}
        # Optional read-only cache (Section 7.1 extension): caches data
        # the GPU re-ships on RDF hits, so hot constant structures cost
        # one transfer instead of one per block instance.
        self.ro_cache: Cache | None = None
        self.ro_stats = CacheStats()
        if n.ro_cache_bytes:
            self.ro_cache = Cache(n.ro_cache_bytes, 4, LINE_SIZE,
                                  self.ro_stats)
        # Statistics (Figure 11).
        self.icache_lines = max(1, n.icache_bytes // n.icache_line)
        self.icache_touched: set[int] = set()
        self.instructions = 0
        self.alu_ops = 0
        self.occupancy_sum = 0.0
        self.cycles = 0
        self.cmds_received = 0

    # -- command / spawn ---------------------------------------------------------

    def receive_cmd(self, inst) -> None:
        """An offload command packet arrived at the logic layer."""
        self.cmds_received += 1
        if len(self.cmd_queue) >= self.cfg.nsu.cmd_buffer_entries:
            raise AssertionError(
                "offload command buffer overflow: credit management must "
                "prevent this (Section 4.3)")
        self.cmd_queue.append(inst)
        self._try_spawn()

    def _try_spawn(self) -> None:
        while self.cmd_queue and len(self.warps) < self.num_slots:
            inst = self.cmd_queue.popleft()
            warp = NSUWarp(inst)
            now = self.engine.now
            # OFLD.BEG: initialize live-in registers from the command packet.
            for reg in inst.block.send_regs:
                warp.reg_ready[reg] = now
            self._touch_icache(inst.block)
            self.warps.append(warp)
            self.ready.append(warp)
            # The command buffer entry frees as the warp spawns.
            self.controller.release_credits(self.hmc_id, inst, cmd=1)

    def _touch_icache(self, block) -> None:
        start_line, n_lines = self.controller.code_layout[block.block_id]
        for l in range(start_line, start_line + n_lines):
            self.icache_touched.add(l % self.icache_lines)

    # -- data delivery (called by the controller's packet plumbing) ---------------

    def expect_read(self, key: tuple, words: int) -> None:
        self.read_buf.expect(key, words)

    def deliver_read(self, key: tuple, words: int,
                     cacheable_line: int | None = None) -> None:
        if (self.faults is not None
                and self.faults.decide("nsu_buffer") is not None):
            # Buffer-entry corruption: ECC detects it and the delivery is
            # discarded; the entry stays incomplete until recovery replays.
            return
        if self.ro_cache is not None and cacheable_line is not None:
            self.ro_cache.insert(cacheable_line)
        if self.read_buf.deliver(key, words):
            warp = self._read_waiters.pop(key, None)
            if warp is not None:
                self._wake(warp)

    def ro_cache_hit(self, line_addr: int) -> bool:
        """True when the NSU's read-only cache already holds the line."""
        return self.ro_cache is not None and self.ro_cache.lookup(line_addr)

    def ro_invalidate(self, line_addr: int) -> None:
        if self.ro_cache is not None:
            self.ro_cache.invalidate(line_addr)

    def expect_wta(self, key: tuple, n_packets: int) -> None:
        self._wta_expected[key] = n_packets
        self._check_wta(key)

    def deliver_wta(self, key: tuple, access) -> None:
        if (self.faults is not None
                and self.faults.decide("nsu_buffer") is not None):
            # Corrupted write-address entry: discarded on arrival; the
            # controller's stale/lost accounting keeps WTA counters sane.
            self.controller.wta_discarded(access)
            return
        self._wta_arrived.setdefault(key, []).append(access)
        self._check_wta(key)

    def _check_wta(self, key: tuple) -> None:
        exp = self._wta_expected.get(key)
        arrived = self._wta_arrived.get(key, [])
        if exp is not None and len(arrived) >= exp:
            self.wta_buf.deliver(key, tuple(arrived))
            del self._wta_expected[key]
            self._wta_arrived.pop(key, None)
            warp = self._wta_waiters.pop(key, None)
            if warp is not None:
                self._wake(warp)

    def _wake(self, warp: NSUWarp) -> None:
        if warp.state != "ready":
            warp.state = "ready"
            warp.wait_key = None
            self.ready.append(warp)

    # -- execution -----------------------------------------------------------------

    def tick(self) -> bool:
        """One NSU cycle: account occupancy, issue at most one instruction."""
        self.cycles += 1
        self.occupancy_sum += len(self.warps)
        if self._busy_subcycles > 0:
            # A previous warp instruction still streams through the
            # narrow datapath (temporal SIMT).
            self._busy_subcycles -= 1
            return True
        n_ready = len(self.ready)
        for _ in range(n_ready):
            warp = self.ready.popleft()
            status = self._try_issue(warp)
            if status == "issued":
                if warp.state != "done":
                    self.ready.append(warp)
                self._busy_subcycles = self.subcycles_per_instr - 1
                return True
            if status == "retry":
                self.ready.append(warp)
                # round-robin: try the next ready warp this cycle
            # "blocked": the warp left the ready queue; wake() re-adds it.
        return False

    def account_idle(self, nsu_cycles: int) -> None:
        """Bulk occupancy accounting while the system fast-forwards."""
        self.cycles += nsu_cycles
        self.occupancy_sum += len(self.warps) * nsu_cycles

    @property
    def has_ready(self) -> bool:
        return bool(self.ready)

    @property
    def idle(self) -> bool:
        return not self.warps and not self.cmd_queue

    def _try_issue(self, warp: NSUWarp) -> str:
        now = self.engine.now
        n = warp.code[warp.sub_pc]
        inst = warp.inst
        if n.kind == "ld":
            key = (inst.uid, n.seq)
            if not self.read_buf.is_complete(key):
                warp.state = "wait_read"
                warp.wait_key = key
                self._read_waiters[key] = warp
                return "blocked"
            self.read_buf.consume(key)
            self.controller.release_credits(self.hmc_id, inst, read_data=1)
            warp.reg_ready[n.instr.dst] = now + READ_BUFFER_LATENCY
        elif n.kind == "alu":
            ready_at = max((warp.reg_ready.get(r, 0) for r in n.instr.reads),
                           default=0)
            if ready_at > now:
                # Short producer latencies: retry on later ticks.
                return "retry"
            if n.instr.dst is not None:
                warp.reg_ready[n.instr.dst] = now + self.alu_latency_sm
            self.alu_ops += 1
        elif n.kind == "st":
            key = (inst.uid, n.seq)
            if not self.wta_buf.has(key):
                warp.state = "wait_wta"
                warp.wait_key = key
                self._wta_waiters[key] = warp
                return "blocked"
            data_ready = max(
                (warp.reg_ready.get(r, 0) for r in n.instr.srcs), default=0)
            if data_ready > now:
                # Keep the WTA entry for the retry.
                return "retry"
            accesses = self.wta_buf.consume(key)
            self.controller.release_credits(self.hmc_id, inst, write_addr=1)
            for acc in accesses:
                warp.outstanding_writes += 1
                self.controller.ndp_write(self, warp, acc)
        elif n.kind == "end":
            if warp.outstanding_writes > 0:
                warp.state = "wait_writes"
                return "blocked"
            self._finish(warp)
            self.instructions += 1
            return "issued"
        else:  # pragma: no cover - beg consumed at spawn
            raise AssertionError(f"unexpected NSU op {n.kind}")
        warp.sub_pc += 1
        self.instructions += 1
        return "issued"

    def write_done(self, warp: NSUWarp) -> None:
        """A DRAM write issued by this warp was acknowledged."""
        warp.outstanding_writes -= 1
        if warp.state == "aborted":
            return   # recovery purged the warp; the write still landed
        if warp.outstanding_writes == 0 and warp.state == "wait_writes":
            self._wake(warp)

    def _finish(self, warp: NSUWarp) -> None:
        """OFLD.END: ship the ACK with live-out registers, free the slot."""
        self.warps.remove(warp)
        warp.state = "done"
        self.controller.send_ack(self, warp.inst)
        self._try_spawn()

    # -- recovery ----------------------------------------------------------------

    def purge_instance(self, uid) -> tuple[int, list]:
        """Abort one offload instance: evict its warp, queued command and
        buffer state (recovery retry/fallback).

        Returns ``(read_entries_purged, wta_accesses_purged)`` so the
        controller can reconcile credits and in-flight WTA counters."""
        for warp in [w for w in self.warps if w.inst.uid == uid]:
            self.warps.remove(warp)
            warp.state = "aborted"
        self.ready = deque(w for w in self.ready if w.inst.uid != uid)
        self.cmd_queue = deque(i for i in self.cmd_queue if i.uid != uid)
        for key in [k for k in self._read_waiters if k[0] == uid]:
            del self._read_waiters[key]
        for key in [k for k in self._wta_waiters if k[0] == uid]:
            del self._wta_waiters[key]
        reads = self.read_buf.purge_uid(uid)
        wta = self.wta_buf.purge_uid(uid)
        for key in [k for k in self._wta_arrived if k[0] == uid]:
            wta.extend(self._wta_arrived.pop(key))
        for key in [k for k in self._wta_expected if k[0] == uid]:
            del self._wta_expected[key]
        self._try_spawn()
        return reads, wta

    # -- introspection -----------------------------------------------------------

    @property
    def avg_occupancy(self) -> float:
        return self.occupancy_sum / max(1, self.cycles)

    @property
    def icache_utilization(self) -> float:
        return len(self.icache_touched) / self.icache_lines

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        return {
            "warps": len(self.warps),
            "ready": len(self.ready),
            "cmd_queue": len(self.cmd_queue),
            "read_buf": len(self.read_buf),
            "read_buf_peak": self.read_buf.peak,
            "wta_buf": len(self.wta_buf),
            "wta_buf_peak": self.wta_buf.peak,
            "instructions": self.instructions,
            "cmds_received": self.cmds_received,
            "avg_occupancy": self.avg_occupancy,
        }
