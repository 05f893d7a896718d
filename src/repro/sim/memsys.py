"""GPU memory hierarchy: per-SM L1s, per-partition L2 slices, off-chip path.

Baseline memory path (Figure 2(a)): coalesced line access -> L1 (write
through) -> L2 slice of the owning HMC -> GPU link -> vault -> full-line
response back up the same path.  The L2 is sliced per memory partition (one
per HMC, as in GPGPU-sim); slice selection follows the random page->HMC
mapping, so L2 capacity is shared evenly.

The NDP path uses :meth:`rdf_probe` (a tag probe of L1+L2 without fill) and
:meth:`invalidate` (Section 4.2 coherence).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.config import LINE_SIZE, SystemConfig
from repro.core.packets import PacketSizes
from repro.faults.recovery import BaselineRecoveryStats
from repro.gpu.cache import Cache, CacheStats, MSHRFile
from repro.gpu.coalescer import MemAccess
from repro.memory.address import AddressMap
from repro.memory.hmc import HMCStack
from repro.network.fabric import GPULinks
from repro.sim.engine import Engine

#: Crossbar traversal latency between an SM and an L2 slice (SM cycles).
XBAR_LATENCY = 8
#: Crossbar slot time per request at an L2 slice ingress port: the xbar
#: runs at 1250 MHz (Table 2), one request per xbar cycle per slice.
XBAR_SLOT = 700.0 / 1250.0


def _written() -> None:
    """Completion of a write-through store: nobody waits on it, but its
    event keeps the run alive until the write lands."""


class _FetchState:
    """In-flight recoverable L2 fill: one per primary L2 miss.

    ``attempt`` stamps every packet of the current issue so loss
    notifications for superseded attempts are ignored; ``wd_token``
    invalidates stale watchdog heap entries (the heap is never purged,
    mirroring the offload-recovery pattern in ``repro.core.offload``).
    """

    __slots__ = ("attempt", "retries", "issued_at", "wd_token")

    def __init__(self) -> None:
        self.attempt = 0
        self.retries = 0
        self.issued_at = 0
        self.wd_token = 0


class GPUMemSystem:
    """Caches + links + DRAM plumbing for baseline and inline execution."""

    def __init__(self, engine: Engine, cfg: SystemConfig, *,
                 amap: AddressMap, gpu_links: GPULinks,
                 hmcs: list[HMCStack]) -> None:
        self.engine = engine
        self.cfg = cfg
        self.amap = amap
        self.gpu_links = gpu_links
        self.hmcs = hmcs
        self.l1_stats = CacheStats()
        self.l2_stats = CacheStats()
        g = cfg.gpu
        self.l1 = [Cache(g.l1d.size_bytes, g.l1d.assoc, g.l1d.line_size,
                         self.l1_stats) for _ in range(g.num_sms)]
        self.l1_mshr = [MSHRFile(g.l1d.mshr_entries, self.l1_stats)
                        for _ in range(g.num_sms)]
        slice_bytes = max(g.l2.line_size * g.l2.assoc,
                          g.l2.size_bytes // cfg.num_hmcs)
        self.l2 = [Cache(slice_bytes, g.l2.assoc, g.l2.line_size,
                         self.l2_stats) for _ in range(cfg.num_hmcs)]
        self.l2_mshr = [MSHRFile(g.l2.mshr_entries, self.l2_stats)
                        for _ in range(cfg.num_hmcs)]
        self.l1_latency = g.l1d.hit_latency
        self.l2_latency = g.l2.hit_latency
        # Requests parked while an L2 slice's MSHR file is full; retried
        # as fills free entries (a real GPU's memory-partition miss queue).
        self._l2_waiters: list[list[tuple[int, int]]] = [
            [] for _ in range(cfg.num_hmcs)]
        # Per-slice crossbar ingress port occupancy (one request per xbar
        # cycle): requests queue behind earlier arrivals at a hot slice.
        self._xbar_free = [0.0] * cfg.num_hmcs
        self.xbar_queue_cycles = 0
        self.invalidation_bytes = 0
        self.dram_read_requests = 0
        self.store_bytes = 0
        # Baseline-path recovery (repro.faults): the system arms these
        # together with the fault injector.  ``recovery`` is the plan's
        # RecoveryPolicy and ``timeouts`` the TimeoutTracker shared with
        # the NDP ACK watchdog; both stay None in unarmed runs, whose
        # event stream is untouched.
        self.recovery = None
        self.timeouts = None
        # Wake hook for MSHR-capacity parking: the active scheduler binds
        # this to ``System._wake_sm`` so an L1 fill (which frees an MSHR
        # entry and may insert the line a parked SM spins on) reactivates
        # the owning SM.  Fired *before* the fill mutates cache state, so
        # the settle-before-mutate invariant (I1) holds for the owed-cycle
        # replay (docs/performance.md).
        self.sm_waker: Callable[[int], None] | None = None
        self.rstats = BaselineRecoveryStats()
        self._fetches: dict[tuple[int, int], _FetchState] = {}
        self._watchdogs: list[tuple[int, int, int, int]] = []

    # -- baseline / inline loads --------------------------------------------------

    def load(self, sm, access: MemAccess, on_done: Callable[[], None]) -> bool:
        """One coalesced line load from SM ``sm``.  Returns False on a
        structural reject (L1 MSHR full)."""
        sm_id = sm.sm_id
        line = access.line_addr
        l1 = self.l1[sm_id]
        if l1.lookup(line):
            self.engine.after(self.l1_latency, on_done)
            return True
        status = self.l1_mshr[sm_id].allocate(line, on_done)
        if status == "full":
            return False
        if status == "merged":
            return True
        # Primary L1 miss: cross the interconnect to the owning L2 slice,
        # queueing behind earlier requests at the slice's ingress port.
        part = self.amap.hmc_of(line * LINE_SIZE)
        now = self.engine.now
        start = max(float(now), self._xbar_free[part])
        self._xbar_free[part] = start + XBAR_SLOT
        delay = int(start) - now + XBAR_LATENCY
        self.xbar_queue_cycles += int(start) - now
        self.engine.after(delay, self._l2_access, sm_id, line)
        return True

    def replay_struct_rejects(self, sm_id: int, count: int) -> None:
        """Account ``count`` elided MSHR-full retry attempts exactly as
        the per-cycle loop would have: each is one L1 lookup miss plus one
        MSHR reject.  Valid because a struct-parked SM's state is frozen
        (any mutation wakes it first), so every elided retry is identical
        to the last real one -- rejected lookups touch no LRU state."""
        stats = self.l1_stats
        stats.misses += count
        stats.mshr_rejects += count

    def _l2_access(self, sm_id: int, line: int) -> None:
        part = self.amap.hmc_of(line * LINE_SIZE)
        l2 = self.l2[part]
        if l2.lookup(line):
            self.engine.after(self.l2_latency, self._fill_l1, sm_id, line)
            return
        status = self.l2_mshr[part].allocate(
            line, lambda: self._fill_l1(sm_id, line))
        if status == "full":
            # Park in the partition's miss queue; retried on fills.
            self._l2_waiters[part].append((sm_id, line))
            return
        if status == "merged":
            return
        self._fetch_from_dram(part, line)

    def _fetch_from_dram(self, part: int, line: int) -> None:
        if self.recovery is not None:
            st = _FetchState()
            self._fetches[(part, line)] = st
            self._issue_fetch(part, line, st)
            self._arm_watchdog(part, line, st)
            return
        self.dram_read_requests += 1
        req_size = PacketSizes.mem_read_request()
        resp_size = PacketSizes.mem_read_response()

        def at_hmc() -> None:
            self.hmcs[part].access_line(line, False, send_response)

        def send_response() -> None:
            self.gpu_links.to_gpu(part, resp_size,
                                  lambda: self._fill_l2(part, line))

        self.gpu_links.to_hmc(part, req_size, at_hmc)

    # -- recoverable fetch path (armed runs only) ---------------------------

    def _issue_fetch(self, part: int, line: int, st: _FetchState) -> None:
        """One (re)issue of a recoverable L2 fill.  Every packet of the
        chain carries a ``lost`` callback stamped with the attempt, so a
        drop anywhere (down-link, vault read, up-link) notifies us and a
        notification for a superseded attempt is ignored."""
        self.dram_read_requests += 1
        self.rstats.fetch_attempts += 1
        st.issued_at = self.engine.now
        attempt = st.attempt
        req_size = PacketSizes.mem_read_request()
        resp_size = PacketSizes.mem_read_response()

        def lost() -> None:
            self._fetch_lost(part, line, attempt)

        def at_hmc() -> None:
            self.hmcs[part].access_line(line, False, send_response,
                                        on_lost=lost)

        def send_response() -> None:
            self.gpu_links.to_gpu(part, resp_size,
                                  lambda: self._fill_l2(part, line),
                                  lost=lost)

        self.gpu_links.to_hmc(part, req_size, at_hmc, lost=lost)

    def _fetch_lost(self, part: int, line: int, attempt: int) -> None:
        """A request/response of fill attempt ``attempt`` died in flight.
        Reissue immediately unless a newer attempt (or the fill itself)
        already superseded this one."""
        self.rstats.fills_lost += 1
        st = self._fetches.get((part, line))
        if st is None or st.attempt != attempt:
            return
        self._reissue(part, line, st)

    def _reissue(self, part: int, line: int, st: _FetchState) -> None:
        if st.retries >= self.recovery.mshr_max_retries:
            # Abandon: the fill can never complete, so the run surfaces
            # as a deadlock (chaos outcome "fatal") instead of spinning.
            self.rstats.mshr_gaveup += 1
            return
        st.retries += 1
        st.attempt += 1
        self.rstats.mshr_reissues += 1
        self._issue_fetch(part, line, st)
        self._arm_watchdog(part, line, st)

    def _arm_watchdog(self, part: int, line: int, st: _FetchState) -> None:
        st.wd_token += 1
        deadline = self.engine.now + self.timeouts.timeout("mshr")
        heapq.heappush(self._watchdogs, (deadline, part, line, st.wd_token))

    def next_watchdog_deadline(self) -> int | None:
        """Earliest pending fill deadline (folded into the system loop's
        fast-forward so quiet regions don't skip watchdog polls)."""
        return self._watchdogs[0][0] if self._watchdogs else None

    def poll_watchdogs(self, now: int) -> None:
        """Reissue fills whose deadline expired; called by ``System.run``
        each polled cycle, like the NDP ACK watchdog."""
        wd = self._watchdogs
        while wd and wd[0][0] <= now:
            _, part, line, token = heapq.heappop(wd)
            st = self._fetches.get((part, line))
            if st is None or token != st.wd_token:
                continue   # filled or superseded; stale heap entry
            self.rstats.mshr_watchdog_fires += 1
            self._reissue(part, line, st)

    def _fill_l2(self, part: int, line: int) -> None:
        if self.recovery is not None:
            st = self._fetches.pop((part, line), None)
            if st is None:
                # A reissue and the (delayed) original both arrived; the
                # first response already filled the MSHR.  Exactly-once:
                # count and drop the duplicate.
                self.rstats.fills_dup += 1
                return
            self.rstats.fills += 1
            self.timeouts.observe("mshr", self.engine.now - st.issued_at)
        self.l2[part].insert(line)
        self.l2_mshr[part].fill(line)
        waiters = self._l2_waiters[part]
        mshr = self.l2_mshr[part]
        # Admit parked requests while MSHR capacity remains; hits and
        # merges don't consume entries, so keep draining until the file
        # is full again or the queue empties (avoids stranding a waiter
        # behind a request that turned into a late hit).
        while waiters and len(mshr) < mshr.num_entries:
            sm_id, wline = waiters.pop(0)
            self._l2_access(sm_id, wline)

    def _fill_l1(self, sm_id: int, line: int) -> None:
        # Fills always run as engine events, and the resulting warp
        # wake-ups funnel through SM.wake_warp — the active scheduler's
        # waker hook (invariants I1/I3, docs/performance.md).  Never call
        # this synchronously from another SM's tick.
        #
        # The explicit sm_waker fires first (settle against the frozen
        # pre-fill state, I1): a struct-parked SM has no MSHR waiter
        # registered for this line, so without it the freed entry/fresh
        # line would never reactivate the SM.
        if self.sm_waker is not None:
            self.sm_waker(sm_id)
        self.l1[sm_id].insert(line)
        self.l1_mshr[sm_id].fill(line)

    # -- baseline / inline stores ---------------------------------------------------

    def store(self, sm, access: MemAccess) -> bool:
        """Write-through store of one coalesced line access."""
        line = access.line_addr
        self.l1[sm.sm_id].touch_write(line)
        part = self.amap.hmc_of(line * LINE_SIZE)
        self.l2[part].touch_write(line)
        size = PacketSizes.mem_write(access.words)
        self.store_bytes += size
        self.gpu_links.to_hmc(
            part, size,
            lambda: self.hmcs[part].access_line(line, True, _written,
                                                noc_bytes=size))
        return True

    # -- NDP hooks ---------------------------------------------------------------------

    def rdf_probe(self, sm_id: int, line: int) -> bool:
        """RDF cache check (Section 4.1.1): L1 of the issuing SM, then the
        owning L2 slice.  No fill on miss."""
        if self.l1[sm_id].probe(line):
            return True
        part = self.amap.hmc_of(line * LINE_SIZE)
        return self.l2[part].probe(line)

    def invalidate(self, line: int) -> None:
        """Apply a vault-originated invalidation (Section 4.2)."""
        part = self.amap.hmc_of(line * LINE_SIZE)
        self.l2[part].invalidate(line)
        for l1 in self.l1:
            l1.invalidate(line)

    def count_invalidation_bytes(self, nbytes: int) -> None:
        self.invalidation_bytes += nbytes
