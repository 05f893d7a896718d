"""Link fabrics: the inter-HMC memory network and the GPU off-chip links.

Both fabrics are built from :class:`repro.sim.engine.Link` servers, one per
(edge, direction).  The memory network forwards packets hop-by-hop along the
dimension-order route so every traversed link pays serialization -- this is
what makes multi-hop RDF forwarding cost real bandwidth, and what keeps
inter-HMC data movement off the GPU links (the paper's central bandwidth
argument).

Both fabrics carry an optional fault injector (``repro.faults``): when a
plan is armed, every send is filtered and may be dropped, delayed or
corrupted.  Senders that maintain conservation counters pass a ``lost``
callback that fires when their packet dies in flight.
"""

from __future__ import annotations

from typing import Callable

from repro.config import SystemConfig
from repro.network.topology import dimension_order_path, hypercube_topology
from repro.sim.engine import Engine, Link, LinkCounters

#: Per-hop router pipeline latency (SM cycles).
HOP_LATENCY = 6
#: GPU link propagation latency (SM cycles).
GPU_LINK_LATENCY = 10


class MemoryNetwork:
    """Hypercube of HMC-to-HMC serdes links."""

    def __init__(self, engine: Engine, cfg: SystemConfig,
                 counters: LinkCounters, *,
                 bpc: float | None = None) -> None:
        self.engine = engine
        self.cfg = cfg
        self.faults = None   # armed by the system when a plan is active
        self.edges = hypercube_topology(cfg.num_hmcs)
        # Per-direction link bandwidth; the memory backend may override
        # (the CXL backend models a switch fabric slower than HMC serdes).
        if bpc is None:
            bpc = cfg.hmc.link_bytes_per_sm_cycle(cfg.gpu.sm_clock_mhz)
        self._links: dict[tuple[int, int], Link] = {}
        # Edges arrive sorted: link ids follow a canonical order.
        for u, v in self.edges:
            for a, b in ((u, v), (v, u)):
                self._links[(a, b)] = Link(
                    engine, f"net{a}->{b}", bpc, latency=HOP_LATENCY,
                    traffic_class="mem_net", counters=counters)

    def link(self, src: int, dst: int) -> Link:
        return self._links[(src, dst)]

    def send(self, src: int, dst: int, size_bytes: int,
             deliver: Callable[[], None],
             lost: Callable[[], None] | None = None) -> None:
        """Route a packet from stack ``src`` to stack ``dst``.

        ``deliver`` fires at the destination's logic layer.  Local traffic
        (src == dst) skips the network entirely.  ``lost`` fires instead of
        ``deliver`` if an armed fault plan kills the packet in flight.

        Every delivery — including the local src == dst shortcut — runs
        as an engine event, never inline in the caller's frame.  The
        active-set scheduler relies on this: no packet may wake an SM
        synchronously from inside another component's tick
        (invariant I3, docs/performance.md).
        """
        if self.faults is not None:
            deliver = self.faults.packet("mem_net", deliver, lost)
            if deliver is None:
                return
        if src == dst:
            self.engine.at(self.engine.now, deliver)
            return
        path = dimension_order_path(src, dst)
        self._forward(path, 0, size_bytes, deliver)

    def _forward(self, path: list[int], hop: int, size: int,
                 deliver: Callable[[], None]) -> None:
        if hop == len(path) - 1:
            deliver()
            return
        link = self._links[(path[hop], path[hop + 1])]
        link.send(size, lambda: self._forward(path, hop + 1, size, deliver))

    def hops(self, src: int, dst: int) -> int:
        return len(dimension_order_path(src, dst)) - 1

    def total_bytes(self) -> int:
        return sum(l.bytes_sent for l in self._links.values())

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        links = self._links.values()
        return {
            "bytes": self.total_bytes(),
            "packets": sum(l.packets_sent for l in links),
            "max_queue_delay": max((l.queue_delay for l in links), default=0),
        }


class GPULinks:
    """The GPU's off-chip links, one bidirectional link per HMC.

    Table 2: 8 bidirectional links at 20 GB/s per direction.  With 8 stacks,
    each stack hangs off one dedicated link (the memory-network footnote of
    Figure 1); requests to stack ``i`` serialize on link ``i`` downstream and
    responses on link ``i`` upstream.
    """

    def __init__(self, engine: Engine, cfg: SystemConfig,
                 counters: LinkCounters, *,
                 down_bpc: float | None = None,
                 up_bpc: float | None = None,
                 down_latency: int = GPU_LINK_LATENCY,
                 up_latency: int = GPU_LINK_LATENCY) -> None:
        if cfg.gpu.num_links != cfg.num_hmcs:
            raise ValueError(
                f"system wiring expects one GPU link per HMC "
                f"({cfg.gpu.num_links} links, {cfg.num_hmcs} HMCs)")
        self.engine = engine
        self.faults = None   # armed by the system when a plan is active
        # Memory backends may make the link asymmetric (CXL.mem has
        # different request/response channel widths and latencies);
        # defaults keep the symmetric Table 2 link.
        if down_bpc is None:
            down_bpc = cfg.gpu.link_bytes_per_sm_cycle
        if up_bpc is None:
            up_bpc = cfg.gpu.link_bytes_per_sm_cycle
        self.down: list[Link] = []   # GPU -> HMC
        self.up: list[Link] = []     # HMC -> GPU
        for i in range(cfg.num_hmcs):
            self.down.append(Link(engine, f"gpu->hmc{i}", down_bpc,
                                  latency=down_latency,
                                  traffic_class="gpu_link",
                                  counters=counters))
            self.up.append(Link(engine, f"hmc{i}->gpu", up_bpc,
                                latency=up_latency,
                                traffic_class="gpu_link",
                                counters=counters))

    def to_hmc(self, hmc: int, size_bytes: int,
               deliver: Callable[[], None],
               lost: Callable[[], None] | None = None) -> None:
        if self.faults is not None:
            deliver = self.faults.packet("gpu_link_down", deliver, lost)
            if deliver is None:
                return
        self.down[hmc].send(size_bytes, deliver)

    def to_gpu(self, hmc: int, size_bytes: int,
               deliver: Callable[[], None],
               lost: Callable[[], None] | None = None) -> None:
        if self.faults is not None:
            deliver = self.faults.packet("gpu_link_up", deliver, lost)
            if deliver is None:
                return
        self.up[hmc].send(size_bytes, deliver)

    def bytes_down(self) -> int:
        return sum(l.bytes_sent for l in self.down)

    def bytes_up(self) -> int:
        return sum(l.bytes_sent for l in self.up)

    def total_bytes(self) -> int:
        return self.bytes_down() + self.bytes_up()

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        links = self.down + self.up
        return {
            "bytes_down": self.bytes_down(),
            "bytes_up": self.bytes_up(),
            "packets": sum(l.packets_sent for l in links),
            "max_queue_delay": max((l.queue_delay for l in links), default=0),
        }
