"""Pluggable memory-substrate backends (ROADMAP item 4).

The simulator used to hard-wire one substrate: ``sim/system.py`` built
:class:`~repro.memory.hmc.HMCStack` objects directly and the controller
assumed their logic-layer NoC.  This module factors everything
substrate-specific behind one :class:`MemoryBackend` protocol so
alternative NDP substrates plug in without touching the system, the
controller, or the GPU memory path:

* **address map** -- how lines spread across devices and their internal
  channels (:meth:`MemoryBackend.make_address_map`);
* **device geometry** -- every backend's devices are
  :class:`~repro.memory.hmc.HMCStack` objects built from the backend's
  DRAM timing, vault (channel) count, queue depth and response hop
  (:meth:`MemoryBackend.device`);
* **link geometry** -- host-link bandwidth/latency per direction and the
  inter-device fabric rate (:meth:`gpu_link_kwargs`,
  :meth:`mem_link_bpc`);
* **NDP hooks** -- target selection for offload blocks
  (:meth:`select_target`, dispatching the paper's first-touch policy,
  the Figure 5 oracle, and the CODA co-location variant), the
  device-side command-queue depth (:meth:`ndp_cmd_entries`) and the
  latency of a device-local RDF response hop
  (:meth:`local_response_latency`);
* **fault sites** -- the controllers a :class:`~repro.faults.FaultPlan`
  arms (:meth:`fault_controllers`);
* **energy accounting** -- the off-chip link energy constant
  (:meth:`link_energy_nj_per_byte`) and whether an intra-device NoC
  exists to burn bytes at all (:attr:`internal_noc`).

``BACKENDS`` maps :data:`repro.config.BACKEND_NAMES` to singleton
backend objects; :func:`resolve_backend` is the one lookup everybody
uses.  The ``hmc`` backend reproduces the pre-refactor wiring exactly --
the pinned digest suite holds bit-identically -- while ``cxl`` is a
genuinely different substrate (see docs/backends.md for the departure
table and how to add a third).
"""

from __future__ import annotations

from repro.config import BACKEND_NAMES, SystemConfig
from repro.core.target_select import (coda_target, first_instr_target,
                                      optimal_target)
from repro.memory.address import AddressMap

__all__ = ["BACKENDS", "CXLBackend", "HMCBackend", "MemoryBackend",
           "backend_names", "resolve_backend"]


class MemoryBackend:
    """Base class / protocol for one memory substrate.

    Subclasses override the hooks below; the defaults implement the
    HMC behaviour so a new backend only states its departures.  Backends
    are stateless singletons -- everything per-run lives in the objects
    they build.
    """

    #: Registry name (matches a :data:`repro.config.BACKEND_NAMES` entry).
    name: str = ""
    #: True when devices route local traffic over an internal NoC whose
    #: bytes are counted (the Figure 10 "Intra-HMC NoC" component).
    internal_noc: bool = True

    # -- construction hooks --------------------------------------------------

    def validate(self, cfg: SystemConfig) -> None:
        """Raise ``ValueError`` for a config this substrate cannot build."""

    def make_address_map(self, cfg: SystemConfig) -> AddressMap:
        return AddressMap(cfg)

    def device(self, cfg: SystemConfig) -> tuple:
        """The geometry :class:`~repro.memory.hmc.HMCStack` builds one
        device from: ``(dram_timing, bus_bytes_per_dram_cycle, vaults,
        banks_per_vault, queue_size, access_latency)``.
        ``access_latency`` is the response hop after each DRAM access --
        here the 4-cycle logic-layer NoC traversal."""
        h = cfg.hmc
        return (h.timing, h.vault_bus_bytes_per_dram_cycle, h.num_vaults,
                h.banks_per_vault, h.vault_queue_size, 4)

    def build_stacks(self, engine, cfg: SystemConfig, amap: AddressMap,
                     counters) -> list:
        from repro.memory.hmc import HMCStack
        return [HMCStack(engine, cfg, i, amap, counters)
                for i in range(cfg.num_hmcs)]

    def gpu_link_kwargs(self, cfg: SystemConfig) -> dict:
        """Keyword overrides for :class:`~repro.network.fabric.GPULinks`
        (empty = the symmetric Table 2 defaults)."""
        return {}

    def mem_link_bpc(self, cfg: SystemConfig) -> float | None:
        """Inter-device fabric bandwidth in bytes/SM-cycle per link
        direction (None = the HMC serdes default)."""
        return None

    # -- NDP hooks -----------------------------------------------------------

    def select_target(self, cfg: SystemConfig, item, amap: AddressMap) -> int:
        """The target device for one offload block instance, honouring
        ``cfg.ndp.target_policy`` ("first" / "optimal" / "coda")."""
        policy = cfg.ndp.target_policy
        if policy == "optimal":
            return optimal_target(item.mem_accesses, amap)
        if policy == "coda":
            return coda_target(item.mem_accesses, item.block, amap)
        return first_instr_target(item.mem_accesses[0], amap)

    def ndp_cmd_entries(self, cfg: SystemConfig) -> int:
        """Device-side NDP command-queue credits per device."""
        return cfg.nsu.cmd_buffer_entries

    def local_response_latency(self, cfg: SystemConfig) -> int:
        """Cycles for an RDF response whose owner == target (the
        device-local return hop)."""
        return 4

    # -- fault / energy hooks ------------------------------------------------

    def fault_controllers(self, stacks) -> list:
        """The DRAM-side controllers a fault plan arms, in a
        deterministic order (the ``vault_read`` site lives here)."""
        return [vault for stack in stacks for vault in stack.vaults]

    def link_energy_nj_per_byte(self, params) -> float:
        """Off-chip link energy constant for this substrate's links."""
        return params.offchip_link_nj_per_byte


class HMCBackend(MemoryBackend):
    """The paper's substrate: HMC stacks with a logic-layer NoC, a
    symmetric serdes host link per stack, and the NSU's own command
    buffer as the device queue.  Every hook returns exactly what the
    pre-backend simulator hard-coded, so ``backend="hmc"`` runs are
    bit-identical to the seed digests."""

    name = "hmc"
    internal_noc = True


class CXLBackend(MemoryBackend):
    """CXL memory expanders: asymmetric host links, no intra-device NoC,
    DDR channel controllers, and an expander-side NDP command queue.
    See :class:`repro.config.CXLConfig` and docs/backends.md."""

    name = "cxl"
    internal_noc = False

    def validate(self, cfg: SystemConfig) -> None:
        x = cfg.cxl
        if x.num_channels & (x.num_channels - 1):
            raise ValueError("cxl.num_channels must be a power of two")
        if x.banks_per_channel & (x.banks_per_channel - 1):
            raise ValueError("cxl.banks_per_channel must be a power of two")

    def make_address_map(self, cfg: SystemConfig) -> AddressMap:
        # Same random-page device interleaving (the paper's unrestricted
        # placement survives the substrate swap); channel/bank/row decode
        # follows the expander's DDR geometry instead of the HMC's.
        return AddressMap(cfg, num_vaults=cfg.cxl.num_channels,
                          banks_per_vault=cfg.cxl.banks_per_channel,
                          row_bytes=cfg.cxl.row_bytes)

    def device(self, cfg: SystemConfig) -> tuple:
        # DDR5-class channels directly behind the expander port: no NoC
        # to traverse, the port hop only.
        x = cfg.cxl
        return (x.timing, x.channel_bus_bytes_per_dram_cycle, x.num_channels,
                x.banks_per_channel, x.channel_queue_size, x.port_latency)

    def gpu_link_kwargs(self, cfg: SystemConfig) -> dict:
        down, up = cfg.cxl.host_link_bytes_per_sm_cycle(
            cfg.gpu.sm_clock_mhz)
        return {"down_bpc": down, "up_bpc": up,
                "down_latency": cfg.cxl.link_latency_down,
                "up_latency": cfg.cxl.link_latency_up}

    def mem_link_bpc(self, cfg: SystemConfig) -> float:
        return cfg.cxl.fabric_bytes_per_sm_cycle(cfg.gpu.sm_clock_mhz)

    def ndp_cmd_entries(self, cfg: SystemConfig) -> int:
        return cfg.cxl.ndp_cmd_queue

    def local_response_latency(self, cfg: SystemConfig) -> int:
        # No NoC to traverse: the expander controller hop only.
        return cfg.cxl.port_latency

    def link_energy_nj_per_byte(self, params) -> float:
        return params.cxl_link_nj_per_byte


#: The backend registry; keys mirror :data:`repro.config.BACKEND_NAMES`.
BACKENDS: dict[str, MemoryBackend] = {
    "hmc": HMCBackend(),
    "cxl": CXLBackend(),
}

assert tuple(BACKENDS) == BACKEND_NAMES, \
    "BACKENDS registry drifted from config.BACKEND_NAMES"


def backend_names() -> tuple[str, ...]:
    return tuple(BACKENDS)


def resolve_backend(name: str | MemoryBackend | None) -> MemoryBackend:
    """Resolve a backend name (or pass an instance through; None means
    the default ``hmc``).  Raises :class:`KeyError` for unknown names."""
    if isinstance(name, MemoryBackend):
        return name
    if name is None:
        return BACKENDS["hmc"]
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown memory backend {name!r}; choose from "
                       f"{', '.join(BACKENDS)}") from None
