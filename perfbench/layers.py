"""Per-layer metrics of a traced run.

Counts come from span calls and from the simulator's own counters read
after each cell; layer times come from span self time.  Every count here is
exact and host-independent: two traced runs at one seed must agree on
all of them (see test_perfbench.py).
"""

from __future__ import annotations

from collections import Counter

#: name -> unit, in report order.  Counts use ``count``; ratios of two
#: counts use ``ratio``; layer times are wall seconds from spans.
PER_LAYER: dict[str, str] = {
    "system.sim_cycles": "cycles",
    "system.stepped_cycles": "cycles",
    "system.fast_forwarded_cycles": "cycles",
    "system.sm_ticks_per_cycle": "ticks/cycle",
    "system.sm_wakes": "count",
    "system.struct_parks": "count",
    "system.struct_replayed": "count",
    "system.self_s": "s",
    "engine.events_per_cycle": "events/cycle",
    "engine.calendar_share": "ratio",
    "engine.events_recycled_share": "ratio",
    "engine.self_s": "s",
    "gpu.tick_calls": "count",
    "gpu.issue_share": "ratio",
    "gpu.l1_hit_rate": "ratio",
    "gpu.stall_exec_unit_busy": "cycles",
    "gpu.stall_dependency": "cycles",
    "gpu.stall_warp_idle": "cycles",
    "gpu.self_s": "s",
    "memsys.load_calls": "count",
    "memsys.store_calls": "count",
    "memsys.l2_hit_rate": "ratio",
    "memsys.mshr_rejects": "count",
    "memsys.self_s": "s",
    "memory.access_calls": "count",
    "memory.dram_requests": "count",
    "memory.pool_reuse_share": "ratio",
    "memory.row_hit_rate": "ratio",
    "memory.vault_queue_peak": "count",
    "memory.self_s": "s",
    "network.send_calls": "count",
    "network.mem_net_bytes": "bytes",
    "network.gpu_link_bytes": "bytes",
    "network.max_queue_delay": "cycles",
    "network.self_s": "s",
    "core.start_block_calls": "count",
    "core.offload_share": "ratio",
    "core.pending_rejects": "count",
    "core.nsu_ticks": "count",
    "core.nsu_instructions": "count",
    "core.self_s": "s",
    "workloads.build_s": "s",
    "setup.import_s": "s",
    "trace.overhead": "ratio",
}

#: Layers whose self time is reported.  ``workloads`` is reported as
#: ``workloads.build_s``, its inclusive build time.
TIMED_LAYERS = ("system", "engine", "gpu", "memsys", "memory", "network",
                "core")

#: The per-layer metrics that are exact counts (or ratios of them).
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit != "s" and name != "trace.overhead")


def cell_counters(system, result) -> Counter:
    """The simulator-side counters of one finished cell."""
    c: Counter = Counter()
    c["cycles"] = result.cycles
    c["stepped"] = system.phases.stepped
    c["fast_forwarded"] = system.phases.fast_forwarded
    for key in ("sm_ticks", "sm_wakes", "struct_parks", "struct_replayed"):
        c[key] = system.sched_stats[key]
    eng = system.engine.metrics_snapshot()
    c["events"] = eng["events_processed"]
    c["calendar_events"] = eng["calendar_events"]
    # After a drained run every scheduled event has been recycled once,
    # and every record ever allocated is back on the free list.
    c["scheduled"] = eng["events_recycled"]
    c["records_allocated"] = eng["event_pool_free"]
    c["l1_hits"], c["l1_misses"] = result.l1_hits, result.l1_misses
    c["l2_hits"], c["l2_misses"] = result.l2_hits, result.l2_misses
    c["stall_exec_unit_busy"] = result.stalls.exec_unit_busy
    c["stall_dependency"] = result.stalls.dependency_stall
    c["stall_warp_idle"] = result.stalls.warp_idle
    c["mshr_rejects"] = (system.memsys.l1_stats.mshr_rejects
                         + system.memsys.l2_stats.mshr_rejects)
    for hmc in system.hmcs:
        c["pool_created"] += hmc.pool.created
        c["pool_reused"] += hmc.pool.reused
        c["row_hits"] += hmc.stats.row_hits
        c["row_misses"] += hmc.stats.row_misses
        c["vault_queue_peak"] = max(c["vault_queue_peak"],
                                    hmc.stats.queue_peak)
    c["mem_net_bytes"] = result.traffic.mem_net
    c["gpu_link_bytes"] = result.traffic.gpu_link
    c["offloads"] = result.offloads_issued
    c["blocks"] = result.blocks_total
    c["pending_rejects"] = (system.ndp.stats.pending_rejects
                            if system.ndp is not None else 0)
    c["nsu_instructions"] = result.nsu_instructions
    return c


def merge(total: Counter, cell: Counter) -> None:
    """Sum counters over cells; peaks take the maximum."""
    for key, value in cell.items():
        if key == "vault_queue_peak":
            total[key] = max(total[key], value)
        else:
            total[key] += value


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, c: Counter, *, import_s: float,
                  overhead: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a tracer and merged counters."""
    calls = tracer.counts()
    selfs = tracer.self_s()
    inclusive = tracer.inclusive_s()
    ticks = calls.get("gpu.SM.tick", 0)
    out = {
        "system.sim_cycles": c["cycles"],
        "system.stepped_cycles": c["stepped"],
        "system.fast_forwarded_cycles": c["fast_forwarded"],
        "system.sm_ticks_per_cycle": _share(c["sm_ticks"], c["stepped"]),
        "system.sm_wakes": c["sm_wakes"],
        "system.struct_parks": c["struct_parks"],
        "system.struct_replayed": c["struct_replayed"],
        "engine.events_per_cycle": _share(c["events"], c["cycles"]),
        "engine.calendar_share": _share(c["calendar_events"],
                                        c["scheduled"]),
        "engine.events_recycled_share": _share(
            c["scheduled"] - c["records_allocated"], c["scheduled"]),
        "gpu.tick_calls": ticks,
        "gpu.issue_share": _share(tracer.sm_ticks_issued, ticks),
        "gpu.l1_hit_rate": _share(c["l1_hits"],
                                  c["l1_hits"] + c["l1_misses"]),
        "gpu.stall_exec_unit_busy": c["stall_exec_unit_busy"],
        "gpu.stall_dependency": c["stall_dependency"],
        "gpu.stall_warp_idle": c["stall_warp_idle"],
        "memsys.load_calls": calls.get("memsys.GPUMemSystem.load", 0),
        "memsys.store_calls": calls.get("memsys.GPUMemSystem.store", 0),
        "memsys.l2_hit_rate": _share(c["l2_hits"],
                                     c["l2_hits"] + c["l2_misses"]),
        "memsys.mshr_rejects": c["mshr_rejects"],
        "memory.access_calls": calls.get("memory.HMCStack.access_line", 0),
        "memory.dram_requests": c["pool_created"] + c["pool_reused"],
        "memory.pool_reuse_share": _share(
            c["pool_reused"], c["pool_created"] + c["pool_reused"]),
        "memory.row_hit_rate": _share(c["row_hits"],
                                      c["row_hits"] + c["row_misses"]),
        "memory.vault_queue_peak": c["vault_queue_peak"],
        "network.send_calls": sum(calls.get(name, 0) for name in (
            "network.MemoryNetwork.send", "network.GPULinks.to_hmc",
            "network.GPULinks.to_gpu")),
        "network.mem_net_bytes": c["mem_net_bytes"],
        "network.gpu_link_bytes": c["gpu_link_bytes"],
        "network.max_queue_delay": tracer.max_queue_delay,
        "core.start_block_calls": calls.get(
            "core.NDPController.start_block", 0),
        "core.offload_share": _share(c["offloads"], c["blocks"]),
        "core.pending_rejects": c["pending_rejects"],
        "core.nsu_ticks": calls.get("core.NSU.tick", 0),
        "core.nsu_instructions": c["nsu_instructions"],
        "workloads.build_s": inclusive.get(
            "workloads.WorkloadModel.build", 0.0),
        "setup.import_s": import_s,
        "trace.overhead": overhead,
    }
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out
