"""Workload-model machinery: kernels -> analyzed blocks -> warp traces.

A :class:`WorkloadModel` authors one kernel in the IR and implements
:meth:`WorkloadModel.mem_addrs`, which supplies the per-thread byte
addresses of every dynamic memory instruction.  The base class runs the
static analyzer once, lays the kernel out into *segments* (plain
instructions vs. offload blocks), and unrolls ``iters`` loop iterations per
warp into a :class:`~repro.gpu.trace.WarpTrace`, coalescing each memory
instruction on the way (addresses are generated and coalesced on the GPU in
both execution modes, Section 4.1).

Input problems are scaled down from Table 1 (the simulator is cycle-level
Python, not a farm of GPGPU-sim machines); every workload keeps the *shape*
that drives its paper behaviour -- bytes per block instance, divergence,
reuse distance -- while the ``Scale`` presets set the total footprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.gpu.coalescer import coalesce
from repro.gpu.trace import DynBlock, DynInstr, WarpTrace
from repro.isa.analyzer import AnalyzedKernel, analyze_kernel
from repro.isa.instructions import Instr
from repro.isa.kernel import Kernel


@dataclass(frozen=True)
class Scale:
    """Problem-size preset."""

    name: str
    num_warps: int
    iters: int


#: Named presets.  "ci" keeps the whole test suite fast; "bench" is the
#: default for figure regeneration; "paper" doubles the work for final runs.
SCALES = {
    "ci": Scale("ci", num_warps=48, iters=3),
    "bench": Scale("bench", num_warps=512, iters=6),
    "paper": Scale("paper", num_warps=1024, iters=8),
}


class ArrayLayout:
    """Assigns each named array a disjoint base address and extent."""

    REGION = 1 << 34   # 16 GiB spacing: arrays never collide

    def __init__(self) -> None:
        self._bases: dict[str, int] = {}
        self._sizes: dict[str, int] = {}

    def add(self, name: str, size_bytes: int) -> None:
        if name in self._bases:
            raise ValueError(f"duplicate array {name!r}")
        self._bases[name] = len(self._bases) * self.REGION
        self._sizes[name] = size_bytes

    def base(self, name: str) -> int:
        return self._bases[name]

    def size(self, name: str) -> int:
        return self._sizes[name]

    def element(self, name: str, index) -> np.ndarray:
        """Byte addresses of 4-byte elements ``index`` (array or scalar)."""
        idx = np.asarray(index, dtype=np.int64)
        size = self._sizes[name]
        return self._bases[name] + (idx * 4) % max(4, size)


@dataclass
class MemCtx:
    """Context handed to :meth:`WorkloadModel.mem_addrs`."""

    warp: int
    it: int
    lanes: np.ndarray          # 0..31
    rng: np.random.Generator
    scale: Scale

    @property
    def flat(self) -> np.ndarray:
        """Global element indices for streaming patterns:
        (warp * iters + it) * 32 + lane."""
        base = (self.warp * self.scale.iters + self.it) * self.lanes.size
        return base + self.lanes


@dataclass
class WorkloadInstance:
    """A built workload: analyzed kernel + all warp traces."""

    name: str
    analyzed: AnalyzedKernel
    traces: list[WarpTrace]
    scale: Scale

    @property
    def blocks(self):
        return self.analyzed.blocks

    @property
    def num_warps(self) -> int:
        return len(self.traces)


class WorkloadModel:
    """Base class for the ten Table 1 workload models."""

    #: Table 1 abbreviation, e.g. "VADD".
    name: str = ""
    #: Table 1 expected per-block NSU instruction counts, for verification.
    table1_nsu_counts: tuple[int, ...] = ()
    #: Scale multipliers: workloads with big blocks need fewer iterations.
    warp_factor: float = 1.0
    iter_factor: float = 1.0

    def kernel(self) -> Kernel:
        raise NotImplementedError

    def layout(self, scale: Scale) -> ArrayLayout:
        raise NotImplementedError

    def mem_addrs(self, instr: Instr, arrays: ArrayLayout,
                  ctx: MemCtx) -> np.ndarray:
        """Per-thread byte addresses for one dynamic memory instruction."""
        raise NotImplementedError

    def active_lanes(self, instr: Instr, ctx: MemCtx) -> np.ndarray | None:
        """Optional per-instruction active mask (default: the warp mask)."""
        return self.warp_active_mask(ctx)

    def warp_active_mask(self, ctx: MemCtx) -> np.ndarray | None:
        """Optional per-(warp, iteration) active-thread mask.

        Divergent control flow (a shrinking BFS frontier, boundary
        threads in a stencil) leaves some lanes inactive: fewer coalesced
        words move, and the offload command/ACK register payloads scale
        with the active count (Figure 4).  ``None`` means all lanes."""
        return None

    def prologue(self) -> list[Instr]:
        """Instructions executed once per warp before the loop body --
        kernel setup code outside any offload block (e.g. BPROP's read of
        its constant structure, which is what puts it in the GPU caches
        so later RDF probes hit)."""
        return []

    # -- construction -------------------------------------------------------------

    def build(self, cfg: SystemConfig, scale: Scale | str) -> WorkloadInstance:
        if isinstance(scale, str):
            scale = SCALES[scale]
        scale = Scale(scale.name,
                      max(1, int(scale.num_warps * self.warp_factor)),
                      max(1, int(scale.iters * self.iter_factor)))
        analyzed = analyze_kernel(self.kernel(),
                                  cfg.ndp.max_mem_instrs_per_block)
        if (self.table1_nsu_counts
                and tuple(analyzed.nsu_body_lengths) != self.table1_nsu_counts):
            raise AssertionError(
                f"{self.name}: NSU block sizes {analyzed.nsu_body_lengths} "
                f"do not match Table 1 {self.table1_nsu_counts}")
        arrays = self.layout(scale)
        segments = self._segments(analyzed)
        lanes = np.arange(cfg.gpu.warp_width, dtype=np.int64)
        # crc32, not hash(): hash() of a str varies with PYTHONHASHSEED,
        # which made trace digests differ across processes (DET004).
        name_key = zlib.crc32(self.name.encode()) & 0xFFFF
        traces = []
        for w in range(scale.num_warps):
            rng = np.random.default_rng((cfg.seed, name_key, w))
            traces.append(self._warp_trace(w, scale, segments, arrays,
                                           lanes, rng))
        return WorkloadInstance(self.name, analyzed, traces, scale)

    def _segments(self, analyzed: AnalyzedKernel):
        """Split the kernel into (kind, payload) segments in program order:
        ("instr", Instr) or ("block", OffloadBlock)."""
        kernel = analyzed.kernel
        covered: dict[tuple[int, int], object] = {}
        for blk in analyzed.blocks:
            c = blk.candidate
            covered[(c.block_index, c.start)] = blk
        segs = []
        for b_idx, bb in enumerate(kernel.blocks):
            i = 0
            while i < len(bb.instrs):
                blk = covered.get((b_idx, i))
                if blk is not None:
                    segs.append(("block", blk))
                    i = blk.candidate.stop
                else:
                    segs.append(("instr", bb.instrs[i]))
                    i += 1
        return segs

    def _warp_trace(self, warp: int, scale: Scale, segments, arrays,
                    lanes, rng) -> WarpTrace:
        trace: WarpTrace = []
        ctx0 = MemCtx(warp=warp, it=0, lanes=lanes, rng=rng, scale=scale)
        for instr in self.prologue():
            accesses = (self._coalesced(instr, arrays, ctx0)
                        if instr.is_mem else ())
            trace.append(DynInstr(instr, accesses))
        for it in range(scale.iters):
            ctx = MemCtx(warp=warp, it=it, lanes=lanes, rng=rng, scale=scale)
            mask = self.warp_active_mask(ctx)
            active = int(mask.sum()) if mask is not None else lanes.size
            for kind, payload in segments:
                if kind == "instr":
                    instr = payload
                    accesses = ()
                    if instr.is_mem:
                        accesses = self._coalesced(instr, arrays, ctx)
                    trace.append(DynInstr(instr, accesses))
                else:
                    blk = payload
                    groups = tuple(
                        self._coalesced(ins, arrays, ctx)
                        for ins in blk.instrs if ins.is_mem)
                    trace.append(DynBlock(blk, groups, active))
        return trace

    def _coalesced(self, instr, arrays, ctx):
        addrs = self.mem_addrs(instr, arrays, ctx)
        active = self.active_lanes(instr, ctx)
        accesses = coalesce(addrs, active)
        if not accesses:
            raise AssertionError(
                f"{self.name}: memory instruction {instr} produced no "
                "accesses (empty active mask?)")
        return accesses
