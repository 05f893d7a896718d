"""Property-based tests: random kernels through the asm round trip and
the analyzer; random request mixes through the vault scheduler."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.isa.analyzer import analyze_kernel
from repro.isa.asm import assemble, disassemble
from repro.isa.instructions import Opcode, alu, branch, ld, st as st_instr, sync
from repro.isa.kernel import BasicBlock, Kernel
from repro.memory.dram import DRAMTimingSM
from repro.memory.vault import DRAMRequest, DRAMStats, VaultController
from repro.sim.engine import Engine

# ---------------------------------------------------------------------------
# Random kernel generation
# ---------------------------------------------------------------------------

ARRAYS = ("A", "B", "C", "D")


@st.composite
def instr_strategy(draw, next_reg):
    kind = draw(st.sampled_from(["ld", "st", "alu", "sync"]))
    if kind == "ld":
        dst = next_reg()
        addr = draw(st.integers(0, 3))
        return ld(dst, addr, draw(st.sampled_from(ARRAYS)))
    if kind == "st":
        data = draw(st.integers(4, 30))
        addr = draw(st.integers(0, 3))
        return st_instr(data, addr, draw(st.sampled_from(ARRAYS)))
    if kind == "alu":
        dst = next_reg()
        srcs = draw(st.lists(st.integers(4, 30), min_size=1, max_size=3))
        return alu(dst, *srcs)
    return sync()


@st.composite
def kernel_strategy(draw):
    counter = [40]

    def next_reg():
        counter[0] += 1
        return counter[0]

    blocks = []
    n_blocks = draw(st.integers(1, 3))
    for b in range(n_blocks):
        n = draw(st.integers(1, 8))
        instrs = [draw(instr_strategy(next_reg)) for _ in range(n)]
        if draw(st.booleans()):
            instrs.append(branch())
        blocks.append(BasicBlock(instrs, label=f"b{b}"))
    return Kernel("rand", blocks)


class TestAsmProperties:
    @given(kernel_strategy())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_ops(self, kernel):
        text = disassemble(kernel)
        back = assemble(text)
        assert [i.op for i in back.all_instrs()] == \
            [i.op for i in kernel.all_instrs()]
        # Idempotent from text onward.
        assert disassemble(back) == text

    @given(kernel_strategy())
    @settings(max_examples=60, deadline=None)
    def test_analyzer_stable_across_round_trip(self, kernel):
        a1 = analyze_kernel(kernel)
        a2 = analyze_kernel(assemble(disassemble(kernel)))
        assert a1.nsu_body_lengths == a2.nsu_body_lengths

    @given(kernel_strategy())
    @settings(max_examples=60, deadline=None)
    def test_blocks_within_limits(self, kernel):
        for blk in analyze_kernel(kernel, max_mem_per_block=4).blocks:
            c = blk.candidate
            assert 1 <= c.num_mem <= 4
            # A block never contains excluded instruction classes.
            for ins in blk.instrs:
                assert ins.op in (Opcode.LD, Opcode.ST, Opcode.ALU)


# ---------------------------------------------------------------------------
# Vault scheduler under random mixes
# ---------------------------------------------------------------------------

def mk_vault(trefi=0):
    e = Engine()
    cfg = SystemConfig()
    timing = DRAMTimingSM.from_config(
        dataclasses.replace(cfg.hmc.timing, tREFI=trefi,
                            tRFC=40 if trefi else 0),
        cfg.gpu.sm_clock_mhz, 32)
    return e, VaultController(e, timing, 16, DRAMStats())


class TestVaultProperties:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7),
                              st.booleans()),
                    min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_every_request_completes_exactly_once(self, reqs):
        e, vault = mk_vault()
        done = []
        for i, (bank, row, is_write) in enumerate(reqs):
            vault.submit(DRAMRequest(is_write,
                                     lambda i=i: done.append(i),
                                     bank=bank, row=row))
        e.drain()
        assert sorted(done) == list(range(len(reqs)))

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7),
                              st.booleans()),
                    min_size=1, max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_completion_with_refresh_enabled(self, reqs):
        e, vault = mk_vault(trefi=100)
        done = []
        for bank, row, is_write in reqs:
            vault.submit(DRAMRequest(is_write, lambda: done.append(1),
                                     bank=bank, row=row))
        e.drain()
        assert len(done) == len(reqs)

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                    min_size=2, max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_stats_conserved(self, reqs):
        e, vault = mk_vault()
        stats = vault.stats
        for bank, row in reqs:
            vault.submit(DRAMRequest(False, lambda: None,
                                     bank=bank, row=row))
        e.drain()
        assert stats.reads == len(reqs)
        assert stats.row_hits + stats.row_misses == len(reqs)
        assert stats.activations == stats.row_misses
