"""Unit tests for the workload models: Table 1 counts and the address
properties that drive each workload's paper behaviour."""

import hashlib

import pytest

from repro.config import LINE_SIZE, ci_config
from repro.gpu.trace import DynBlock, DynInstr
from repro.workloads import SCALES, Scale, get_workload, workload_names

CFG = ci_config()

TABLE1 = {
    "BPROP": (29, 23),
    "BFS": (1, 1, 16),
    "BICG": (4, 4),
    "FWT": (16, 4),
    "KMN": (3,),
    "MiniFE": (3,),
    "SP": (3,),
    "STN": (15,),
    "STCL": (3, 9, 1, 1),
    "VADD": (4,),
}


@pytest.fixture(scope="module")
def built():
    return {n: get_workload(n).build(CFG, "ci") for n in workload_names()}


class TestTable1Counts:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_nsu_body_lengths(self, built, name):
        assert tuple(built[name].analyzed.nsu_body_lengths) == TABLE1[name]


class TestTraceStructure:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_every_warp_has_blocks(self, built, name):
        for trace in built[name].traces:
            assert any(isinstance(i, DynBlock) for i in trace)

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_block_access_groups_match_mem_count(self, built, name):
        for trace in built[name].traces[:8]:
            for item in trace:
                if isinstance(item, DynBlock):
                    n_mem = item.block.num_loads + item.block.num_stores
                    assert len(item.mem_accesses) == n_mem
                    assert all(len(g) >= 1 for g in item.mem_accesses)

    def test_traces_deterministic(self):
        a = get_workload("BFS").build(CFG, "ci")
        b = get_workload("BFS").build(CFG, "ci")
        for ta, tb in zip(a.traces[:4], b.traces[:4]):
            for ia, ib in zip(ta, tb):
                if isinstance(ia, DynBlock):
                    assert ia.mem_accesses == ib.mem_accesses

    def test_warps_have_distinct_streams(self, built):
        inst = built["VADD"]
        first = [i for i in inst.traces[0] if isinstance(i, DynBlock)][0]
        second = [i for i in inst.traces[1] if isinstance(i, DynBlock)][0]
        assert first.mem_accesses != second.mem_accesses


class TestAddressCharacter:
    def _block_accesses(self, inst, block_id):
        out = []
        for trace in inst.traces:
            for item in trace:
                if isinstance(item, DynBlock) and \
                        item.block.block_id == block_id:
                    out.append(item.mem_accesses)
        return out

    def test_vadd_fully_coalesced(self, built):
        for groups in self._block_accesses(built["VADD"], 0)[:16]:
            for g in groups:
                assert len(g) == 1
                assert g[0].words == 32

    def test_bfs_gathers_divergent(self, built):
        # The single-indirect-load blocks touch many lines with few
        # useful words each.
        for groups in self._block_accesses(built["BFS"], 0)[:16]:
            (g,) = groups
            assert len(g) > 4
            avg_words = sum(a.words for a in g) / len(g)
            assert avg_words < 4

    def test_kmn_streams_read_and_write(self, built):
        # Rodinia kmeans uses a transposed feature layout for coalescing;
        # both the feature read and the partial-sum write stream fresh
        # lines with no reuse (the source of its bandwidth dominance).
        lines = []
        for groups in self._block_accesses(built["KMN"], 0)[:32]:
            for g in groups:
                assert len(g) == 1
                assert g[0].words == 32
                lines.append(g[0].line_addr)
        assert len(set(lines)) == len(lines)   # never re-touched

    def test_bprop_const_is_single_hot_line(self, built):
        lines = set()
        for groups in self._block_accesses(built["BPROP"], 0)[:16]:
            for g in groups[3:12]:      # the 9 const-struct loads
                for a in g:
                    lines.add(a.line_addr)
        assert len(lines) <= 2          # 68 bytes -> at most 2 lines

    def test_bprop_first_load_streams(self, built):
        # The first memory instruction must be the streaming weight load,
        # so the first-access target policy spreads blocks over stacks.
        targets = set()
        from repro.core.target_select import first_instr_target
        from repro.memory.address import AddressMap

        amap = AddressMap(CFG)
        for groups in self._block_accesses(built["BPROP"], 0):
            targets.add(first_instr_target(groups[0], amap))
        assert len(targets) == CFG.num_hmcs

    def test_stn_neighbors_overlap_across_warps(self, built):
        # Adjacent warps must share neighbour lines (the L2-reuse source).
        inst = built["STN"]
        per_warp_lines = []
        for trace in inst.traces[:6]:
            lines = set()
            for item in trace:
                if isinstance(item, DynBlock):
                    for g in item.mem_accesses[:7]:
                        lines.update(a.line_addr for a in g)
            per_warp_lines.append(lines)
        overlaps = sum(bool(per_warp_lines[i] & per_warp_lines[i + 1])
                       for i in range(len(per_warp_lines) - 1))
        assert overlaps >= 1

    def test_stcl_points_working_set_bounded(self, built):
        inst = built["STCL"]
        lines = set()
        for trace in inst.traces:
            for item in trace:
                if isinstance(item, DynBlock) and item.block.block_id == 0:
                    for g in item.mem_accesses:
                        lines.update(a.line_addr for a in g)
        # The resident point block fits in the caches by construction.
        assert len(lines) * LINE_SIZE < 2 * 1024 * 1024

    def test_bprop_prologue_warms_cache(self, built):
        trace = built["BPROP"].traces[0]
        head = trace[0]
        assert isinstance(head, DynInstr)
        assert head.instr.array == "net_unit"


class TestDivergenceMasks:
    def test_bfs_frontier_thins_over_iterations(self):
        inst = get_workload("BFS").build(CFG, Scale("t", 16, 12))
        actives = sorted({i.active_threads for t in inst.traces
                          for i in t if isinstance(i, DynBlock)})
        assert actives[0] >= 8          # never empty
        assert actives[0] < 32          # real divergence appears
        assert actives[-1] == 32        # first levels run full warps

    def test_masked_blocks_move_fewer_words(self):
        inst = get_workload("BFS").build(CFG, Scale("t", 8, 12))
        full = partial = None
        for t in inst.traces:
            for item in t:
                if not isinstance(item, DynBlock):
                    continue
                if item.block.block_id == 2:   # the 16-instr update block
                    words = sum(a.words for g in item.mem_accesses
                                for a in g)
                    if item.active_threads == 32:
                        full = words
                    elif item.active_threads <= 16:
                        partial = words
        assert full is not None and partial is not None
        assert partial < full

    def test_default_workloads_run_full_warps(self):
        inst = get_workload("VADD").build(CFG, "ci")
        for t in inst.traces[:4]:
            for item in t:
                if isinstance(item, DynBlock):
                    assert item.active_threads == 32


class TestScaling:
    def test_scale_presets_exist(self):
        assert set(SCALES) == {"ci", "bench", "paper"}

    def test_custom_scale(self):
        inst = get_workload("VADD").build(CFG, Scale("custom", 8, 2))
        assert inst.num_warps == 8

    def test_iter_factor_respected(self):
        bprop = get_workload("BPROP").build(CFG, Scale("s", 8, 8))
        assert bprop.scale.iters == 4   # iter_factor = 0.5


def _trace_digest(inst) -> str:
    """sha256 over every warp's items: a block's ``active_threads`` plus
    every coalesced ``(line_addr, words, irregular)`` triple, with item,
    group and warp boundaries marked so regrouping changes the digest."""
    h = hashlib.sha256()
    for trace in inst.traces:
        h.update(b"W")
        for item in trace:
            if isinstance(item, DynBlock):
                h.update(b"B%d" % item.active_threads)
                groups = item.mem_accesses
            else:
                h.update(b"I")
                groups = (item.accesses,)
            for group in groups:
                h.update(b"G")
                for a in group:
                    h.update(b"%d,%d,%d;"
                             % (a.line_addr, a.words, a.irregular))
    return h.hexdigest()[:16]


class TestTracePins:
    """Built-trace content at ``ci`` scale, pinned per workload.

    Checks trace generation (address models, active masks, coalescing)
    directly rather than through simulation digests: a coalescer or
    ``mem_addrs`` change that alters any access shows up here first."""

    EXPECTED = {
        "BPROP": "115382c9a498c579",
        "BFS": "827cf29ace1897af",
        "BICG": "c1b5cd7878bc33a5",
        "FWT": "8561a44a8580c4c8",
        "KMN": "afba678ca2764746",
        "MiniFE": "f8ec466524922619",
        "SP": "efb9e76895a0db0f",
        "STN": "22023ac16759813f",
        "STCL": "8b124cad8fdfe515",
        "VADD": "32c633f48d76ef05",
    }

    def test_all_table1_workloads_pinned(self):
        assert set(self.EXPECTED) == set(TABLE1)

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_trace_digest(self, built, name):
        assert _trace_digest(built[name]) == self.EXPECTED[name]
