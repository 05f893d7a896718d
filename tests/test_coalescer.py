"""Unit tests for the memory coalescer, plus a differential test against
the original numpy implementation kept here as the oracle."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import LINE_SIZE, WORD_SIZE
from repro.gpu.coalescer import MemAccess, access_stats, coalesce


class TestCoalesce:
    def test_fully_coalesced_single_line(self):
        addrs = np.arange(32) * WORD_SIZE + 5 * LINE_SIZE
        (acc,) = coalesce(addrs)
        assert acc.line_addr == 5
        assert acc.words == 32
        assert not acc.irregular

    def test_strided_access_spans_lines(self):
        addrs = np.arange(32) * LINE_SIZE  # one line per thread
        accs = coalesce(addrs)
        assert len(accs) == 32
        assert all(a.words == 1 for a in accs)
        assert all(a.irregular for a in accs)

    def test_divergent_random_lines(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 20, 32) * WORD_SIZE
        accs = coalesce(addrs)
        assert 1 <= len(accs) <= 32
        total_words = sum(a.words for a in accs)
        assert total_words <= 32

    def test_duplicate_addresses_merge(self):
        addrs = np.zeros(32, dtype=np.int64)
        (acc,) = coalesce(addrs)
        assert acc.words == 1

    def test_active_mask_filters(self):
        addrs = np.arange(32) * WORD_SIZE
        active = np.zeros(32, dtype=bool)
        active[:4] = True
        (acc,) = coalesce(addrs, active)
        assert acc.words == 4

    def test_all_inactive_returns_empty(self):
        assert coalesce(np.arange(4), np.zeros(4, dtype=bool)) == ()

    def test_partial_warp_lane_ordered_is_aligned(self):
        # 4 lanes on one line with offsets 0,4,8,12 == i * word: the
        # Section 4.1.1 aligned test holds for a partial warp too.
        addrs = np.arange(4) * WORD_SIZE
        (acc,) = coalesce(addrs)
        assert not acc.irregular

    def test_misaligned_offsets_are_irregular(self):
        addrs = np.array([8, 4, 0, 12], dtype=np.int64)  # shuffled lanes
        (acc,) = coalesce(addrs)
        assert acc.irregular

    def test_access_stats(self):
        addrs = np.arange(64) * WORD_SIZE  # two full lines
        accs = coalesce(addrs)
        lines, words = access_stats(accs)
        assert lines == 2
        assert words == 64

    def test_bytes_touched(self):
        acc = MemAccess(0, 5, False)
        assert acc.bytes_touched == 5 * WORD_SIZE

    def test_line_boundary_split(self):
        # 32 words starting mid-line straddle two lines.
        addrs = (np.arange(32) * WORD_SIZE) + LINE_SIZE // 2
        accs = coalesce(addrs)
        assert len(accs) == 2
        assert sum(a.words for a in accs) == 32


def _numpy_coalesce(addrs, active=None, word_size=WORD_SIZE):
    """The original vectorized coalescer: stable argsort by line, one
    ``np.unique`` per line, ``np.array_equal`` for the aligned test."""
    addrs = np.asarray(addrs, dtype=np.int64)
    if active is not None:
        addrs = addrs[np.asarray(active, dtype=bool)]
    if addrs.size == 0:
        return ()
    lines = addrs // LINE_SIZE
    offsets = addrs % LINE_SIZE
    out = []
    order = np.argsort(lines, kind="stable")
    lines_sorted = lines[order]
    offs_sorted = offsets[order]
    boundaries = np.flatnonzero(np.diff(lines_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [lines_sorted.size]))
    single_line = len(starts) == 1
    for s, t in zip(starts, stops):
        line = int(lines_sorted[s])
        offs = offs_sorted[s:t]
        words = int(np.unique(offs // word_size).size)
        # Aligned iff the whole warp hits one line with lane-ordered offsets.
        aligned = (
            single_line
            and offs.size == t - s
            and np.array_equal(offs, np.arange(offs.size) * word_size)
        )
        out.append(MemAccess(line, words, irregular=not aligned))
    return tuple(out)


WARP = 32


@st.composite
def warp_accesses(draw):
    """(addrs, active, word_size) for one warp memory instruction."""
    word_size = draw(st.sampled_from([WORD_SIZE, 8]))
    per_line = LINE_SIZE // word_size
    pattern = draw(st.sampled_from(
        ["contiguous", "one-line", "clustered", "scattered"]))
    if pattern == "contiguous":
        # 32 consecutive words from a line start or from mid-line
        # (straddling a line boundary)
        start = draw(st.one_of(st.just(0), st.integers(0, 2 * per_line)))
        words = list(range(start, start + WARP))
    elif pattern == "one-line":
        words = draw(st.lists(st.integers(0, per_line - 1),
                              min_size=WARP, max_size=WARP))
    elif pattern == "clustered":
        # a few lines, so lanes collide on words (duplicates)
        words = draw(st.lists(st.integers(0, 3 * per_line),
                              min_size=WARP, max_size=WARP))
    else:
        words = draw(st.lists(st.integers(0, 1 << 30),
                              min_size=WARP, max_size=WARP))
    order = draw(st.sampled_from(["lane", "reversed", "shuffled"]))
    if order == "reversed":
        words.reverse()
    elif order == "shuffled":
        words = draw(st.permutations(words))
    base = draw(st.integers(0, 1 << 20)) * LINE_SIZE
    # sub-word byte offsets, shared or per lane
    jitter = draw(st.one_of(
        st.just([0] * WARP),
        st.sampled_from([1, word_size - 1]).map(lambda b: [b] * WARP),
        st.lists(st.integers(0, word_size - 1),
                 min_size=WARP, max_size=WARP)))
    addrs = (np.array(words, dtype=np.int64) * word_size + base
             + np.array(jitter, dtype=np.int64))
    mask = draw(st.one_of(
        st.none(),
        st.integers(0, WARP - 1),     # a single active lane
        st.lists(st.booleans(), min_size=WARP, max_size=WARP)))
    if isinstance(mask, int):
        active = np.zeros(WARP, dtype=bool)
        active[mask] = True
    else:
        active = None if mask is None else np.array(mask, dtype=bool)
    return addrs, active, word_size


class TestMatchesNumpyOracle:
    @settings(max_examples=400, deadline=None)
    @given(warp_accesses())
    # one full line with lanes reversed: every offset is present, but
    # not in lane order
    @example((np.arange(WARP)[::-1] * WORD_SIZE, None, WORD_SIZE))
    def test_same_accesses_in_same_order(self, case):
        addrs, active, word_size = case
        got = coalesce(addrs, active, word_size)
        assert got == _numpy_coalesce(addrs, active, word_size)
        assert all(type(a.line_addr) is int and type(a.words) is int
                   and type(a.irregular) is bool for a in got)

    def test_single_active_lane_is_aligned_only_at_offset_zero(self):
        addrs = np.arange(WARP) * WORD_SIZE
        for lane in (0, 5):
            active = np.zeros(WARP, dtype=bool)
            active[lane] = True
            (acc,) = coalesce(addrs, active)
            assert (acc,) == _numpy_coalesce(addrs, active)
            assert acc.irregular == (lane != 0)

    def test_word_size_8_full_line(self):
        addrs = np.arange(LINE_SIZE // 8) * 8 + 3 * LINE_SIZE
        (acc,) = coalesce(addrs, word_size=8)
        assert acc == MemAccess(3, LINE_SIZE // 8, False)
        assert coalesce(addrs[::-1], word_size=8) == \
            _numpy_coalesce(addrs[::-1], word_size=8)
