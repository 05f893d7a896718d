"""Memory-access coalescing (Section 4.1.1: addresses are "generated and
coalesced" on the GPU in both execution modes).

The coalescer turns the 32 per-thread addresses of a warp memory instruction
into unique cache-line accesses, remembering how many distinct words each
line actually provides.  The word count is what lets the NDP path send only
touched data in RDF response packets (Section 4.4) while the baseline always
moves whole 128 B lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, WORD_SIZE


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One coalesced line access of a warp memory instruction."""

    line_addr: int      # address // LINE_SIZE
    words: int          # distinct words touched by active threads
    irregular: bool     # True when per-thread offsets must ride the packet

    @property
    def bytes_touched(self) -> int:
        return self.words * WORD_SIZE


def coalesce(addrs: np.ndarray, active: np.ndarray | None = None,
             word_size: int = WORD_SIZE) -> tuple[MemAccess, ...]:
    """Coalesce per-thread byte addresses into line accesses.

    Parameters
    ----------
    addrs:
        int64 array of per-thread byte addresses (one per lane).
    active:
        optional boolean mask of active lanes.
    word_size:
        per-thread access size in bytes.

    An access is *aligned* (regular) when the active lanes touch a single
    line with ``offset(i) = i * word_size`` (the Section 4.1.1 aligned
    test); anything else carries per-thread offsets in its packet.
    Lines come out in ascending order.

    A plain Python pass over ``tolist()``: warps are 32 lanes wide, where
    numpy's per-call overhead dominates the arithmetic it saves.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    if active is not None:
        addrs = addrs[np.asarray(active, dtype=bool)]
    vals = addrs.tolist()
    if not vals:
        return ()
    lines: dict[int, set[int]] = {}
    for a in vals:
        lines.setdefault(a // LINE_SIZE, set()).add(a % LINE_SIZE // word_size)
    if len(lines) == 1:
        ((line, words),) = lines.items()
        aligned = all(a % LINE_SIZE == i * word_size
                      for i, a in enumerate(vals))
        return (MemAccess(line, len(words), not aligned),)
    # Several lines are never aligned.
    return tuple(MemAccess(line, len(lines[line]), True)
                 for line in sorted(lines))


def access_stats(accesses: tuple[MemAccess, ...]) -> tuple[int, int]:
    """(number of lines, total words touched) for a coalesced instruction."""
    return len(accesses), sum(a.words for a in accesses)
