"""Set-associative caches with MSHRs.

The paper assumes write-through GPU caches (Section 5), which simplifies
coherence: NDP writes only need an invalidation message, never a writeback.
We model tag state exactly (true LRU within a set) and use MSHRs to merge
outstanding misses to the same line; a full MSHR file rejects the access,
which surfaces as an ExecUnitBusy structural stall at the SM.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_rejects: int = 0
    invalidations: int = 0
    accesses_probe: int = 0     # RDF tag probes (no fill)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """Tag array with true-LRU replacement; write-through, no write-allocate.

    The cache stores *line addresses* (already divided by the line size).
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 stats: CacheStats | None = None) -> None:
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_size)
        if self.num_sets < 1:
            raise ValueError("cache smaller than one set")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else CacheStats()

    def _set_of(self, line_addr: int) -> OrderedDict:
        return self._sets[line_addr & self._set_mask]

    def lookup(self, line_addr: int) -> bool:
        """Demand lookup: updates LRU and hit/miss statistics."""
        s = self._set_of(line_addr)
        if line_addr in s:
            s.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, line_addr: int) -> bool:
        """RDF-style tag probe: checks presence, refreshes LRU on hit, but
        records under the probe counter rather than demand hits/misses."""
        s = self._set_of(line_addr)
        self.stats.accesses_probe += 1
        if line_addr in s:
            s.move_to_end(line_addr)
            return True
        return False

    def contains(self, line_addr: int) -> bool:
        """Pure presence check: no LRU update, no stats."""
        return line_addr in self._set_of(line_addr)

    def insert(self, line_addr: int) -> int | None:
        """Fill a line; returns the evicted line address, if any.

        With write-through caches the victim is always clean, so eviction
        costs no traffic; the return value exists for tests/diagnostics.
        """
        s = self._set_of(line_addr)
        if line_addr in s:
            s.move_to_end(line_addr)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim, _ = s.popitem(last=False)
        s[line_addr] = None
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (NDP-write coherence, Section 4.2)."""
        s = self._set_of(line_addr)
        if line_addr in s:
            del s[line_addr]
            self.stats.invalidations += 1
            return True
        return False

    def touch_write(self, line_addr: int) -> None:
        """Write-through store: update the line if present (no allocate)."""
        s = self._set_of(line_addr)
        if line_addr in s:
            s.move_to_end(line_addr)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class MSHRFile:
    """Miss-status holding registers: merge misses to the same line.

    ``allocate`` returns:

    * ``"new"``   -- primary miss, the caller must send the fill request;
    * ``"merged"``-- secondary miss, the callback rides the existing entry;
    * ``"full"``  -- no entry available (structural stall).
    """

    def __init__(self, num_entries: int, stats: CacheStats) -> None:
        self.num_entries = num_entries
        self._entries: dict[int, list[Callable[[], None]]] = {}
        self.stats = stats
        self.peak = 0

    def allocate(self, line_addr: int, on_fill: Callable[[], None]) -> str:
        entry = self._entries.get(line_addr)
        if entry is not None:
            entry.append(on_fill)
            self.stats.mshr_merges += 1
            return "merged"
        if len(self._entries) >= self.num_entries:
            self.stats.mshr_rejects += 1
            return "full"
        self._entries[line_addr] = [on_fill]
        self.peak = max(self.peak, len(self._entries))
        return "new"

    def fill(self, line_addr: int) -> int:
        """Complete a miss: fire all merged callbacks.  Returns the number
        of waiters served."""
        waiters = self._entries.pop(line_addr, [])
        for cb in waiters:
            cb()
        return len(waiters)

    def __len__(self) -> int:
        return len(self._entries)
