"""Discrete-event core: event queue, bandwidth-limited links, clock ratios.

The simulator is cycle-granular in the *SM clock domain* (700 MHz).  Latency
and bandwidth of slower/faster domains (NSU at half rate, DRAM at ~1.05x,
crossbar at 1.79x) are expressed by converting to SM cycles; components that
issue work every cycle of their own domain use a :class:`RateAccumulator`.

Links model serialization honestly: a packet of ``size`` bytes occupies the
link for ``ceil(size / bytes_per_cycle)`` cycles and is delivered after an
additional fixed propagation latency.  Queueing is implicit in the
``busy_until`` horizon (an infinite-queue, finite-rate server), which is the
standard first-order model for serdes links; finite NDP buffers -- the ones
the paper's deadlock-avoidance protocol manages -- are modelled explicitly in
:mod:`repro.core`.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Callable

#: Sentinel for "no argument bound" in a pooled event record.  Distinct
#: from ``None`` so callbacks may legitimately receive ``None``.
_NOARG = object()


class _EventRecord:
    """A pooled, reusable event.

    Records are recycled through the engine's free list after they fire,
    so steady-state scheduling does no allocation.
    """

    __slots__ = ("fn", "a", "b")

    def __init__(self) -> None:
        self.fn: Callable | None = None
        self.a = _NOARG
        self.b = _NOARG


class Engine:
    """An integer-time event queue with a pooled-record fast path.

    Components call :meth:`at` / :meth:`after` to schedule callbacks; the
    system driver interleaves :meth:`process_due` with per-cycle component
    ticks and may fast-forward over idle regions with :meth:`next_event_time`.

    One binary heap of ``(time, seq, record)`` entries backs the queue;
    ``seq`` is a global scheduling counter, so events due in the same
    cycle run in the order they were scheduled.

    Hot callers avoid per-event closure allocation by passing up to two
    positional arguments to :meth:`at` / :meth:`after`; they are bound
    directly into the pooled record.  Every path funnels through
    :meth:`_schedule`.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # (time, seq, record) tuples -- seq is unique, so heap comparisons
        # never reach the record (C-speed ordering).
        self._events: list[tuple[int, int, _EventRecord]] = []
        self._free: list[_EventRecord] = []
        self._seq = 0
        self.events_processed = 0
        self.events_recycled = 0
        self.subcycle_delays = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, time: int, fn: Callable, a, b) -> None:
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule at {time} < now {now}")
        free = self._free
        if free:
            rec = free.pop()
        else:
            rec = _EventRecord()
        self._seq += 1
        rec.fn = fn
        rec.a = a
        rec.b = b
        heapq.heappush(self._events, (time, self._seq, rec))

    def at(self, time: int, fn: Callable, a=_NOARG, b=_NOARG) -> None:
        """Schedule ``fn`` to run at absolute cycle ``time``; ``a`` and
        ``b``, when given, are passed to it as positional arguments."""
        self._schedule(int(time), fn, a, b)

    def after(self, delay: float, fn: Callable, a=_NOARG,
              b=_NOARG) -> None:
        """Schedule ``fn`` (with up to two bound arguments, as in
        :meth:`at`) to run ``delay`` cycles from now (ceil'd).

        ``delay`` must be positive: a zero (or negative) delay would land
        the callback at ``now``, and whether it still runs this cycle then
        depends on where the caller sits relative to ``process_due`` -- the
        classic double-counting hazard for rate-domain callers converting
        fractional clock ratios.  Same-cycle scheduling must be explicit:
        use ``at(engine.now, fn)``.  Sub-cycle delays (0 < delay < 1) are
        legal and round up to one full cycle, but are counted in
        ``subcycle_delays`` so a misconverted clock ratio surfaces in the
        metrics summary instead of silently compressing to zero latency.
        """
        self._schedule(self.now + self._ceil_delay(delay), fn, a, b)

    def _ceil_delay(self, delay: float) -> int:
        if delay <= 0:
            raise ValueError(
                f"after() requires a positive delay, got {delay!r}; "
                "use at(engine.now, fn) for explicit same-cycle scheduling")
        if delay < 1:
            self.subcycle_delays += 1
        return math.ceil(delay)

    # -- dispatch ------------------------------------------------------------

    def process_due(self) -> int:
        """Run all events scheduled at or before the current cycle, in
        ``(time, seq)`` order."""
        now = self.now
        n = 0
        heap = self._events
        free = self._free
        while heap and heap[0][0] <= now:
            rec = heapq.heappop(heap)[2]
            a = rec.a
            if a is _NOARG:
                rec.fn()
            elif rec.b is _NOARG:
                rec.fn(a)
            else:
                rec.fn(a, rec.b)
            rec.fn = None
            rec.a = _NOARG
            rec.b = _NOARG
            free.append(rec)
            n += 1
        self.events_processed += n
        self.events_recycled += n
        return n

    def next_event_time(self) -> int | None:
        return self._events[0][0] if self._events else None

    @property
    def pending(self) -> int:
        """Scheduled-but-undrained events."""
        return len(self._events)

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        return {"cycle": self.now, "pending_events": self.pending,
                "events_processed": self.events_processed,
                "events_recycled": self.events_recycled,
                # read by perfbench/layers.py; there is no calendar lane
                "calendar_events": 0,
                "event_pool_free": len(self._free),
                "subcycle_delays": self.subcycle_delays}

    def drain(self, limit_cycles: int = 10 ** 9) -> None:
        """Advance time event-to-event until the queue is empty (tests)."""
        deadline = self.now + limit_cycles
        while self.now <= deadline:
            t = self.next_event_time()
            if t is None:
                break
            self.now = max(self.now, t)
            self.process_due()


class WakeQueue:
    """Active-set membership for per-component sleep, alongside the event heap.

    The active scheduler (``System._run_active``) keeps each SM either
    *active* (ticked every stepped cycle) or *parked* (asleep until an
    external event wakes it).  The queue tracks membership plus, per parked
    member, the first simulated cycle whose idle accounting has not been
    settled yet -- the scheduler uses that stamp to classify the slept
    cycles in bulk when the member wakes (see docs/performance.md).

    Every wake comes from an engine event (fill, timed dependency release,
    offload ACK, recovery fallback), so the queue keeps no timers of its
    own.  A spurious wake is harmless by design: a woken component that
    cannot make progress simply re-parks after one ordinary (fully
    accounted) tick.
    """

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._active: list[int] = list(range(size))   # sorted member ids
        self._since: dict[int, int] = {}   # parked id -> first unsettled cycle

    @property
    def active(self) -> list[int]:
        """Sorted ids of active members (treat as read-only)."""
        return self._active

    def is_active(self, idx: int) -> bool:
        return idx not in self._since

    def park(self, idx: int, since: int) -> None:
        """Move ``idx`` to the parked set; idle cycles accrue from ``since``."""
        if idx in self._since:
            raise ValueError(f"member {idx} is already parked")
        self._active.remove(idx)
        self._since[idx] = since

    def wake(self, idx: int) -> int | None:
        """Activate ``idx``.  Returns the first unsettled cycle if it was
        parked (the caller owes idle accounting for ``[since, now-1]``), or
        ``None`` if it was already active (spurious wake, no-op)."""
        since = self._since.pop(idx, None)
        if since is None:
            return None
        bisect.insort(self._active, idx)
        return since

    def asleep_items(self) -> list[tuple[int, int]]:
        """``(idx, since)`` for every parked member, sorted by id."""
        return sorted(self._since.items())

    def set_since(self, idx: int, since: int) -> None:
        """Restamp a parked member after settling its idle cycles in place."""
        if idx not in self._since:
            raise KeyError(f"member {idx} is not parked")
        self._since[idx] = since


class RateAccumulator:
    """Fractional clock-ratio accumulator.

    ``rate`` is the number of *local* cycles per SM cycle.  Each SM cycle,
    :meth:`step` returns the number of whole local cycles that elapse, so a
    350 MHz NSU (rate 0.5) executes on every other SM cycle and a 1250 MHz
    crossbar (rate ~1.79) gets one or two slots per SM cycle.
    """

    __slots__ = ("rate", "_acc")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._acc = 0.0

    def step(self) -> int:
        self._acc += self.rate
        n = int(self._acc)
        self._acc -= n
        return n

    def step_many(self, cycles: int) -> int:
        """Advance ``cycles`` SM cycles at once; returns local cycles elapsed."""
        self._acc += self.rate * cycles
        n = int(self._acc)
        self._acc -= n
        return n


class Link:
    """A unidirectional bandwidth-limited channel.

    ``traffic_class`` tags the link for traffic/energy accounting
    ("gpu_link", "mem_net", "intra_hmc").
    """

    __slots__ = ("engine", "name", "bytes_per_cycle", "latency",
                 "traffic_class", "busy_until", "bytes_sent",
                 "packets_sent", "counters")

    def __init__(self, engine: Engine, name: str, bytes_per_cycle: float,
                 latency: int = 4, traffic_class: str = "gpu_link",
                 counters: "LinkCounters | None" = None) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.engine = engine
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.traffic_class = traffic_class
        self.busy_until = 0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.counters = counters

    def send(self, size_bytes: int, deliver: Callable[[], None]) -> int:
        """Transmit ``size_bytes``; call ``deliver`` on arrival.

        Returns the delivery cycle.  Serialization queues behind earlier
        packets (``busy_until``); propagation latency is added on top.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        now = self.engine.now
        start = max(now, self.busy_until)
        ser = math.ceil(size_bytes / self.bytes_per_cycle)
        self.busy_until = start + ser
        arrival = self.busy_until + self.latency
        self.bytes_sent += size_bytes
        self.packets_sent += 1
        if self.counters is not None:
            self.counters.add(self.traffic_class, size_bytes)
        self.engine._schedule(arrival, deliver, _NOARG, _NOARG)
        return arrival

    @property
    def queue_delay(self) -> int:
        """Cycles a packet submitted now would wait before serialization."""
        return max(0, self.busy_until - self.engine.now)

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.bytes_sent / (self.bytes_per_cycle * elapsed_cycles))


class LinkCounters:
    """Aggregate byte counters per traffic class (feeds the energy model)."""

    __slots__ = ("bytes_by_class",)

    def __init__(self) -> None:
        self.bytes_by_class: dict[str, int] = {}

    def add(self, traffic_class: str, nbytes: int) -> None:
        self.bytes_by_class[traffic_class] = (
            self.bytes_by_class.get(traffic_class, 0) + nbytes)

    def get(self, traffic_class: str) -> int:
        return self.bytes_by_class.get(traffic_class, 0)

    def total(self) -> int:
        return sum(self.bytes_by_class.values())
