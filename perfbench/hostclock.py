"""Host CPU time corrected for how fast the host runs at each moment.

On a shared host the same interpreter work can take 1.7 times as much
CPU time when another tenant loads the core, and such slow periods last
from seconds to minutes.  :class:`HostClock` samples the host's current
speed every :data:`SAMPLE_S` of CPU time by timing a fixed slice of
interpreter work (:func:`probe`), and weights each interval of CPU time
by ``REF_PROBE_S / probe time``.  Its :attr:`HostClock.seconds` are thus
CPU seconds at reference speed: the speed at which :func:`probe` takes
:data:`REF_PROBE_S`, which is an uncontended 2.0 GHz Intel Xeon vCPU
running CPython 3.11.  Probe time itself is excluded from both figures.
"""

from __future__ import annotations

import signal
import time

#: CPU seconds between speed samples (the kernel rounds this to its tick).
SAMPLE_S = 0.004

#: :func:`probe` seconds at reference speed.
REF_PROBE_S = 30e-6

_TABLE = {i: i for i in range(64)}


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    Timed on the wall clock: the CPU clock is too coarse for 30 us.
    """
    t = time.perf_counter()
    table, s = _TABLE, 0
    for i in range(400):
        s += table[i & 63]
    return time.perf_counter() - t


class HostClock:
    """Context manager measuring the CPU time of the code it wraps.

    :attr:`raw` is plain CPU seconds; :attr:`seconds` is the same time at
    reference speed.  Only one clock may run at a time: it owns the
    process's ``SIGPROF`` timer.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.seconds = 0.0
        self._mark = 0.0
        self._probe = 0.0
        self._old_handler = None

    def _advance(self) -> None:
        """Close the interval since the last sample and take a new one."""
        now = time.process_time()
        speed = probe()
        work = now - self._mark
        self.raw += work
        self.seconds += work * 2 * REF_PROBE_S / (self._probe + speed)
        self._probe = speed
        self._mark = time.process_time()

    def _on_signal(self, signum, frame) -> None:
        self._advance()

    def __enter__(self) -> "HostClock":
        self._old_handler = signal.signal(signal.SIGPROF, self._on_signal)
        self._probe = probe()
        self._mark = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        self._advance()
