"""The benchmark's workloads, their pinned digests, and one measured cell.

A *cell* is one (workload model, named configuration, SM count) run on
the ``hmc`` backend at ``bench`` scale.  Every cell is built and run
from scratch: the simulated caches start empty, as they do for a user.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass

from perfbench.hostclock import HostClock
from repro.config import paper_config
from repro.sim.runner import build_system
from repro.sim.serialize import result_digest
from repro.sim.validate import audit_system

SCALE = "bench"
MAX_CYCLES = 20_000_000

#: Seed the pinned digests were recorded at.  Other seeds are held out:
#: their cells are still audited, but no digest is known for them.
PINNED_SEED = 1

#: Workload name -> cells, each (workload model, config, num_sms).
#: Why each exists is in README.md.
WORKLOADS: dict[str, tuple[tuple[str, str, int], ...]] = {
    "dense-baseline": (
        ("STCL", "Baseline", 64),
        ("MiniFE", "Baseline", 64),
    ),
    "ndp-offload": (
        ("BFS", "NDP(Dyn)", 64),
        ("BICG", "NaiveNDP", 64),
    ),
    "sparse-wide": (
        ("VADD", "Baseline", 128),
        ("VADD", "NDP(Dyn)", 128),
        ("KMN", "Baseline", 128),
        ("SP", "Baseline", 128),
        ("SP", "NDP(Dyn)", 128),
    ),
}

#: ``result_digest`` of each cell at :data:`PINNED_SEED`.  The BFS, STCL
#: and MiniFE pins are the hmc dense digests CI pins for ``repro bench``.
PINS: dict[tuple[str, str, int], str] = {
    ("STCL", "Baseline", 64):
        "16a42cfcc4c09cf530cb5e1e879febb24961658a919b3fcc23de91539222c03d",
    ("MiniFE", "Baseline", 64):
        "f0a1469ee3fd432b91497f9a33344a047ee8b707c96ff27ea196ab8f038bfe52",
    ("BFS", "NDP(Dyn)", 64):
        "07ffd34980a711e7ce2b49ee5c85b8f684b1cfb6d08f8cb3d533af6742dea60f",
    ("BICG", "NaiveNDP", 64):
        "adebc3f5bf57528ff04bb35ef9f8906aac7a06da3844b537269c21628aeed1f4",
    ("VADD", "Baseline", 128):
        "90f3e4ab291cee9bb91469446a0d5552f61b75410215d9914dd0d64f9de94504",
    ("VADD", "NDP(Dyn)", 128):
        "5b1cc0145ca5a5386905a493b0bf9c34bdb955722aabfed9a7f6143bc4e63a7f",
    ("KMN", "Baseline", 128):
        "4cb980807fbfc304caa8d75c7546382858687cefe2fae7543cf56867a314fbf1",
    ("SP", "Baseline", 128):
        "e12e27fe17027c8758ea956fcc886deb4b700eb2e0b89076f4749741d423ae21",
    ("SP", "NDP(Dyn)", 128):
        "f7ba7b9bc20dda39ef93bbcaabf8c7ac097665dc7e43ae2aec34ef8f4b962645",
}


def cell_name(cell: tuple[str, str, int]) -> str:
    workload, config, num_sms = cell
    return f"{workload}/{config}@{num_sms}"


@dataclass
class CellRun:
    """What one build-and-run of a cell produced."""

    cell: tuple[str, str, int]
    build_s: float = 0.0       # seconds inside build_system
    run_s: float = 0.0         # seconds inside System.run
    run_cpu_s: float = 0.0     # plain CPU seconds inside System.run
    cycles: int = 0
    instructions: int = 0      # simulated warp instructions
    digest: str = ""
    failure: str = ""          # empty when the cell is correct
    system: object = None
    result: object = None


class _CPUClock:
    """Plain CPU time, with :class:`HostClock`'s interface."""

    def __enter__(self) -> "_CPUClock":
        self._start = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.raw = self.seconds = time.process_time() - self._start


def run_cell(cell: tuple[str, str, int], seed: int, *,
             host_clock: bool = True) -> CellRun:
    """Build and run one cell, then audit it and check its digest.

    Times are CPU seconds at reference speed (:class:`HostClock`), or
    plain CPU seconds without ``host_clock``, which a traced run uses so
    that no speed probe runs inside its spans.  Any exception (a
    ``SimulationTimeout`` included) makes the cell a failure rather than
    ending the benchmark; its traceback goes to standard error.
    """
    workload, config, num_sms = cell
    clock = HostClock if host_clock else _CPUClock
    out = CellRun(cell)
    try:
        base = dataclasses.replace(
            paper_config().scaled_gpu(num_sms=num_sms), seed=seed)
        with clock() as build:
            system = build_system(workload, config, base=base, scale=SCALE)
        with clock() as run:
            result = system.run(max_cycles=MAX_CYCLES)
        out.build_s, out.run_s, out.run_cpu_s = (build.seconds, run.seconds,
                                                 run.raw)
    except Exception:  # one failing cell must not end the run
        traceback.print_exc(file=sys.stderr)
        out.failure = "raised"
        return out
    out.system, out.result = system, result
    out.cycles = result.cycles
    out.instructions = result.instructions
    out.digest = result_digest(result)
    problems = audit_system(system, result)
    if problems:
        out.failure = "audit: " + "; ".join(problems)
    elif seed == PINNED_SEED and out.digest != PINS[cell]:
        out.failure = f"digest {out.digest} != pinned {PINS[cell]}"
    if out.failure:
        print(f"{cell_name(cell)}: {out.failure}", file=sys.stderr)
    return out
