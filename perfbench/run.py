"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-baseline --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` times the workload's cells in rounds for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the cells once
untraced and once under :class:`perfbench.spans.Tracer`, and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

#: name -> unit.  Bounds and directions live in BENCHMARK.json.
END_TO_END: dict[str, str] = {
    "sim_instr_per_s": "instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh interpreters timed importing the simulator; the median is used.
IMPORT_PROBES = 3
IMPORT_CODE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "from perfbench.hostclock import HostClock\n"
    "with HostClock() as clock:\n"
    "    import repro.sim.runner, repro.sim.serialize, repro.sim.validate\n"
    "print(clock.seconds)\n")


def use_checkout_source() -> bool:
    """Put this checkout's simulator first on ``sys.path``; ``False`` when
    the checkout holds no simulator source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def import_seconds() -> float:
    """Median seconds, at reference speed, to import the simulator in a
    fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC),
                              str(ROOT)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Cell runs attempted and failed, with the digest seen per cell."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple, str] = {}

    def add(self, run, *, expect: str | None = None) -> None:
        """Count one cell run.  A run also fails when its digest differs
        from an earlier run of the same cell (or from ``expect``)."""
        from perfbench.cells import cell_name

        self.attempted += 1
        if not run.failure:
            want = expect or self.digests.setdefault(run.cell, run.digest)
            if run.digest != want:
                run.failure = f"digest {run.digest} != earlier run {want}"
                print(f"{cell_name(run.cell)}: {run.failure}",
                      file=sys.stderr)
        if run.failure:
            self.failed += 1


def timed(cells, seed: int, seconds: float, tally: Tally,
          import_s: float) -> dict[str, float]:
    """End-to-end metrics from rounds of every cell, untraced.

    Rounds run until another round would overrun ``seconds`` (at least
    one).  A cell's run time is its median over rounds, and set-up is
    the median round's; both are CPU seconds at reference speed.
    """
    from perfbench.cells import run_cell

    run_s: dict[tuple, list[float]] = {cell: [] for cell in cells}
    cpu_s: dict[tuple, list[float]] = {cell: [] for cell in cells}
    sizes: dict[tuple, tuple[int, int]] = {}   # cell -> (cycles, instrs)
    setups = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        build_s = 0.0
        for cell in cells:
            run = run_cell(cell, seed)
            run.system = run.result = None   # free it before the next build
            tally.add(run)
            build_s += run.build_s
            if not run.failure:
                run_s[cell].append(run.run_s)
                cpu_s[cell].append(run.run_cpu_s)
                sizes[cell] = (run.cycles, run.instructions)
        setups.append(build_s)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    seconds_run = sum(statistics.median(run_s[cell]) for cell in sizes)
    seconds_cpu = sum(statistics.median(cpu_s[cell]) for cell in sizes)
    instrs = sum(size[1] for size in sizes.values())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rounds {len(setups)}, simulated cycles "
          f"{sum(size[0] for size in sizes.values())}, instructions "
          f"{instrs}, median run {seconds_cpu:.3f} s CPU = "
          f"{seconds_run:.3f} s at reference speed")
    return {
        "sim_instr_per_s": instrs / seconds_run if seconds_run else 0.0,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def traced(cells, seed: int, tally: Tally, import_s: float,
           spans_path: Path) -> dict[str, float]:
    """Per-layer metrics: one untraced round, then one traced round whose
    digests must equal the untraced ones."""
    from perfbench.cells import cell_name, run_cell
    from perfbench.layers import cell_counters, layer_metrics, merge
    from perfbench.spans import Tracer

    untraced = []
    for cell in cells:
        run = run_cell(cell, seed)
        run.system = run.result = None
        tally.add(run)
        untraced.append(run)
    counters: Counter = Counter()
    traced_cpu = untraced_cpu = 0.0
    with Tracer() as tracer:
        for cell_id, (cell, plain) in enumerate(zip(cells, untraced)):
            tracer.cell_id = cell_id
            run = run_cell(cell, seed, host_clock=False)
            tally.add(run, expect=plain.digest or None)
            if not run.failure:
                merge(counters, cell_counters(run.system, run.result))
                traced_cpu += run.run_cpu_s
                untraced_cpu += plain.run_cpu_s
            run.system = run.result = None
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(str(spans_path), [cell_name(cell) for cell in cells])
    print(f"spans {len(tracer.name)} written to {spans_path}")
    return layer_metrics(
        tracer, counters, import_s=import_s,
        overhead=traced_cpu / untraced_cpu if untraced_cpu else 0.0)


def parse_args(argv):
    from perfbench.cells import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (SystemConfig.seed); digests are "
                        "pinned at seed 1 only")
    p.add_argument("--seconds", type=float, default=36.0,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not use_checkout_source():
        print(f"perfbench: no simulator source under {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.cells import WORKLOADS, cell_name
    from perfbench.layers import PER_LAYER

    args = parse_args(argv)
    cells = WORKLOADS[args.workload]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("cells " + ", ".join(cell_name(cell) for cell in cells))
    import_s = import_seconds()
    tally = Tally()
    if args.trace:
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        values = traced(cells, args.seed, tally, import_s, spans)
        units = PER_LAYER
    else:
        values = timed(cells, args.seed, args.seconds, tally, import_s)
        units = END_TO_END
    for cell, digest in tally.digests.items():
        print(f"digest {cell_name(cell)} {digest}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"cells_failed {tally.failed} of {tally.attempted}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
