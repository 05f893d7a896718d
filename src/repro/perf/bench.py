"""Wall-clock benchmark harness with regression baselines.

``repro bench`` (and :func:`repro.api.bench`) runs a *pinned* grid of
simulation cells, times each one, and writes the measurements to
``BENCH_<rev>.json`` so a later revision can ``--compare`` against it.
Unlike the result store this measures the *simulator*, not the simulated
machine: every cell is built and run fresh (never served from the store),
and the recorded digest doubles as a correctness check -- a speedup that
changes the digest is a bug, not an optimization.

Suites
------

* ``sparse`` (default) -- wide-GPU (128 SM) bench-scale cells in the
  active scheduler's target regime: long idle/drain phases where most
  SMs have nothing to issue.  This is where active-set scheduling pays.
* ``dense`` -- cells that keep most SMs issuing every cycle; the hot
  loop is event- and issue-bound, so these track the simulator's
  absolute floor rather than scheduler wins.

The grid is deliberately small and fixed so numbers are comparable
across revisions; see docs/performance.md for methodology and the
measured legacy-vs-active speedups.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pstats
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

from repro.config import paper_config
from repro.sim.runner import build_system
from repro.sim.serialize import result_digest

REPORT_VERSION = 1

#: The wide-GPU regime the active scheduler targets (the paper's 64-SM
#: GPU scaled 2x, matching the ``bigger_gpu`` sensitivity experiment).
SPARSE_NUM_SMS = 128

#: Pinned benchmark suites: tuples of (workload, config, num_sms).
#: ``num_sms=None`` keeps the paper_config default (64 SMs).
SUITES: dict[str, tuple[tuple[str, str, int | None], ...]] = {
    "sparse": (
        ("VADD", "Baseline", SPARSE_NUM_SMS),
        ("VADD", "NDP(Dyn)", SPARSE_NUM_SMS),
        ("KMN", "Baseline", SPARSE_NUM_SMS),
        ("SP", "Baseline", SPARSE_NUM_SMS),
        ("SP", "NDP(Dyn)", SPARSE_NUM_SMS),
    ),
    "dense": (
        ("BFS", "NDP(Dyn)", None),
        ("STCL", "Baseline", None),
        ("MiniFE", "Baseline", None),
    ),
}

#: The CI smoke subset (``--quick``): one Baseline + one NDP cell, small
#: enough to stay inside a tight wall-clock budget on shared runners.
QUICK: tuple[tuple[str, str, int | None], ...] = (
    ("VADD", "Baseline", SPARSE_NUM_SMS),
    ("SP", "NDP(Dyn)", SPARSE_NUM_SMS),
)

BENCH_SCALE = "bench"


@dataclass
class BenchCell:
    """One timed simulation cell."""

    workload: str
    config: str
    scale: str
    num_sms: int
    sched: str
    wall_s: float                    # best of ``repeats`` runs
    wall_all: list[float] = field(default_factory=list)
    cold_wall_s: float = 0.0         # first repeat: cold caches/allocator
    build_s: float = 0.0             # median build_system (set-up) time
    cycles: int = 0
    cycles_per_sec: float = 0.0
    sm_ticks: int = 0
    ticks_per_cycle: float = 0.0     # sm_ticks / total simulated cycles
    events_processed: int = 0
    instructions: int = 0
    digest: str = ""
    profile: list[dict] = field(default_factory=list)   # --profile top-N
    profile_path: str = ""                              # pstats artifact

    def key(self) -> tuple:
        """Identity for cross-revision comparison (sched-independent:
        the whole point is comparing schedulers/revisions on one cell)."""
        return (self.workload, self.config, self.scale, self.num_sms)


def git_rev() -> str:
    """Short git revision for the report filename ("local" outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "local"
    except OSError:
        return "local"


def _profile_cell(workload: str, config: str, base, *, sched: str,
                  max_cycles: int, label: str, profile_dir: str,
                  top: int) -> tuple[list[dict], str]:
    """Run one *extra* instrumented repeat of a cell under cProfile.

    Kept out of the timed region entirely: interpreter tracing skews
    wall clock by 2-4x, so profiled samples must never feed ``wall_s``
    (and thereby ``--compare``).  Returns the top-``top`` functions by
    cumulative time plus the path of the dumped pstats artifact, which
    holds the full call graph for ``python -m pstats`` / snakeviz.
    """
    system = build_system(workload, config, base=base,
                          scale=BENCH_SCALE, sched=sched)
    prof = cProfile.Profile()
    prof.enable()
    system.run(max_cycles=max_cycles)
    prof.disable()
    stats = pstats.Stats(prof)
    slug = re.sub(r"[^A-Za-z0-9]+", "_",
                  f"{workload}_{label}_{base.gpu.num_sms}_{sched}").strip("_")
    os.makedirs(profile_dir, exist_ok=True)
    path = os.path.join(profile_dir, f"PROF_{git_rev()}_{slug}.pstats")
    stats.dump_stats(path)
    rows = []
    entries = sorted(stats.stats.items(), key=lambda kv: kv[1][3],
                     reverse=True)
    for (fname, line, func), (cc, nc, tt, ct, _callers) in entries[:top]:
        rows.append({
            "func": f"{os.path.basename(fname)}:{line}({func})",
            "ncalls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        })
    return rows, path


def _run_cell(workload: str, config: str, num_sms: int | None, *,
              sched: str, repeats: int, max_cycles: int,
              base=None, label: str | None = None,
              profile_dir: str | None = None,
              profile_top: int = 15) -> BenchCell:
    """Time one cell.  ``base`` overrides the paper configuration (the
    explore-best cell carries its own); ``label`` overrides the recorded
    config name so extra cells never collide with pinned-grid identities
    in ``--compare``.  ``profile_dir`` adds one untimed cProfile repeat
    per cell (see :func:`_profile_cell`)."""
    if base is None:
        base = paper_config()
    if num_sms:
        base = base.scaled_gpu(num_sms=num_sms)
    walls: list[float] = []
    builds: list[float] = []
    result = None
    sched_stats: dict = {}
    events = 0
    for _ in range(max(1, repeats)):
        # Fresh build every repeat: the run mutates the system, and build
        # cost (trace generation) is timed apart from the run.
        t0 = time.perf_counter()
        system = build_system(workload, config, base=base,
                              scale=BENCH_SCALE, sched=sched)
        builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = system.run(max_cycles=max_cycles)
        walls.append(time.perf_counter() - t0)
        sched_stats = dict(system.sched_stats)
        events = system.engine.events_processed
    wall = min(walls)
    total_cycles = result.cycles
    sm_ticks = int(sched_stats.get("sm_ticks", 0))
    prof_rows: list[dict] = []
    prof_path = ""
    if profile_dir is not None:
        prof_rows, prof_path = _profile_cell(
            workload, config, base, sched=sched, max_cycles=max_cycles,
            label=label or config, profile_dir=profile_dir,
            top=profile_top)
    return BenchCell(
        workload=workload, config=label or config, scale=BENCH_SCALE,
        num_sms=base.gpu.num_sms, sched=sched,
        wall_s=round(wall, 6), wall_all=[round(w, 6) for w in walls],
        cold_wall_s=round(walls[0], 6),
        build_s=round(statistics.median(builds), 6),
        cycles=total_cycles,
        cycles_per_sec=round(total_cycles / wall, 1) if wall > 0 else 0.0,
        sm_ticks=sm_ticks,
        ticks_per_cycle=(round(sm_ticks / total_cycles, 4)
                         if total_cycles else 0.0),
        events_processed=events,
        instructions=result.instructions,
        digest=result_digest(result),
        profile=prof_rows,
        profile_path=prof_path)


def run_bench(*, sched: str = "active", suites=("sparse",),
              quick: bool = False, repeats: int = 2,
              max_cycles: int = 20_000_000, backend: str | None = None,
              explore_best: str | None = None,
              profile_dir: str | None = None, profile_top: int = 15,
              progress=None) -> dict:
    """Run the pinned grid and return a report dict (see ``write_report``).

    ``progress`` is an optional callable taking one formatted line per
    completed cell (the CLI passes ``print``).  ``backend`` swaps the
    memory substrate (docs/backends.md); non-default backends record
    their cells as ``<config>@<backend>`` so they never alias the pinned
    hmc identities in ``--compare``.  ``explore_best`` names a
    ``best_configs.json`` written by ``repro explore``: its rank-1
    configuration is timed as one extra cell, labelled
    ``explore[<fitness>]:<config>`` so it never aliases a pinned cell.
    ``profile_dir`` enables ``--profile``: one extra untimed cProfile
    repeat per cell, with the top-``profile_top`` cumulative-time rows
    recorded in the cell and the full pstats dumped as an artifact.
    """
    backend = backend or "hmc"
    if quick:
        cells_spec = QUICK
        suites = ("quick",)
    else:
        cells_spec = []
        for name in suites:
            if name not in SUITES:
                raise KeyError(f"unknown bench suite {name!r}; choose from "
                               f"{sorted(SUITES)}")
            cells_spec.extend(SUITES[name])
    base = (paper_config() if backend == "hmc"
            else paper_config().with_backend(backend))
    suffix = "" if backend == "hmc" else f"@{backend}"
    cells: list[BenchCell] = []
    for workload, config, num_sms in cells_spec:
        cell = _run_cell(workload, config, num_sms, sched=sched,
                         repeats=repeats, max_cycles=max_cycles,
                         base=base,
                         label=(config + suffix) if suffix else None,
                         profile_dir=profile_dir, profile_top=profile_top)
        cells.append(cell)
        if progress is not None:
            progress(format_cell(cell))
    if explore_best:
        from repro.explore.report import best_bench_cell
        workload, config, base, label = best_bench_cell(explore_best)
        cell = _run_cell(workload, config, None, sched=sched,
                         repeats=repeats, max_cycles=max_cycles,
                         base=base, label=label,
                         profile_dir=profile_dir, profile_top=profile_top)
        cells.append(cell)
        if progress is not None:
            progress(format_cell(cell))
    return {
        "kind": "repro-bench",
        "version": REPORT_VERSION,
        "rev": git_rev(),
        "sched": sched,
        "backend": backend,
        "suites": list(suites),
        "explore_best": os.path.basename(explore_best) if explore_best
                        else None,
        "repeats": repeats,
        "profiled": profile_dir is not None,
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "cells": [asdict(c) for c in cells],
    }


def format_cell(cell: BenchCell | dict) -> str:
    c = cell if isinstance(cell, dict) else asdict(cell)
    return (f"{c['workload']:>7}/{c['config']:<14} sms={c['num_sms']:<4} "
            f"{c['wall_s']:7.3f}s (cold {c.get('cold_wall_s', 0.0):.3f}s, "
            f"build {c.get('build_s', 0.0):.3f}s)  "
            f"{c['cycles_per_sec']:>12,.0f} cyc/s  "
            f"ticks/cyc={c['ticks_per_cycle']:<7.3f} "
            f"events={c['events_processed']}")


def write_report(report: dict, out_dir: str = ".") -> str:
    """Atomically write ``BENCH_<rev>.json`` into ``out_dir``; returns
    the path.  Deliberately *not* the result store root: bench reports
    are host-dependent artifacts, not simulation results."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['rev']}.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_report(path: str) -> dict:
    with open(path) as f:
        report = json.load(f)
    if report.get("kind") != "repro-bench":
        raise ValueError(f"{path} is not a repro bench report")
    return report


def compare(new: dict, baseline: dict) -> dict:
    """Match cells by identity (workload/config/scale/num_sms) and compute
    per-cell and geomean speedup of ``new`` over ``baseline``
    (speedup = baseline wall / new wall, so > 1 means faster).
    ``build_ratio`` is the same ratio for set-up time (``build_s``);
    None when either report predates it."""
    def key(c):
        return (c["workload"], c["config"], c["scale"], c["num_sms"])

    base_by_key = {key(c): c for c in baseline["cells"]}
    rows = []
    digests_match = True
    for cell in new["cells"]:
        ref = base_by_key.get(key(cell))
        if ref is None:
            continue
        same_digest = (cell["digest"] == ref["digest"]
                       if cell["digest"] and ref["digest"] else None)
        if same_digest is False:
            digests_match = False
        rows.append({
            "workload": cell["workload"], "config": cell["config"],
            "num_sms": cell["num_sms"],
            "base_wall_s": ref["wall_s"], "new_wall_s": cell["wall_s"],
            "speedup": (ref["wall_s"] / cell["wall_s"]
                        if cell["wall_s"] > 0 else 0.0),
            "digests_match": same_digest,
            "build_ratio": (ref["build_s"] / cell["build_s"]
                            if ref.get("build_s") and cell.get("build_s")
                            else None),
        })
    speedups = [r["speedup"] for r in rows if r["speedup"] > 0]
    geomean = (math.exp(sum(math.log(s) for s in speedups) / len(speedups))
               if speedups else 0.0)
    return {
        "baseline_rev": baseline.get("rev"), "new_rev": new.get("rev"),
        "baseline_sched": baseline.get("sched"), "new_sched": new.get("sched"),
        "rows": rows, "geomean": geomean, "digests_match": digests_match,
        "unmatched": max(0, len(new["cells"]) - len(rows)),
    }


def format_compare(cmp: dict) -> list[str]:
    lines = [f"baseline: rev {cmp['baseline_rev']} "
             f"(sched={cmp['baseline_sched']})  vs  "
             f"new: rev {cmp['new_rev']} (sched={cmp['new_sched']})"]
    for r in cmp["rows"]:
        digest = {True: "digest ok", False: "DIGEST MISMATCH",
                  None: "digest n/a"}[r["digests_match"]]
        build = r.get("build_ratio")
        build = f"build x{build:.2f}" if build else "build n/a"
        lines.append(
            f"{r['workload']:>7}/{r['config']:<14} sms={r['num_sms']:<4} "
            f"{r['base_wall_s']:7.3f}s -> {r['new_wall_s']:7.3f}s  "
            f"x{r['speedup']:.2f}  {build}  [{digest}]")
    lines.append(f"geomean speedup: x{cmp['geomean']:.2f} "
                 f"over {len(cmp['rows'])} cells")
    if cmp["unmatched"]:
        lines.append(f"note: {cmp['unmatched']} cell(s) had no baseline "
                     "counterpart and were skipped")
    if not cmp["digests_match"]:
        lines.append("WARNING: result digests differ between revisions -- "
                     "the speedup is not apples-to-apples")
    return lines
