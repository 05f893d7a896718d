"""The benchmark's own checks.  Run with ``python3 -m pytest perfbench``.

The slow one repeats a traced run: every per-layer count must come out
identical, because later changes are gated on those counts.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench

ROOT = bench.ROOT
if not bench.use_checkout_source():
    pytest.skip("no simulator source in this checkout",
                allow_module_level=True)

from perfbench.cells import PINNED_SEED, PINS, WORKLOADS  # noqa: E402
from perfbench.layers import COUNT_METRICS, PER_LAYER  # noqa: E402


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_dense_pins_equal_ci_pins():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for model in ("BFS", "STCL", "MiniFE"):
        pinned = re.search(rf'\("hmc", "{model}"\): "([0-9a-f]+)"', ci)
        cell = next(c for c in PINS if c[0] == model)
        assert pinned and PINS[cell] == pinned.group(1), model


def test_traced_counts_repeat_exactly(tmp_path):
    cells = WORKLOADS["sparse-wide"]
    values = []
    for i in range(2):
        tally = bench.Tally()
        values.append(bench.traced(cells, PINNED_SEED, tally, 0.0,
                                   tmp_path / f"spans{i}.npz"))
        # Traced digests equal the untraced ones and the pins.
        assert tally.failed == 0 and tally.attempted == 2 * len(cells)
    first, second = values
    assert {k: first[k] for k in COUNT_METRICS} \
        == {k: second[k] for k in COUNT_METRICS}
    assert first["gpu.tick_calls"] > 0 and first["memory.access_calls"] > 0


def test_refuses_checkout_without_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
