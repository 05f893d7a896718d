"""The simulator perf harness: pinned grid, baseline files, --compare."""

import json
import statistics
import time

import pytest

from repro.perf import bench as perf
from repro.sim.runner import config_variants
from repro.config import paper_config
from repro.workloads import workload_names


def _fake_cell(workload="VADD", config="Baseline", wall=0.5,
               digest="d0", num_sms=128, build=0.25):
    return {
        "workload": workload, "config": config, "scale": "bench",
        "num_sms": num_sms, "sched": "active", "wall_s": wall,
        "wall_all": [wall], "cold_wall_s": wall, "build_s": build,
        "cycles": 1000, "cycles_per_sec": 1000 / wall,
        "sm_ticks": 4000, "ticks_per_cycle": 4.0, "events_processed": 10,
        "instructions": 500, "digest": digest,
    }


def _fake_report(cells, rev="abc1234", sched="active"):
    return {"kind": "repro-bench", "version": 1, "rev": rev,
            "sched": sched, "suites": ["sparse"], "repeats": 1,
            "unix_time": 0, "python": "3", "cells": cells}


class TestPinnedGrid:
    def test_suite_cells_are_resolvable(self):
        # Every pinned cell must name a real workload and config, or the
        # bench dies at runtime instead of in review.
        configs = set(config_variants(paper_config()))
        workloads = set(workload_names())
        for suite, cells in perf.SUITES.items():
            for w, c, sms in cells:
                assert w in workloads, (suite, w)
                assert c in configs, (suite, c)
                assert sms is None or sms > 0

    def test_quick_subset_is_in_the_sparse_suite(self):
        assert set(perf.QUICK) <= set(perf.SUITES["sparse"])

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            perf.run_bench(suites=("warp-speed",))


class TestReportIO:
    def test_write_and_load_round_trip(self, tmp_path):
        report = _fake_report([_fake_cell()])
        path = perf.write_report(report, str(tmp_path))
        assert path.endswith("BENCH_abc1234.json")
        assert perf.load_report(path) == report
        # atomic write leaves no temp droppings
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_abc1234.json"]

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a repro bench report"):
            perf.load_report(str(p))


class TestCompare:
    def test_per_cell_and_geomean_speedup(self):
        base = _fake_report([_fake_cell(wall=1.0),
                             _fake_cell(config="NDP(Dyn)", wall=4.0)],
                            rev="old", sched="legacy")
        new = _fake_report([_fake_cell(wall=0.5),
                            _fake_cell(config="NDP(Dyn)", wall=2.0)])
        cmp = perf.compare(new, base)
        assert [r["speedup"] for r in cmp["rows"]] == [2.0, 2.0]
        assert cmp["geomean"] == pytest.approx(2.0)
        assert cmp["digests_match"] is True
        assert cmp["unmatched"] == 0

    def test_digest_mismatch_is_flagged(self):
        base = _fake_report([_fake_cell(digest="aa")])
        new = _fake_report([_fake_cell(digest="bb")])
        cmp = perf.compare(new, base)
        assert cmp["digests_match"] is False
        assert any("not apples-to-apples" in line
                   for line in perf.format_compare(cmp))

    def test_unmatched_cells_are_skipped_not_crashed(self):
        base = _fake_report([_fake_cell()])
        new = _fake_report([_fake_cell(),
                            _fake_cell(workload="SP", wall=0.1)])
        cmp = perf.compare(new, base)
        assert len(cmp["rows"]) == 1
        assert cmp["unmatched"] == 1

    def test_build_ratio_reported_beside_speedup(self):
        base = _fake_report([_fake_cell(wall=1.0, build=0.6)])
        new = _fake_report([_fake_cell(wall=1.0, build=0.2)])
        cmp = perf.compare(new, base)
        (row,) = cmp["rows"]
        assert row["build_ratio"] == pytest.approx(3.0)
        # set-up is reported, never folded into the run-time speedup
        assert row["speedup"] == 1.0 and cmp["geomean"] == 1.0
        assert "build x3.00" in perf.format_compare(cmp)[1]

    def test_build_ratio_absent_for_reports_without_build_s(self):
        old = _fake_cell()
        del old["build_s"], old["cold_wall_s"]
        cmp = perf.compare(_fake_report([_fake_cell()]),
                           _fake_report([old]))
        assert cmp["rows"][0]["build_ratio"] is None
        assert "build n/a" in perf.format_compare(cmp)[1]
        assert "build 0.000s" in perf.format_cell(old)


class TestRealCell:
    def test_quick_grid_runs_and_records(self, tmp_path, monkeypatch):
        # Shrink the quick subset to one ci-scale default-GPU cell so the
        # real path (fresh build, timing, digest) stays test-sized.
        monkeypatch.setattr(perf, "QUICK", (("VADD", "Baseline", None),))
        monkeypatch.setattr(perf, "BENCH_SCALE", "ci")
        from repro import api
        out = api.bench(quick=True, repeats=1, out=str(tmp_path))
        assert out.path and out.path.startswith(str(tmp_path))
        cells = out.report["cells"]
        assert len(cells) == 1
        c = cells[0]
        assert c["wall_s"] > 0 and c["cycles"] > 0
        assert c["sm_ticks"] > 0 and c["digest"]
        # self-compare: identical digests, geomean ~1 (wall jitter aside)
        cmp = perf.compare(out.report, perf.load_report(out.path))
        assert cmp["digests_match"] is True
        assert cmp["geomean"] == pytest.approx(1.0)

    def test_cell_records_median_build_and_cold_wall(self, monkeypatch):
        # Pad each repeat's build by a different sleep so the median,
        # mean, min and max of the build times are all far apart.
        monkeypatch.setattr(perf, "BENCH_SCALE", "ci")
        pads = iter([0.4, 0.0, 0.1])
        seen = []
        real_build = perf.build_system

        def padded_build(*args, **kwargs):
            t0 = time.perf_counter()
            time.sleep(next(pads))
            system = real_build(*args, **kwargs)
            seen.append(time.perf_counter() - t0)
            return system

        monkeypatch.setattr(perf, "build_system", padded_build)
        cell = perf._run_cell("VADD", "Baseline", None, sched="active",
                              repeats=3, max_cycles=20_000_000)
        assert len(seen) == 3
        assert cell.build_s == pytest.approx(statistics.median(seen),
                                             abs=0.02)
        assert cell.cold_wall_s == cell.wall_all[0]
        assert cell.wall_s == min(cell.wall_all)
        line = perf.format_cell(cell)
        assert f"build {cell.build_s:.3f}s" in line
        assert f"cold {cell.cold_wall_s:.3f}s" in line

    def test_legacy_and_active_cells_share_digests(self, monkeypatch):
        monkeypatch.setattr(perf, "BENCH_SCALE", "ci")
        cells = {}
        for sched in ("legacy", "active"):
            cells[sched] = perf._run_cell("VADD", "Baseline", None,
                                          sched=sched, repeats=1,
                                          max_cycles=20_000_000)
        assert cells["legacy"].digest == cells["active"].digest
        assert cells["legacy"].cycles == cells["active"].cycles
        # the active scheduler must actually elide SM ticks
        assert cells["active"].sm_ticks < cells["legacy"].sm_ticks
