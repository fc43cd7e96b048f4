"""Tests for the sweep-execution engine (runner + cache)."""

import json
from pathlib import Path

import pytest

from repro import units
from repro.bench import harness  # noqa: F401 — populates the kernel registry
from repro.bench.cache import (
    ResultCache,
    calibration_fingerprint,
    jsonable,
    point_key,
)
from repro.bench.runner import KERNELS, PointResult, SweepPoint, SweepRunner


class TestSweepPoint:
    def test_params_are_order_insensitive(self):
        a = SweepPoint.make("fig", "k", x=1, y=2)
        b = SweepPoint.make("fig", "k", y=2, x=1)
        assert a == b
        assert a.key() == b.key()

    def test_kwargs_round_trip(self):
        p = SweepPoint.make("fig", "k", size=4096, opcode="bcast")
        assert p.kwargs() == {"size": 4096, "opcode": "bcast"}

    def test_distinct_params_distinct_keys(self):
        a = SweepPoint.make("fig", "k", size=1024)
        b = SweepPoint.make("fig", "k", size=2048)
        c = SweepPoint.make("other", "k", size=1024)
        assert len({a.key(), b.key(), c.key()}) == 3


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = point_key("fig", "k", {"size": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": 1.25, "wall_s": 0.1})
        record = cache.get(key)
        assert record["value"] == 1.25
        assert cache.hits == 1 and cache.misses == 1

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for i in range(3):
            cache.put(point_key("fig", "k", {"i": i}), {"value": i})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = point_key("fig", "k", {})
        cache.put(key, {"value": 1})
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None

    def test_fingerprint_is_stable_within_process(self):
        assert calibration_fingerprint() == calibration_fingerprint()
        assert len(calibration_fingerprint()) == 64

    def test_fingerprint_covers_point_kernels(self, tmp_path, monkeypatch):
        """Point kernels compute the cached values, so editing
        ``bench/harness.py`` must miss the cache, not serve stale rows."""
        import shutil

        import repro
        import repro.bench.cache as cache_mod

        src = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(src, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))

        def fingerprint():
            monkeypatch.setattr(cache_mod, "_FINGERPRINT", None)
            return calibration_fingerprint()

        before = fingerprint()
        harness_py = copy / "bench" / "harness.py"
        harness_py.write_text(harness_py.read_text() + "\n# edited\n")
        assert fingerprint() != before

    def test_jsonable_handles_numpy_and_tuples(self):
        import numpy as np

        value = {"a": np.float64(1.5), "b": (1, 2), "c": np.bool_(True),
                 4: "x"}
        out = jsonable(value)
        assert out == {"a": 1.5, "b": [1, 2], "c": True, "4": "x"}
        json.dumps(out)  # must be serializable


class TestSweepRunner:
    def points(self, n=3):
        return [SweepPoint.make("fig12", "mpi_collective", opcode="reduce",
                                size=4 * units.KIB, n_ranks=r)
                for r in range(2, 2 + n)]

    def test_sequential_run_returns_values_in_order(self):
        runner = SweepRunner(jobs=1)
        values = runner.run(self.points())
        assert len(values) == 3
        assert all(v > 0 for v in values)
        assert len(runner.records) == 3
        assert all(isinstance(r, PointResult) and not r.cached
                   for r in runner.records)

    def test_parallel_matches_sequential(self):
        seq = SweepRunner(jobs=1).run(self.points())
        par = SweepRunner(jobs=3).run(self.points())
        assert par == seq

    def test_cache_reuses_results(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cold_runner = SweepRunner(jobs=1, cache=cache)
        cold = cold_runner.run(self.points())
        warm_runner = SweepRunner(jobs=1, cache=cache)
        warm = warm_runner.run(self.points())
        assert warm == cold
        assert all(r.cached for r in warm_runner.records)
        assert not any(r.cached for r in cold_runner.records)

    def test_point_metadata_recorded(self):
        runner = SweepRunner(jobs=1)
        runner.run(self.points(1))
        rec = runner.records[0]
        assert rec.wall_s > 0
        assert rec.sim_s > 0
        assert rec.events > 0

    def test_trajectory_shape(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run(self.points(2))
        trajectory = runner.trajectory()
        assert trajectory["schema"] == 1
        assert trajectory["totals"]["points"] == 2
        assert trajectory["totals"]["cached_points"] == 0
        art = trajectory["artifacts"]["fig12"]
        assert len(art["points"]) == 2
        assert art["events"] > 0
        json.dumps(trajectory)  # trajectory must serialize as-is

    def test_every_executed_point_carries_its_value(self):
        points = self.points(2) + [SweepPoint.make("tab01", "tab01")]
        runner = SweepRunner(jobs=1)
        values = runner.run(points)
        recorded = [point for art in runner.trajectory()["artifacts"].values()
                    for point in art["points"]]
        assert [point["value"] for point in recorded] == jsonable(values)
        assert [point["key"] for point in recorded] == \
            [point.key() for point in points]

    def test_run_one(self):
        runner = SweepRunner()
        rows = runner.run_one(SweepPoint.make("tab01", "tab01"))
        assert {r["collective"] for r in rows} >= {"bcast", "reduce"}


class TestHarnessPointDecomposition:
    def test_kernel_registry_populated(self):
        expected = {"accl_collective", "accl_best_protocol", "mpi_collective",
                    "mpi_f2f_collective", "accl_p2p", "mpi_p2p",
                    "fig08_host_nop", "fig08_kernel_nop", "fig09_breakdown",
                    "vecmat", "dlrm", "tab01", "tab02", "tab03"}
        assert expected <= set(KERNELS)

    def test_fig08_with_explicit_runner_and_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        runner = SweepRunner(jobs=1, cache=cache)
        rows = harness.run_fig08_invocation_latency(repeats=2, runner=runner)
        assert [r["caller"] for r in rows] == [
            "FPGA kernel", "Coyote host", "XRT host"]
        warm = SweepRunner(jobs=1, cache=cache)
        rows2 = harness.run_fig08_invocation_latency(repeats=2, runner=warm)
        assert rows2 == rows
        assert all(r.cached for r in warm.records)

    def test_fig12_series_with_runner(self):
        runner = SweepRunner(jobs=1)
        series = harness.run_fig12_reduce_scalability(
            rank_range=range(2, 4), sizes=(8 * units.KIB,), runner=runner)
        assert set(series) == {"accl_8KiB", "mpi_8KiB"}
        assert set(series["accl_8KiB"]) == {2, 3}
        assert len(runner.records) == 4

    def test_tab02_rows(self):
        rows = harness.run_tab02_dlrm_config()
        assert rows[0]["Tables"] == 100
        assert rows[0]["Concat Vec Len"] == 3200

    def test_calibration_change_invalidates_key(self):
        base = point_key("fig", "k", {"size": 1})
        import repro.bench.cache as cache_mod

        original = cache_mod._FINGERPRINT
        try:
            cache_mod._FINGERPRINT = "0" * 64
            assert point_key("fig", "k", {"size": 1}) != base
        finally:
            cache_mod._FINGERPRINT = original
