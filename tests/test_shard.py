"""Sharded sweeps, merge row-identity, and multi-job pool behavior."""

import json
import time

import pytest

from repro import units
from repro.bench import harness
from repro.bench.cache import ResultCache
from repro.bench.runner import (ShardIncomplete, SweepPoint, SweepRunner,
                                shard_of)

KIB = units.KIB

#: tiny figX_scale slice: seconds of wall clock, several distinct points
TINY = dict(node_counts=(4, 8), size=256 * KIB)


def _import_shard(runner: SweepRunner, cache: ResultCache) -> int:
    """What ``bench merge`` does: executed trajectory points -> cache."""
    imported = 0
    trajectory = runner.trajectory()
    for art in trajectory["artifacts"].values():
        for point in art["points"]:
            if point.get("skipped"):
                continue
            record = {"value": point["value"]}
            for field in ("wall_s", "sim_s", "events", "events_ff"):
                record[field] = point[field]
            cache.put(point["key"], record)
            imported += 1
    return imported


class TestShardPartition:
    def test_shard_of_is_total_and_deterministic(self):
        keys = [f"{i:02x}{'0' * 62}" for i in range(64)]
        owners = [shard_of(key, 4) for key in keys]
        assert set(owners) <= {0, 1, 2, 3}
        assert owners == [shard_of(key, 4) for key in keys]

    def test_invalid_shard_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(shard=(2, 2))

    def test_shards_partition_the_points(self, tmp_path):
        """Each point executes on exactly one of the shards."""
        executed: dict = {}
        for index in (0, 1):
            runner = SweepRunner(
                cache=ResultCache(tmp_path / f"c{index}"), shard=(index, 2))
            try:
                harness.run_figX_scale(runner=runner, **TINY)
            except ShardIncomplete:
                pass
            for rec in runner.records:
                if not rec.skipped:
                    assert rec.key not in executed, "point ran on 2 shards"
                    executed[rec.key] = index
        reference = SweepRunner()
        harness.run_figX_scale(runner=reference, **TINY)
        assert len(executed) == len(reference.records)

    def test_merge_reproduces_unsharded_rows(self, tmp_path):
        rows_ref = harness.run_figX_scale(runner=SweepRunner(), **TINY)
        merged = ResultCache(tmp_path / "merged")
        imported = 0
        for index in (0, 1, 2):
            runner = SweepRunner(
                cache=ResultCache(tmp_path / f"c{index}"), shard=(index, 3))
            try:
                harness.run_figX_scale(runner=runner, **TINY)
            except ShardIncomplete:
                pass
            imported += _import_shard(runner, merged)
        assert imported == 6
        final = SweepRunner(cache=merged)
        rows_merged = harness.run_figX_scale(runner=final, **TINY)
        assert rows_merged == rows_ref
        assert all(rec.cached for rec in final.records)

    def test_fully_cached_shard_run_completes(self, tmp_path):
        """With every point cached, a shard run raises nothing at all."""
        cache = ResultCache(tmp_path / "warm")
        harness.run_figX_scale(runner=SweepRunner(cache=cache), **TINY)
        runner = SweepRunner(cache=cache, shard=(0, 2))
        rows = harness.run_figX_scale(runner=runner, **TINY)
        assert len(rows) == 6

    def test_trajectory_records_values_and_skips(self, tmp_path):
        runner = SweepRunner(
            cache=ResultCache(tmp_path / "c"), shard=(0, 2))
        try:
            harness.run_figX_scale(runner=runner, **TINY)
        except ShardIncomplete:
            pass
        trajectory = runner.trajectory()
        assert trajectory["shard"] == [0, 2]
        points = trajectory["artifacts"]["figX_scale"]["points"]
        ran = [p for p in points if not p.get("skipped")]
        left = [p for p in points if p.get("skipped")]
        assert ran and left  # 6 points: hash split leaves work both sides
        assert all(p["value"] is not None for p in ran)
        assert all(p["value"] is None and p["events"] == 0 for p in left)
        totals = trajectory["totals"]
        assert totals["skipped_points"] == len(left)


class TestMergeAnyTrajectory:
    def test_merge_of_a_plain_trajectory_executes_no_point(self, tmp_path,
                                                           capsys):
        from repro.bench.__main__ import main

        plain = str(tmp_path / "plain.json")
        assert main(["fig08", "--no-cache", "--json", plain]) == 0
        rows = capsys.readouterr().out
        merged = str(tmp_path / "merged.json")
        assert main(["merge", plain, "--cache", str(tmp_path / "c"),
                     "--json", merged]) == 0
        assert capsys.readouterr().out == rows
        with open(merged) as fh:
            totals = json.load(fh)["totals"]
        assert totals["points"] == totals["cached_points"] > 0


class TestRowIdentityAcrossJobs:
    def test_figX_scale_rows_identical_at_jobs_2(self):
        rows_seq = harness.run_figX_scale(runner=SweepRunner(jobs=1), **TINY)
        with SweepRunner(jobs=2) as runner:
            rows_par = harness.run_figX_scale(runner=runner, **TINY)
        assert rows_par == rows_seq


class TestWarmPool:
    def test_pool_persists_across_runs_and_stays_competitive(self):
        """A warm multi-job pool must not multiply sweep wall time.

        BENCH history showed jobs=4 running 13x slower than jobs=1 because
        every ``run()`` built a fresh pool and every worker re-paid the
        import + calibration-fingerprint warm-up inside its first point.
        The pool now persists per runner with the warm-up hoisted into the
        initializer; once warm, a cache-miss mini sweep at jobs=4 stays
        within 2x of the sequential path even on a single-core box.
        """
        points = [
            SweepPoint.make("warmpool", "accl_collective",
                            opcode="allreduce", size=16 * KIB, n_nodes=4,
                            sync_protocol=sync, algorithm=algorithm)
            for sync in ("eager", "rndz")
            for algorithm in ("ring", "reduce_bcast")
        ]

        seq = SweepRunner(jobs=1, cache=None)
        t0 = time.perf_counter()
        seq.run(points)
        sequential_s = time.perf_counter() - t0

        with SweepRunner(jobs=4, cache=None) as pooled:
            pooled.run(points)  # pays pool spawn + per-worker warm-up once
            assert pooled._pool is not None
            pool_before = pooled._pool
            t0 = time.perf_counter()
            pooled.run(points)  # the measured, warm, cache-miss sweep
            warm_s = time.perf_counter() - t0
            assert pooled._pool is pool_before  # no pool-per-run() rebuild
        # generous absolute slack: points are sub-second, and a 1-core CI
        # box serializes the workers
        assert warm_s <= 2.0 * sequential_s + 1.0, \
            f"jobs=4 warm sweep {warm_s:.2f}s vs jobs=1 {sequential_s:.2f}s"


class TestShardedTrajectoryIdentity:
    """Shard -> merge -> rerun must reproduce the unsharded trajectory's
    point values and totals exactly, the same way it reproduces rows."""

    def test_merged_cache_rerun_reproduces_values_and_totals(self, tmp_path):
        reference = SweepRunner()
        harness.run_figX_scale(runner=reference, **TINY)
        ref = reference.trajectory()

        merged = ResultCache(tmp_path / "merged")
        for index in (0, 1, 2):
            runner = SweepRunner(
                cache=ResultCache(tmp_path / f"c{index}"), shard=(index, 3))
            try:
                harness.run_figX_scale(runner=runner, **TINY)
            except ShardIncomplete:
                pass
            _import_shard(runner, merged)
        final = SweepRunner(cache=merged)
        harness.run_figX_scale(runner=final, **TINY)
        assert all(rec.cached for rec in final.records)

        trajectory = final.trajectory()
        values = [(p["key"], p["value"]) for p in
                  trajectory["artifacts"]["figX_scale"]["points"]]
        assert values == [(p["key"], p["value"]) for p in
                          ref["artifacts"]["figX_scale"]["points"]]
        # Counts carried through the cache match the reference run;
        # wall_s is host time of the *producing* run and is excluded.
        totals = trajectory["totals"]
        for field in ("points", "events", "events_ff"):
            assert totals[field] == ref["totals"][field], field
        assert totals["sim_s"] == pytest.approx(ref["totals"]["sim_s"],
                                                rel=1e-12)
