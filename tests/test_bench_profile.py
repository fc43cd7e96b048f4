"""Smoke tests for the profiling harness and its CLI surface."""

import json
import pstats

import pytest

from repro.bench import profile as profile_mod
from repro.bench.__main__ import main as bench_main


class TestMicrobenchmarks:
    def test_measure_counts_events(self):
        from repro.sim import Environment

        env = Environment()

        def proc():
            yield 1.0
            yield 1.0

        def run():
            env.process(proc())
            env.run()
            return "done"

        out = profile_mod.measure(run, "two-sleeps")
        assert out["value"] == "done"
        # bootstrap + two sleep wakeups + final StopIteration resolution
        assert out["report"]["events"] >= 3
        assert out["report"]["sim_s"] == pytest.approx(2.0)

    def test_ns_per_event_divides_by_real_events_only(self):
        from repro.sim import Environment

        env = Environment()

        def proc():
            yield 1.0

        def run():
            env.process(proc())
            env.run()
            # what a flow-fidelity run records for segments it elides
            Environment.total_events_fast_forwarded += 1000

        report = profile_mod.measure(run)["report"]
        assert report["events_ff"] == 1000
        assert report["ns_per_event"] == \
            report["wall_s"] / report["events"] * 1e9
        assert set(report) == {"label", "wall_s", "events", "events_ff",
                               "sim_s", "ns_per_event"}


class TestProfileArtifact:
    def test_fig08_with_memory_and_pstats(self, tmp_path):
        out = str(tmp_path / "fig08.pstats")
        report = profile_mod.profile_artifact(
            "fig08", quick=True, profile_out=out, memory=True)
        assert report["artifact"] == "fig08"
        assert report["points"] == 3
        assert report["events"] > 0
        assert report["memory"]["peak_bytes"] > 0
        stats = pstats.Stats(out)  # dumped file must be loadable
        assert stats.total_calls > 0
        rendered = profile_mod.render_report(report)
        assert "fig08" in rendered and "ns/event" in rendered

    def test_unknown_artifact_raises(self):
        with pytest.raises(KeyError):
            profile_mod.profile_artifact("fig99")

    def test_quick_kwargs_shrink_fig07(self):
        report = profile_mod.profile_artifact("fig07", quick=True)
        # full fig07 runs 5 sizes x 3 series; quick trims to 3 sizes
        assert report["points"] == 9
        assert report["quick"] is True


class TestScaleProfile:
    def test_per_node_reports_run_time_bytes_beside_construction(
            self, tmp_path):
        report = profile_mod.profile_scale(nodes=16, per_node=True)
        assert report["nodes"] == 16
        assert report["bytes_per_node"] == report["build_bytes"] / 16
        # The allreduce's busy history, TLB mappings and lazily peered queue
        # pairs stay on the cluster: about one construction's worth per
        # node, where one list per idle gap held ~4x that.
        run_bytes = report["run_bytes_per_node"]
        assert 0 < run_bytes < 2 * report["bytes_per_node"]
        assert report["allreduce"]["time_s"] > 0
        assert "more after one allreduce" in profile_mod.render_report(report)

        trajectory = tmp_path / "BENCH_results.json"
        trajectory.write_text(json.dumps({"perf": {"wall_s": 1.0}}))
        assert profile_mod.record_scale_block(report, str(trajectory))
        perf = json.loads(trajectory.read_text())["perf"]
        assert perf["wall_s"] == 1.0
        assert perf["scale"]["run_bytes_per_node"] == run_bytes
        assert perf["scale"]["bytes_per_node"] == report["bytes_per_node"]

    def test_without_per_node_reports_no_per_node_bytes(self):
        report = profile_mod.profile_scale(nodes=16)
        assert "bytes_per_node" not in report
        assert "run_bytes_per_node" not in report


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["profile", "kernel"],
        ["profile", "fig08", "--update-baseline"],
        ["profile", "fig08", "--baseline", "perf.json"],
        ["profile", "fig08", "--obs"],
    ], ids=["kernel", "update-baseline", "baseline", "obs"])
    def test_removed_targets_and_flags_exit_2(self, argv, capsys):
        assert bench_main(argv) == 2

    def test_profile_requires_exactly_one_target(self, capsys):
        assert bench_main(["profile"]) == 2
        assert bench_main(["profile", "fig08", "fig09"]) == 2

    def test_profile_unknown_artifact(self, capsys):
        assert bench_main(["profile", "fig99"]) == 2

    def test_profile_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert bench_main(["profile", "fig08", "--quick",
                           "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["artifact"] == "fig08"
        assert report["events"] > 0 and report["ns_per_event"] > 0
        assert not any(key.endswith("_per_s") for key in report)

    def test_artifact_run_with_profile_out(self, tmp_path, capsys):
        pstats_out = tmp_path / "run.pstats"
        assert bench_main(["fig08", "--no-cache",
                           "--profile-out", str(pstats_out)]) == 0
        assert pstats.Stats(str(pstats_out)).total_calls > 0


class TestPerfSection:
    def test_from_runner_records(self):
        from repro.bench.runner import PointResult, SweepPoint

        point = SweepPoint.make("figXX", "k")
        records = [
            PointResult(point=point, value=1.0, wall_s=0.5, sim_s=0.1,
                        events=1000, events_ff=3000, cached=False),
            PointResult(point=point, value=1.0, wall_s=0.0, sim_s=0.0,
                        events=0, cached=True),  # cache reads excluded
        ]
        perf = profile_mod.perf_section(records, wall_s=0.75)
        assert perf["events"] == 1000
        assert perf["events_ff"] == 3000
        # wall time of the executed points over real events only
        assert perf["ns_per_event"] == pytest.approx(0.5 / 1000 * 1e9)
        assert set(perf) == {"wall_s", "fidelity", "events", "events_ff",
                             "ns_per_event"}
        assert perf["wall_s"] == 0.75

    def test_empty_records(self):
        perf = profile_mod.perf_section([], wall_s=0.0)
        assert perf["events"] == 0
        assert perf["ns_per_event"] == 0.0

