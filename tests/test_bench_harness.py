"""Tests of the benchmark harness plumbing and CLI (fast artifacts only)."""

import dataclasses

import pytest

from repro.bench import format_rows, format_series
from repro.bench.harness import (
    accl_collective_time,
    mpi_collective_time,
    run_fig08_invocation_latency,
    run_tab01_algorithm_table,
    run_tab03_resources,
)
from repro.bench.__main__ import _parser, main
from repro.bench.artifacts import ARTIFACTS, SCENARIOS
from repro.obs import capture
from repro.platform.base import BufferLocation
from repro import units


class TestFormats:
    def test_format_rows_aligns_columns(self):
        text = format_rows(
            [{"a": 1, "b": "xx"}, {"a": 22.5, "b": "y"}],
            ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_rows_missing_cell(self):
        text = format_rows([{"a": 1}], ["a", "b"])
        assert "1" in text

    def test_format_series_merges_x_values(self):
        text = format_series(
            {"s1": {1: 10.0, 2: 20.0}, "s2": {2: 5.0, 3: 6.0}}, "x")
        lines = text.splitlines()
        assert len(lines) == 2 + 3  # header + rule + three x rows
        assert "-" in lines[2]  # s1 has no x=3... s2 has no x=1

    def test_float_rendering(self):
        text = format_rows([{"v": 1.23456789}], ["v"])
        assert "1.235" in text


class TestHarnessRunners:
    def test_tab01_rows_complete(self):
        rows = run_tab01_algorithm_table()
        assert {r["collective"] for r in rows} == {
            "bcast", "reduce", "gather", "alltoall"}

    def test_tab03_rows_complete(self):
        rows = run_tab03_resources()
        names = [r["component"] for r in rows]
        assert names[0] == "U55C(100%)"
        assert len(names) == 7

    def test_fig08_rows(self):
        rows = run_fig08_invocation_latency(repeats=2)
        assert [r["caller"] for r in rows] == [
            "FPGA kernel", "Coyote host", "XRT host"]
        assert all(r["latency_us"] > 0 for r in rows)

    def test_accl_collective_time_runner(self):
        t = accl_collective_time("bcast", 4 * units.KIB, n_nodes=4,
                                 location=BufferLocation.DEVICE)
        assert t > 0

    def test_accl_runner_via_driver(self):
        t = accl_collective_time("bcast", 4 * units.KIB, n_nodes=4,
                                 location=BufferLocation.HOST,
                                 via_driver=True)
        assert t > 0

    def test_mpi_collective_time_runner(self):
        t = mpi_collective_time("bcast", 4 * units.KIB, n_ranks=4)
        assert t > 0

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            accl_collective_time("scan", 1024)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "tab03" in out

    def test_unknown_artifact(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_regenerates_fast_artifacts(self, capsys):
        assert main(["tab01", "tab03"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out
        assert "recursive_doubling" in out
        assert "DLRM FC1" in out

    def test_tab02_regenerates_dlrm_config(self, capsys):
        assert main(["tab02"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "3200" in out and "(2048, 512, 256)" in out

    def test_json_flag_writes_trajectory(self, tmp_path, capsys):
        out_path = tmp_path / "traj.json"
        assert main(["tab01", "--no-cache", "--json", str(out_path)]) == 0
        import json
        trajectory = json.loads(out_path.read_text())
        assert trajectory["schema"] == 1
        assert trajectory["totals"]["points"] == 1
        point = trajectory["artifacts"]["tab01"]["points"][0]
        assert point["kernel"] == "tab01"
        assert point["wall_s"] > 0
        assert point["cached"] is False

    def test_cache_flag_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["tab03", "--cache", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["tab03", "--cache", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert warm == cold  # cache hit renders identical rows

    @pytest.mark.parametrize("argv", [
        ["tab01", "--fidelity", "flow"],
        ["trace", "fig08", "--update"],
        ["trace", "fig08", "--jobs", "4"],
        ["check", "fig08", "--quick"],
        ["profile", "fig08", "--shard", "0/2"],
        ["merge", "s.json", "--no-cache"],
        ["diff", "a.json", "b.json", "--per-node"],
        ["validate-fidelity", "fig08", "--baseline", "b.json"],
    ])
    def test_flag_of_another_subcommand_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_help_exits_0(self, capsys):
        _, commands = _parser()
        assert main(["--help"]) == 0
        for name in commands:
            assert main([name, "--help"]) == 0
            assert f"python -m repro.bench {name}" in capsys.readouterr().out

    def test_profile_table_quick(self, capsys):
        assert main(["profile", "tab01", "--quick"]) == 0
        assert "tab01 (--quick): 1 points" in capsys.readouterr().out

    def test_bare_artifact_routes_to_run(self, capsys):
        assert main(["run", "fig08", "--no-cache"]) == 0
        explicit = capsys.readouterr().out
        assert main(["fig08", "--no-cache"]) == 0
        assert capsys.readouterr().out == explicit
        assert "Figure 8" in explicit


@pytest.fixture
def stub_registry(monkeypatch):
    """Swap every artifact's run/render and every traced scenario for
    instant stand-ins; returns the (artifact, run kwargs) call log."""
    calls = []
    for name, artifact in list(ARTIFACTS.items()):
        def run(runner, _name=name, **kwargs):
            calls.append((_name, kwargs))
            return _name

        monkeypatch.setitem(ARTIFACTS, name, dataclasses.replace(
            artifact, run=run, render=str))
    for name in list(SCENARIOS):
        monkeypatch.setitem(SCENARIOS, name, capture.trace_fig08)
    return calls


class TestRegistry:
    """Every subcommand accepts exactly the registry's names."""

    def test_list_and_all_cover_the_registry(self, stub_registry, tmp_path,
                                             capsys):
        assert list(ARTIFACTS) == [
            "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig16", "fig17", "figX_scale", "tab01", "tab02", "tab03"]
        assert main(["list"]) == 0
        table, scenarios = capsys.readouterr().out.strip().split("\n\n")
        assert [line.split()[0] for line in table.splitlines()[3:]] == list(
            ARTIFACTS)
        assert scenarios == "traced scenarios: " + ", ".join(SCENARIOS)
        assert main(["all", "--no-cache",
                     "--json", str(tmp_path / "t.json")]) == 0
        assert capsys.readouterr().out.split() == list(ARTIFACTS)

    def test_profile_and_validate_accept_exactly_the_artifacts(
            self, stub_registry, capsys):
        for name in ARTIFACTS:
            assert main(["profile", name]) == 0
        assert main(["validate-fidelity"]) == 0
        assert [name for name, _ in stub_registry] == (
            list(ARTIFACTS) + [n for n in ARTIFACTS for _ in range(2)])
        assert main(["profile", "allreduce"]) == 2
        assert main(["validate-fidelity", "allreduce"]) == 2

    def test_traced_subcommands_accept_exactly_the_scenarios(
            self, stub_registry, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        for name in SCENARIOS:
            assert main(["trace", name]) == 0
            assert main(["critpath", name]) == 0
            assert main(["validate-fidelity", "--explain", name]) == 0
        assert main(["check", *SCENARIOS, "--update",
                     "--baseline", baseline]) == 0
        # no names: every scenario the baseline holds for the mode
        assert main(["check", "--baseline", baseline]) == 0
        assert "check ok" in capsys.readouterr().out
        for argv in (["trace", "fig09"], ["critpath", "fig09"],
                     ["validate-fidelity", "--explain", "fig09"],
                     ["check", "fig09", "--baseline", baseline]):
            assert main(argv) == 2

    def test_quick_selects_one_slice_everywhere(self, stub_registry,
                                                tmp_path, capsys):
        assert main(["all", "--quick", "--no-cache",
                     "--json", str(tmp_path / "t.json")]) == 0
        for name in ARTIFACTS:
            assert main(["profile", name, "--quick"]) == 0
        assert main(["validate-fidelity", "--quick"]) == 0
        assert len(stub_registry) == 4 * len(ARTIFACTS)
        for name, kwargs in stub_registry:
            assert kwargs == dict(ARTIFACTS[name].quick), name
