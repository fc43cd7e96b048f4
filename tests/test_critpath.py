"""Critical-path extraction, wait-cause attribution, flamegraph export."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import units
from repro.obs import (
    SpanTracer,
    attribute_op,
    render_critpath,
    to_chrome_trace,
    to_collapsed_stacks,
    validate_chrome_trace,
    write_flamegraph,
)
from repro.obs.capture import trace_artifact
from repro.sim import all_of


@pytest.fixture(scope="module")
def fig07_capture():
    return trace_artifact("fig07")


def _reltol(wall):
    return 1e-9 * max(abs(wall), 1e-12)


class TestAttribution:
    def test_totals_reconcile_exactly_with_wall(self, fig07_capture):
        """ISSUE acceptance: per-cause + per-phase exclusive totals sum to
        the op's wall sim-time, exactly (shared interval sweep)."""
        cap = fig07_capture
        assert cap.op_ids
        for op in cap.op_ids:
            report = attribute_op(cap.tracer, op)
            wall = report["wall_s"]
            assert abs(sum(report["totals"].values()) - wall) <= _reltol(wall)
            assert abs(sum(report["phases"].values()) - wall) <= _reltol(wall)

    def test_phases_bitwise_match_phase_breakdown(self, fig07_capture):
        """The capture's phase breakdowns (what ``bench trace --json``
        writes) are the critical-path reports: identical floats."""
        cap = fig07_capture
        assert cap.breakdowns() == [attribute_op(cap.tracer, op)
                                    for op in cap.op_ids]

    def test_segments_tile_the_wall_window(self, fig07_capture):
        cap = fig07_capture
        for op in cap.op_ids:
            report = attribute_op(cap.tracer, op)
            segs = report["segments"]
            assert segs[0]["t0"] == report["t0"]
            assert segs[-1]["t1"] == report["t1"]
            for prev, cur in zip(segs, segs[1:]):
                assert cur["t0"] == prev["t1"]
                assert cur["dur_s"] > 0

    def test_fig07_observes_rendezvous_and_pcie_waits(self, fig07_capture):
        cap = fig07_capture
        causes = set()
        for op in cap.op_ids:
            causes |= set(attribute_op(cap.tracer, op)["wait_observed"])
        assert "rendezvous" in causes  # the 1 MiB rendezvous transfer
        assert "pcie" in causes        # coyote host invocation

    def test_render_reports_reconciliation_ok(self, fig07_capture):
        cap = fig07_capture
        text = render_critpath(attribute_op(cap.tracer, cap.op_ids[0]))
        assert "critical path:" in text
        assert "[OK]" in text and "MISMATCH" not in text

    def test_back_to_back_calls_wait_on_uc_dispatch(self):
        """Two commands submitted together on one engine: the second is
        serialized behind the first's uC dispatch."""
        from repro.cluster.builder import build_fpga_cluster
        from repro.driver.api import attach_drivers
        from repro.obs.runtime import attach

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        obs = attach(cluster)
        driver = attach_drivers(cluster)[0]
        reqs = [driver.nop(), driver.nop()]
        cluster.env.run(until=all_of(cluster.env, [r.event for r in reqs]))
        ops = obs.tracer.op_ids()
        assert len(ops) == 2
        second = attribute_op(obs.tracer, ops[1])
        assert second["wait_observed"].get("uc_dispatch", 0.0) > 0


class TestFlamegraph:
    def test_collapsed_stacks_format_and_rooting(self, fig07_capture):
        cap = fig07_capture
        lines = to_collapsed_stacks(cap.tracer, cap.op_ids)
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            frames = stack.split(";")
            assert all(":" in f for f in frames)
        # Every stack is rooted at a collective span.
        assert all(":collective:" in line.split(";")[0] for line in lines)

    def test_write_flamegraph(self, fig07_capture, tmp_path):
        cap = fig07_capture
        path = tmp_path / "flame.txt"
        n = write_flamegraph(cap.tracer, str(path), cap.op_ids)
        content = path.read_text().splitlines()
        assert len(content) == n > 0


class TestTimingInvariance:
    @staticmethod
    def _run_sendrecv(with_obs: bool) -> float:
        from repro.cluster.builder import build_fpga_cluster
        from repro.driver.api import attach_drivers
        from repro.obs.runtime import attach

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        if with_obs:
            attach(cluster)
        drivers = attach_drivers(cluster)
        for tag, nbytes in ((7, 16 * units.KIB), (8, units.MIB)):
            data = np.ones(nbytes // 4, dtype=np.float32)
            reqs = [
                drivers[0].send(drivers[0].wrap(data), nbytes, dst=1,
                                tag=tag),
                drivers[1].recv(drivers[1].alloc(nbytes), nbytes, src=0,
                                tag=tag),
            ]
            cluster.env.run(
                until=all_of(cluster.env, [r.event for r in reqs]))
        return cluster.env.now

    def test_instrumentation_is_record_only(self):
        """The wait annotations must not move simulated time."""
        assert self._run_sendrecv(True) == self._run_sendrecv(False)


class TestChromeTruncation:
    def test_open_spans_export_truncated_end_events(self):
        tr = SpanTracer()
        op = tr.next_op_id()
        root = tr.span_begin(0.0, "cclo0.driver", "collective:send",
                             phase="collective", op_id=op)
        tr.span_complete("cclo0.uc", "dispatch", 1e-6, 2e-6, phase="uc",
                         op_id=op)
        tr.span_begin(3e-6, "cclo0.dmp", "instr", phase="dmp", op_id=op)
        assert tr.unclosed_count == 2
        doc = to_chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs["dispatch"]["args"].get("truncated") is None
        for name in ("collective:send", "instr"):
            assert xs[name]["args"]["truncated"] is True
            assert xs[name]["dur"] > 0
        # Synthetic ends land at the last observed sim time (3 us).
        assert xs["collective:send"]["dur"] == pytest.approx(3.0)
        assert doc["otherData"]["truncated_spans"] == 2
        assert doc["otherData"]["unclosed"] == 2  # check_trace still gates
        tr.span_end(4e-6, root)


class TestCli:
    def test_critpath_unknown_scenario_lists_available(self, capsys):
        from repro.bench.__main__ import main

        assert main(["critpath", "nope"]) == 2
        err = capsys.readouterr().err
        assert "fig07" in err and "allreduce" in err

    def test_trace_unknown_scenario_lists_available(self, capsys):
        from repro.bench.__main__ import main

        assert main(["trace", "nope"]) == 2
        err = capsys.readouterr().err
        assert "fig07" in err and "fig08" in err

    _SLOW = ["figX_scale", "--arg", "n_nodes=8", "--arg", "size=65536",
             "--arg", "slow_link=fpga3.down", "--arg"]

    @pytest.mark.parametrize("argv", [
        ["allreduce", "--arg", "n_nodes=0"],
        ["allreduce", "--arg", "nbytes=0"],
        ["allreduce", "--arg", "nbytes=3"],
        ["allreduce", "--arg", "nbytes=6"],
        ["allreduce", "--arg", "nbytes=1023"],
        ["fig12", "--arg", "nbytes=1022"],
        # size itself is aligned; its second leg moves 1028 // 4 = 257 B
        ["figX_scale", "--arg", "n_nodes=4", "--arg", "size=1028"],
        _SLOW + ["slow_factor=0"],
        _SLOW + ["slow_factor=inf"],
        _SLOW + ["slow_factor=-2"],
        _SLOW + ["slow_factor=nan"],
        # a key the scenario does not take
        ["fig08", "--arg", "bogus=1"],
        ["figX_scale", "--arg", "n_nodes=8", "--arg", "size=65536",
         "--arg", "fabric=dragonfly"],
    ], ids=["n_nodes=0", "nbytes=0", "nbytes=3", "nbytes=6", "nbytes=1023",
            "fig12-nbytes=1022", "figX_scale-size=1028", "slow_factor=0",
            "slow_factor=inf", "slow_factor=-2", "slow_factor=nan",
            "fig08-bogus=1", "figX_scale-fabric=dragonfly"])
    def test_rejected_scenario_args_exit_2(self, argv, capsys):
        from repro.bench.__main__ import main

        assert main(["trace", *argv]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1, captured.err
        assert "Traceback" not in captured.err
        arg = argv[-1].partition("=")[0]
        assert arg in captured.err, captured.err

    def test_critpath_cli_prints_reconciled_paths(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        flame = tmp_path / "flame.txt"
        out_json = tmp_path / "crit.json"
        rc = main(["critpath", "fig08", "--flamegraph-out", str(flame),
                   "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path:" in out and "MISMATCH" not in out
        assert flame.read_text().strip()
        doc = json.loads(out_json.read_text())
        assert doc["artifact"] == "fig08" and doc["ops"]

    def test_trace_json_feeds_check_trace_script(self, tmp_path):
        from repro.bench.__main__ import main

        trace = tmp_path / "trace.json"
        breakdown = tmp_path / "breakdown.json"
        rc = main(["trace", "fig08", "--trace-out", str(trace),
                   "--json", str(breakdown)])
        assert rc == 0
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "scripts", "check_trace.py"),
             str(trace), str(breakdown)],
            capture_output=True, text=True, env=env, cwd=repo,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "breakdown ok" in proc.stdout
