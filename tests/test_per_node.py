"""Per-node/per-link outlier attribution and the incomplete-trace flag."""

import numpy as np
import pytest

from repro import units
from repro.obs import capture
from repro.obs.critpath import (per_node_report, render_critpath,
                                render_per_node)
from repro.obs.export import attribute_op
from repro.obs.runtime import Observability, attach


class TestPerNodeReport:
    def test_small_allreduce_attributes_nodes_and_links(self):
        cap = capture.trace_artifact("allreduce")
        report = per_node_report(cap)
        assert report["ops"] == sorted(cap.op_ids)
        assert report["node_count"] == 4
        assert report["link_count"] > 0
        names = {m["name"] for m in report["nodes"]}
        assert names == {"cclo0", "cclo1", "cclo2", "cclo3"}
        for member in report["nodes"] + report["links"]:
            assert member["busy_s"] >= 0 and member["wait_s"] >= 0
            assert member["total_s"] == pytest.approx(
                member["busy_s"] + member["wait_s"])
        assert not report["incomplete"]

    def test_render_mentions_kinds_and_stragglers(self):
        cap = capture.trace_artifact("fig08")
        report = per_node_report(cap)
        text = render_per_node(report)
        assert "per-node attribution" in text
        assert "node" in text and "link" in text
        assert ("stragglers:" in text) or ("no stragglers flagged" in text)

    def test_z_scores_are_population_relative(self):
        cap = capture.trace_artifact("allreduce")
        report = per_node_report(cap, z_threshold=1e9)
        # absurd threshold: nothing can be flagged
        assert report["stragglers"] == []
        zs = [m["z"] for m in report["nodes"]]
        assert max(zs) > 0 or all(z == 0 for z in zs)


class TestInjectedStragglerAtScale:
    """Acceptance: the injected slow link of a >=256-node fabric is the
    top-ranked link straggler."""

    def test_slow_link_flagged_in_256_node_fattree(self):
        cap = capture.trace_artifact(
            "figX_scale", n_nodes=256, size=256 * units.KIB,
            slow_link="fpga137.down", slow_factor=16.0)
        assert cap.tracer.spans_dropped == 0, \
            "scenario must size its trace ring for the fabric"
        report = per_node_report(cap, top_k=5)
        assert report["node_count"] == 256
        top_link = report["links"][0]
        assert top_link["name"] == "fpga137.down"
        assert top_link["straggler"]
        assert top_link["z"] >= 2.5
        assert "fpga137.down" in report["stragglers"]
        # and its blockage is attributed to the link-serialization cause
        assert max(top_link["causes"], key=top_link["causes"].get) == \
            "link_busy"

    def test_unperturbed_run_does_not_flag_that_link(self):
        cap = capture.trace_artifact(
            "figX_scale", n_nodes=64, size=256 * units.KIB)
        report = per_node_report(cap, top_k=5)
        assert "fpga37.down" not in report["stragglers"]

    def test_throttle_unknown_pattern_is_an_error(self):
        with pytest.raises(ValueError, match="matched no link"):
            capture.trace_artifact("figX_scale", n_nodes=8,
                                   size=64 * units.KIB,
                                   slow_link="nosuchlink.down")


class TestIncompleteFlag:
    """Dropped spans must surface as an explicit flag, not silently skew
    attribution totals."""

    def _overflowed_capture(self):
        from repro.cluster.builder import build_fpga_cluster
        from repro.driver.api import attach_drivers
        from repro.sim import all_of

        cluster = build_fpga_cluster(2)
        obs = attach(cluster, Observability(trace_capacity=8))
        drivers = attach_drivers(cluster)
        nbytes = 64 * units.KIB
        data = np.ones(nbytes // 4, dtype=np.float32)
        requests = [
            drivers[0].send(drivers[0].wrap(data), nbytes, dst=1, tag=5),
            drivers[1].recv(drivers[1].alloc(nbytes), nbytes, src=0, tag=5),
        ]
        cluster.env.run(until=all_of(cluster.env,
                                     [r.event for r in requests]))
        assert obs.tracer.spans_dropped > 0
        return obs

    def test_attribute_op_and_breakdown_carry_the_flag(self):
        obs = self._overflowed_capture()
        op_ids = obs.tracer.op_ids()
        for op in op_ids:
            assert attribute_op(obs.tracer, op)["incomplete"] is True
        cap = capture.TraceCapture("fig07", "overflowed", obs, op_ids)
        assert all(bd["incomplete"] for bd in cap.breakdowns())

    def test_critpath_and_per_node_warn(self):
        obs = self._overflowed_capture()
        op_ids = obs.tracer.op_ids()
        report = attribute_op(obs.tracer, op_ids[0])
        assert report["incomplete"] is True
        assert "INCOMPLETE" in render_critpath(report)
        per_node = per_node_report(
            capture.TraceCapture("fig07", "overflowed", obs, op_ids))
        assert per_node["incomplete"] is True
        assert "INCOMPLETE" in render_per_node(per_node)

    def test_intact_trace_is_not_flagged(self):
        cap = capture.trace_artifact("fig08")
        for op in cap.op_ids:
            assert attribute_op(cap.tracer, op)["incomplete"] is False
        assert "INCOMPLETE" not in render_critpath(
            attribute_op(cap.tracer, cap.op_ids[0]))


class TestCliWarnings:
    def test_trace_cli_warns_on_dropped_spans(self, capsys, monkeypatch):
        from repro.bench.__main__ import main

        real = capture.trace_artifact

        def tiny(name, **kwargs):
            cap = real(name, **kwargs)
            cap.tracer.spans_dropped = 7
            return cap

        monkeypatch.setattr(capture, "trace_artifact", tiny)
        assert main(["trace", "fig08"]) == 0
        err = capsys.readouterr().err
        assert "INCOMPLETE" in err and "7 span(s) dropped" in err

    def test_critpath_cli_per_node_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["critpath", "allreduce", "--per-node"]) == 0
        out = capsys.readouterr().out
        assert "per-node attribution" in out
