"""Fidelity-aware telemetry: flow-mode reconciliation, decision counters
and markers, and divergence attribution (``validate-fidelity --explain``)."""

import numpy as np
import pytest

from repro import units
from repro.network.fidelity import fidelity_override
from repro.obs import attribute_op, to_chrome_trace
from repro.obs.capture import trace_artifact
from repro.sim import all_of


@pytest.fixture(scope="module")
def fig07_flow():
    with fidelity_override("flow"):
        return trace_artifact("fig07")


@pytest.fixture(scope="module")
def fig12_flow():
    with fidelity_override("flow"):
        return trace_artifact("fig12")


def _reltol(wall):
    return 1e-9 * max(abs(wall), 1e-12)


def _decision_totals(cap, metric):
    """Sum a ``*_flow_decisions`` gauge family by its ``reason`` label."""
    totals = {}
    for key, value in cap.obs.registry.snapshot()["gauges"].items():
        if not key.startswith(metric + "{"):
            continue
        labels = dict(pair.split("=", 1)
                      for pair in key[len(metric) + 1:-1].split(","))
        reason = labels["reason"]
        totals[reason] = totals.get(reason, 0.0) + value
    return totals


class TestFlowReconciliation:
    """ISSUE acceptance: flow-mode traces account for every sim-second.

    The burst fast path elides per-segment wire events, so the synthetic
    ``wire:burst`` spans must tile exactly what the packet pump would have
    recorded — phase and wait-cause totals still sum to wall sim-time."""

    @pytest.mark.parametrize("fixture", ["fig07_flow", "fig12_flow"])
    def test_totals_reconcile_exactly_with_wall(self, fixture, request):
        cap = request.getfixturevalue(fixture)
        assert cap.op_ids
        for op in cap.op_ids:
            report = attribute_op(cap.tracer, op)
            wall = report["wall_s"]
            assert wall > 0
            assert abs(sum(report["totals"].values()) - wall) \
                <= _reltol(wall)
            assert abs(sum(report["phases"].values()) - wall) \
                <= _reltol(wall)

    def test_fig07_flow_sees_wire_time(self, fig07_flow):
        """The 16 MiB op rides the burst path; without synthetic wire spans
        its wire phase would be invisible."""
        wire = sum(attribute_op(fig07_flow.tracer, op)["phases"].get(
            "wire", 0.0) for op in fig07_flow.op_ids)
        assert wire > 0

    def test_fig07_flow_decision_counters(self, fig07_flow):
        poe = _decision_totals(fig07_flow, "poe_flow_decisions")
        link = _decision_totals(fig07_flow, "link_flow_decisions")
        # 16 KiB + 1 MiB stay packet (below the admission floor); the
        # 16 MiB send is admitted and re-admitted window by window.
        assert poe.get("admit") == 1.0
        assert poe.get("reject:below_floor", 0.0) >= 1.0
        assert poe.get("window:readmit", 0.0) >= 1.0
        assert link.get("burst:carry", 0.0) >= 1.0

    def test_fig12_flow_decision_counters(self, fig12_flow):
        poe = _decision_totals(fig12_flow, "poe_flow_decisions")
        link = _decision_totals(fig12_flow, "link_flow_decisions")
        assert poe.get("admit", 0.0) >= 1.0
        assert poe.get("window:readmit", 0.0) >= 1.0
        assert link.get("burst:carry", 0.0) >= 1.0

    def test_decision_spans_are_zero_duration_markers(self, fig07_flow):
        marks = [s for s in fig07_flow.tracer.completed_spans
                 if s.phase == "fidelity"]
        assert marks
        for span in marks:
            assert span.t0 == span.t1  # record-only: no simulated time
        # they serve the Chrome trace timeline: one event per decision
        events = [e for e in to_chrome_trace(fig07_flow.tracer)[
            "traceEvents"] if e.get("cat") == "fidelity"]
        assert len(events) == len(marks)
        assert all("reason" in e["args"] for e in events)

    def test_packet_mode_records_no_flow_decisions(self):
        with fidelity_override("packet"):
            cap = trace_artifact("fig07")
        assert sum(_decision_totals(cap, "poe_flow_decisions").values()) == 0
        assert sum(_decision_totals(cap, "link_flow_decisions").values()) == 0
        assert not any(s.phase == "fidelity"
                       for s in cap.tracer.completed_spans)


class TestTimingInvarianceFlow:
    """Satellite: observability on == off must be sim-time identical in
    flow fidelity too."""

    @staticmethod
    def _run_sendrecv(with_obs: bool) -> float:
        from repro.cluster.builder import build_fpga_cluster
        from repro.driver.api import attach_drivers
        from repro.obs.runtime import attach

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        if with_obs:
            attach(cluster)
        drivers = attach_drivers(cluster)
        # 16 MiB crosses the flow-admission floor, so the burst path (and
        # its traced sink) actually runs; 16 KiB covers packet fallback.
        for tag, nbytes in ((7, 16 * units.KIB), (8, 16 * units.MIB)):
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

    def test_flow_instrumentation_is_record_only(self):
        with fidelity_override("flow"):
            assert self._run_sendrecv(True) == self._run_sendrecv(False)


class TestCli:
    def test_dashboard_unknown_lists_available(self, capsys):
        """There is no dashboard subcommand: the word routes to ``run``,
        which rejects it as an artifact and lists the real ones."""
        from repro.bench.__main__ import main

        assert main(["dashboard", "fig07"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifacts: dashboard" in err
        assert "fig07" in err

    def test_validate_explain_names_top_contributor(self, capsys):
        from repro.bench.__main__ import main

        assert main(["validate-fidelity", "fig08", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "divergence attribution: fig08" in out
        assert "top contributor" in out

    def test_validate_explain_requires_artifact(self, capsys):
        from repro.bench.__main__ import main

        assert main(["validate-fidelity", "--explain"]) == 2
        assert "fig07" in capsys.readouterr().err
