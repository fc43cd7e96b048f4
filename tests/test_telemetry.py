"""Fidelity-aware telemetry: flow-mode reconciliation, decision counters,
continuous time-series sessions, and the self-contained HTML dashboard."""

import numpy as np
import pytest

from repro import units
from repro.network.fidelity import fidelity_override
from repro.obs import TelemetrySession, attribute_op, render_dashboard
from repro.obs.capture import trace_artifact
from repro.obs.metrics import MetricsRegistry
from repro.sim import all_of
from repro.sim.kernel import Environment


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


class TestTelemetrySession:
    def _registry(self):
        """A registry with one callback gauge, and the tick that moves it."""
        reg = MetricsRegistry()
        ticks = [0]
        reg.gauge("ticks_done", fn=lambda: ticks[0])

        def tick():
            ticks[0] += 1

        return reg, tick

    def test_rejects_bad_cadence_and_capacity(self):
        reg, _ = self._registry()
        with pytest.raises(ValueError):
            TelemetrySession(reg, cadence=0.0)
        with pytest.raises(ValueError):
            TelemetrySession(reg, cadence=1.0, capacity=0)

    def test_sampler_self_stops_and_pokes(self):
        reg, tick = self._registry()
        env = Environment()
        ts = TelemetrySession(reg, cadence=units.us(1))
        ts.attach(env)
        env.schedule_callback(units.us(3.5), tick)
        env.run()
        first = ts.samples_taken
        assert first >= 4  # t = 0, 1, 2, 3 us at least
        # Heap drained -> sampler disarmed: a new run() phase without a
        # poke() takes no samples and never keeps the sim alive.
        env.schedule_callback(units.us(1), tick)
        env.run()
        assert ts.samples_taken == first
        env.schedule_callback(units.us(1), tick)
        ts.poke()
        env.run()
        assert ts.samples_taken > first
        last = ts.samples[-1]
        assert last["values"]["ticks_done"] == 3.0

    def test_ring_capacity_counts_drops(self):
        reg, tick = self._registry()
        ts = TelemetrySession(reg, cadence=1.0, capacity=4)
        for i in range(10):
            tick()
            ts.sample(float(i))
        assert ts.samples_taken == 10
        assert ts.dropped == 6
        assert [s["t"] for s in ts.samples] == [6.0, 7.0, 8.0, 9.0]
        assert [s["values"]["ticks_done"] for s in ts.samples] == [
            7.0, 8.0, 9.0, 10.0]

    def test_capture_scenarios_take_samples(self):
        cap = trace_artifact("fig08", telemetry=units.us(5))
        assert cap.obs.telemetry is not None
        assert cap.obs.telemetry.samples_taken > 0
        summary = cap.obs.summary()
        assert summary["telemetry_samples"] == \
            cap.obs.telemetry.samples_taken
        assert summary["telemetry_dropped"] == 0


class TestDashboard:
    @pytest.fixture(scope="class")
    def html(self):
        cap = trace_artifact("fig07", telemetry=units.us(10))
        return render_dashboard(cap, fidelity="packet")

    def test_is_self_contained(self, html):
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and "<link" not in html

    def test_has_three_or_more_timeseries_charts(self, html):
        assert html.count("<svg") >= 3

    def test_has_breakdowns_decisions_and_flamegraph(self, html):
        assert "Phase breakdown" in html
        assert "Critical-path wait causes" in html
        assert "Fidelity decision log" in html
        assert "Flamegraph" in html

    def test_flow_dashboard_lists_decisions(self, fig07_flow):
        html = render_dashboard(fig07_flow, fidelity="flow")
        assert "window:readmit" in html
        assert "burst:carry" in html


class TestCli:
    def test_dashboard_writes_self_contained_html(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "dash.html"
        assert main(["dashboard", "fig08", "--out", str(out)]) == 0
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "self-contained" in capsys.readouterr().out

    def test_dashboard_unknown_lists_available(self, capsys):
        from repro.bench.__main__ import main

        assert main(["dashboard", "nope"]) == 2
        assert "fig07" in capsys.readouterr().err

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
