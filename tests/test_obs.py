"""Tests of the observability layer (metrics, spans, exporters, wiring)."""

import json

import pytest

from repro import units
from repro.obs import (
    Gauge,
    MetricsRegistry,
    Observability,
    SpanTracer,
    attribute_op,
    metrics_to_csv,
    render_phase_table,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.bench.artifacts import SCENARIOS
from repro.obs.capture import trace_artifact
from tests.helpers import make_cluster


class TestMetrics:
    def test_gauge_set_and_callback(self):
        live = {"n": 3}
        gf = Gauge("live", (), fn=lambda: live["n"])
        assert gf.value == 3.0
        live["n"] = 9
        assert gf.value == 9.0

    def test_registry_get_or_create_and_kind_clash(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("a", fn=lambda: 1.0, node="x")
        assert reg.gauge("a", fn=lambda: 2.0, node="x") is gauge
        assert gauge.value == 2.0  # re-registering rebinds the callback
        assert reg.gauge("a", fn=lambda: 3.0, node="y") is not gauge
        assert len(reg) == 2

    def test_snapshot_resolves_callback_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("live", fn=lambda: 42.0)
        assert reg.snapshot()["gauges"]["live"] == 42.0


class TestSpanTracer:
    def test_begin_end_and_auto_parenting(self):
        tr = SpanTracer()
        op = tr.next_op_id()
        root = tr.span_begin(0.0, "cclo0.uc", "collective:send",
                             phase="collective", op_id=op)
        child = tr.span_begin(1.0, "cclo0.dmp", "instr", phase="dmp",
                              op_id=op)
        tr.span_end(2.0, child)
        tr.span_end(3.0, root)
        spans = {s.sid: s for s in tr.completed_spans}
        assert spans[child].parent == root
        assert spans[root].parent == -1
        assert spans[child].duration == pytest.approx(1.0)
        assert tr.root_span(op).sid == root
        assert tr.op_ids() == [op]

    def test_unclosed_count_and_idempotent_end(self):
        tr = SpanTracer()
        sid = tr.span_begin(0.0, "cclo0.uc", "step")
        assert tr.unclosed_count == 1
        tr.span_end(1.0, sid)
        tr.span_end(2.0, sid)        # double-close: ignored
        tr.span_end(2.0, 99999)      # unknown id: ignored
        assert tr.unclosed_count == 0
        assert len(tr.completed_spans) == 1

    def test_span_capacity_evicts_and_counts(self):
        tr = SpanTracer(capacity=2)
        for i in range(4):
            tr.span_complete("cclo0.uc", f"s{i}", float(i), float(i) + 0.5)
        assert tr.spans_dropped == 2
        # Ring-buffer semantics: the *tail* of the run is retained.
        assert [s.name for s in tr.completed_spans] == ["s2", "s3"]


class TestExporters:
    def _small_trace(self):
        tr = SpanTracer()
        op = tr.next_op_id()
        root = tr.span_begin(0.0, "cclo0.driver", "collective:send",
                             phase="collective", op_id=op, nbytes=64)
        tr.span_complete("cclo0.uc", "dispatch", 0.0, 2e-6, phase="uc",
                         op_id=op)
        tr.span_complete("cclo0.dmp", "instr", 2e-6, 6e-6, phase="dmp",
                         op_id=op)
        tr.span_complete("cclo0.wire", "wire:eager", 5e-6, 8e-6,
                         phase="wire", op_id=op)
        tr.span_end(10e-6, root)
        return tr, op

    def test_chrome_trace_schema(self, tmp_path):
        tr, _ = self._small_trace()
        doc = to_chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {
            "collective:send", "dispatch", "instr", "wire:eager"}
        for e in xs:
            assert e["dur"] > 0 and isinstance(e["ts"], float)
        # one pid (cclo0), one tid per component
        assert len({e["pid"] for e in xs}) == 1
        assert len({e["tid"] for e in xs}) == 4
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tr, str(path)) == 4
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_validate_flags_bad_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a "
                                             "list"]
        bad = {"traceEvents": [
            {"ph": "X", "ts": "soon", "dur": 1, "pid": 1, "tid": 1,
             "name": "a"},
            {"ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1, "name": "b"},
            {"ph": "Q", "name": "c"},
            {"ph": "X", "name": "d"},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 4

    def test_phase_breakdown_sums_to_wall(self):
        tr, op = self._small_trace()
        bd = attribute_op(tr, op)
        assert bd["wall_s"] == pytest.approx(10e-6)
        assert sum(bd["phases"].values()) == pytest.approx(bd["wall_s"])
        # dmp [2,6]us overlaps wire [5,8]us: wire wins the [5,6] overlap
        assert bd["phases"]["wire"] == pytest.approx(3e-6)
        assert bd["phases"]["dmp"] == pytest.approx(3e-6)
        assert bd["phases"]["uc"] == pytest.approx(2e-6)
        assert bd["phases"]["other"] == pytest.approx(2e-6)
        assert sum(bd["fractions"].values()) == pytest.approx(1.0)

    def test_phase_breakdown_errors(self):
        tr = SpanTracer()
        with pytest.raises(KeyError):
            attribute_op(tr, 7)
        op = tr.next_op_id()
        tr.span_begin(0.0, "cclo0.uc", "collective:send",
                      phase="collective", op_id=op)
        with pytest.raises(ValueError):
            attribute_op(tr, op)

    def test_render_phase_table(self):
        tr, op = self._small_trace()
        table = render_phase_table([attribute_op(tr, op)])
        assert "collective:send" in table and "wire%" in table

    def test_metrics_csv(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("tx", fn=lambda: 3, node="n0")
        reg.gauge("lat", fn=lambda: 1.0)
        path = tmp_path / "metrics.csv"
        assert metrics_to_csv(reg, str(path)) == 2
        lines = path.read_text().splitlines()
        assert lines[0].startswith("metric,kind,")
        assert "tx{node=n0},gauge,3.0" in lines


class TestClusterWiring:
    def test_attach_collects_spans_and_metrics(self):
        from repro.bench.harness import accl_collective_time

        cluster = make_cluster(2)
        obs = Observability().attach(cluster)
        # direct engine call path: the uC allocates the op id
        from repro.sim import all_of
        from tests.helpers import collective_args, dev_buffer, \
            empty_dev_buffer
        import numpy as np

        payload = np.ones(256, np.float32)
        sview = dev_buffer(cluster, 0, payload)
        rview = empty_dev_buffer(cluster, 1, 256)
        events = [
            cluster.engine(1).call(collective_args(
                opcode="recv", peer=0, nbytes=payload.nbytes, rbuf=rview)),
            cluster.engine(0).call(collective_args(
                opcode="send", peer=1, nbytes=payload.nbytes, sbuf=sview)),
        ]
        cluster.env.run(until=all_of(cluster.env, events))

        assert obs.tracer.unclosed_count == 0
        ops = obs.tracer.op_ids()
        assert len(ops) == 2
        for op in ops:
            bd = attribute_op(obs.tracer, op)
            assert sum(bd["phases"].values()) == pytest.approx(
                bd["wall_s"], rel=1e-9)
        assert validate_chrome_trace(to_chrome_trace(obs.tracer)) == []
        rows = {r["metric"]: r for r in obs.registry.rows()}
        assert rows["uc_commands_executed{node=cclo0}"]["value"] >= 1
        assert rows["kernel_events_processed"]["value"] > 0
        del accl_collective_time  # imported only to assert availability

    def test_disabled_cluster_records_nothing(self):
        cluster = make_cluster(2)
        engine = cluster.engine(0)
        assert engine.tracer is None
        assert engine.span_begin("uc", "x") == -1
        engine.span_end(-1)  # must be a no-op, not crash
        assert engine.next_op_id() == -1

class TestCapture:
    def test_traceable_artifacts_listed(self):
        assert "fig08" in SCENARIOS and "fig07" in SCENARIOS

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            trace_artifact("fig99")

    def test_fig08_capture_end_to_end(self):
        cap = trace_artifact("fig08")
        assert cap.op_ids and cap.tracer.unclosed_count == 0
        for bd in cap.breakdowns():
            assert sum(bd["phases"].values()) == pytest.approx(
                bd["wall_s"], rel=1e-9)
        assert validate_chrome_trace(to_chrome_trace(cap.tracer)) == []

    def test_allreduce_capture_attributes_wire_time(self):
        cap = trace_artifact("allreduce", nbytes=16 * units.KIB, n_nodes=2)
        assert cap.tracer.unclosed_count == 0
        total_wire = sum(bd["phases"]["wire"] for bd in cap.breakdowns())
        assert total_wire > 0  # data moved, so some wall time is wire time


class TestRunnerIntegration:
    def test_points_record_only_their_run(self):
        """A sweep point carries its value and kernel counts, nothing of
        observability: no per-point obs counts reach the trajectory."""
        from repro.bench.runner import SweepPoint, SweepRunner, execute_point

        point = SweepPoint.make("t", "accl_collective", opcode="allreduce",
                                size=4 * units.KIB, n_nodes=2)
        out = execute_point(point)
        assert set(out) == {"value", "wall_s", "sim_s", "events",
                            "events_ff"}
        runner = SweepRunner(jobs=1, cache=None)
        runner.run([point])
        trajectory = runner.trajectory()
        for art in trajectory["artifacts"].values():
            for entry in art["points"]:
                assert not {"dropped", "snapshots",
                            "snap_dropped"} & set(entry)
