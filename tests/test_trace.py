"""Tests of the tracing subsystem: the span ring and the engine's spans."""

import importlib.util
import json
import os

import numpy as np
import pytest

from repro.cclo.microcontroller import CollectiveArgs
from repro.obs import SpanTracer, attach, write_chrome_trace
from repro.sim import all_of
from tests.helpers import dev_buffer, empty_dev_buffer, make_cluster

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_trace_script():
    spec = importlib.util.spec_from_file_location(
        "check_trace", os.path.join(_REPO, "scripts", "check_trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_traced_sendrecv():
    cluster = make_cluster(2)
    tracer = attach(cluster).tracer
    payload = np.ones(128, np.float32)
    sview = dev_buffer(cluster, 0, payload)
    rview = empty_dev_buffer(cluster, 1, 128)
    events = [
        cluster.engine(1).call(CollectiveArgs(
            opcode="recv", peer=0, nbytes=payload.nbytes, rbuf=rview)),
        cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=1, nbytes=payload.nbytes, sbuf=sview)),
    ]
    cluster.env.run(until=all_of(cluster.env, events))
    return cluster, tracer


class TestTracerCore:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_full_ring_of_begin_end_spans_is_complete(self, tmp_path):
        """Regression: each span is stored once, so a ring of N spans
        holding N begin/end spans has dropped nothing — a second, flat
        copy of every begin and end used to fill first and make the
        export look truncated."""
        n = 8
        tracer = SpanTracer(capacity=n)
        op = tracer.next_op_id()
        root = tracer.span_begin(0.0, "cclo0.uc", "collective:send",
                                 phase="collective", op_id=op)
        for i in range(n - 1):
            sid = tracer.span_begin(i * 1e-6, "cclo0.dmp", "instr",
                                    phase="dmp", op_id=op)
            tracer.span_end((i + 1) * 1e-6, sid)
        tracer.span_end(n * 1e-6, root)
        assert len(tracer.completed_spans) == n
        assert tracer.spans_dropped == 0 and tracer.unclosed_count == 0

        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer, str(path)) == n
        other = json.loads(path.read_text())["otherData"]
        assert set(other) == {"spans", "truncated_spans", "unclosed",
                              "spans_dropped"}
        assert other["unclosed"] == 0 and other["spans_dropped"] == 0
        assert _check_trace_script().check(str(path)) == 0


class TestEngineIntegration:
    def test_sendrecv_produces_expected_events(self):
        _, tracer = run_traced_sendrecv()
        dispatches = [s for s in tracer.completed_spans
                      if s.component.endswith(".uc") and s.name == "dispatch"]
        assert len(dispatches) == 2  # one send + one recv command
        assert {s.component for s in dispatches} == {"cclo0.uc", "cclo1.uc"}

    def test_spans_lie_within_the_run(self):
        cluster, tracer = run_traced_sendrecv()
        spans = tracer.completed_spans
        assert spans and tracer.unclosed_count == 0
        for span in spans:
            assert 0.0 <= span.t0 <= span.t1 <= cluster.env.now

    def test_dmp_spans_positive(self):
        _, tracer = run_traced_sendrecv()
        instrs = [s for s in tracer.completed_spans
                  if s.component.endswith(".dmp") and s.name == "instr"]
        assert instrs
        for span in instrs:
            assert span.duration > 0
