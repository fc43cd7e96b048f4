"""Unified observability: metrics registry, span tracing, exporters.

The simulation platform exists to shorten "hardware debugging cycles"
(§4.3); this package is what makes that claim operational.  Every
report it produces is text or JSON (the Chrome trace opens in Perfetto):

- :mod:`repro.obs.metrics` — a registry of callback gauges
  (:class:`Gauge`) that components register into;
- :mod:`repro.obs.spans` — :class:`SpanTracer`, structured begin/end spans
  with ids, parent links and per-collective ``op_id`` propagation in one
  bounded ring buffer;
- :mod:`repro.obs.export` — Chrome trace-event JSON (opens in Perfetto),
  CSV metrics dumps and the :func:`attribute_op` per-op report;
- :mod:`repro.obs.critpath` — per-collective critical paths with
  wait-cause attribution and collapsed-stack flamegraphs;
- :mod:`repro.obs.diff` — differential comparison of two runs, point by
  point for sweep trajectories and op by op with ranked wait-cause
  attribution for traced scenarios (``bench diff``).

Each question has one report: phases (``bench trace``), wait causes and
critical paths (``bench critpath``), ranked deltas (``bench diff``).
Everything is opt-in: with no registry and no tracer attached (the
default), instrumented components pay at most a ``None`` check.
:func:`repro.obs.runtime.attach` wires a bundle into one built cluster;
it is the only way to observe a run.
"""

from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.spans import Span, SpanTracer
from repro.obs.export import (
    attribute_op,
    metrics_to_csv,
    render_phase_table,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.critpath import (
    per_node_report,
    render_critpath,
    render_per_node,
    to_collapsed_stacks,
    write_flamegraph,
)
from repro.obs.diff import (
    diff_files,
    diff_runs,
    load_run,
    metric_delta_attribution,
    render_check_attribution,
    render_diff,
)
from repro.obs.runtime import Observability, attach

__all__ = [
    "Gauge", "MetricsRegistry",
    "Span", "SpanTracer", "to_chrome_trace",
    "validate_chrome_trace", "write_chrome_trace", "metrics_to_csv",
    "attribute_op", "render_phase_table",
    "render_critpath",
    "per_node_report", "render_per_node",
    "to_collapsed_stacks", "write_flamegraph",
    "diff_files", "diff_runs", "load_run", "metric_delta_attribution",
    "render_check_attribution", "render_diff",
    "Observability", "attach",
]
