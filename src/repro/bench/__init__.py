"""Benchmark harness: regenerates every table and figure of the evaluation.

Each ``run_*`` function in :mod:`repro.bench.harness` reproduces one paper
artifact.  Internally an artifact is a list of independent
:class:`~repro.bench.runner.SweepPoint` items executed by a
:class:`~repro.bench.runner.SweepRunner` — optionally fanned out over a
process pool (``jobs``) and memoized on disk
(:class:`~repro.bench.cache.ResultCache`).  :mod:`repro.bench.formats`
renders the returned rows/series as the text tables the benchmarks print,
and :mod:`repro.bench.artifacts` declares each artifact once for every
consumer.  The pytest-benchmark targets live in ``benchmarks/`` at the
repository root; ``python -m repro.bench`` is the standalone CLI.
"""

from repro.bench.cache import ResultCache, calibration_fingerprint, point_key
from repro.bench.formats import format_rows, format_series
from repro.bench.harness import (
    run_fig07_sendrecv_throughput,
    run_fig08_invocation_latency,
    run_fig09_f2f_breakdown,
    run_fig10_f2f_collectives,
    run_fig11_h2h_collectives,
    run_fig12_reduce_scalability,
    run_fig13_tcp_xrt,
    run_fig16_vecmat,
    run_fig17_dlrm,
    run_tab01_algorithm_table,
    run_tab02_dlrm_config,
    run_tab03_resources,
)
from repro.bench.runner import PointResult, SweepPoint, SweepRunner

__all__ = [
    "run_fig07_sendrecv_throughput",
    "run_fig08_invocation_latency",
    "run_fig09_f2f_breakdown",
    "run_fig10_f2f_collectives",
    "run_fig11_h2h_collectives",
    "run_fig12_reduce_scalability",
    "run_fig13_tcp_xrt",
    "run_fig16_vecmat",
    "run_fig17_dlrm",
    "run_tab01_algorithm_table",
    "run_tab02_dlrm_config",
    "run_tab03_resources",
    "format_rows",
    "format_series",
    "SweepPoint",
    "SweepRunner",
    "PointResult",
    "ResultCache",
    "point_key",
    "calibration_fingerprint",
]
