"""The artifact registry: every evaluation artifact, declared once.

An :class:`Artifact` binds a name to its ``harness.run_*`` function, the
renderer that turns the result into the printed table, its ``--quick``
slice, the flow-vs-packet tolerance ``validate-fidelity`` allows, and the
optional traced scenario (:mod:`repro.obs.capture`) that ``trace``,
``critpath``, ``check`` and ``validate-fidelity --explain`` replay.  Every
``python -m repro.bench`` subcommand iterates :data:`ARTIFACTS` or
:data:`SCENARIOS`, so adding or gating an artifact is one declaration here
plus its ``harness.run_*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro import units
from repro.bench import harness
from repro.bench.formats import format_rows, format_series
from repro.obs import capture


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: how to run it, print it, shrink it and trace it."""

    name: str
    #: ``harness.run_*``, called as ``run(runner=..., **kwargs)``
    run: Callable[..., Any]
    #: the run's result -> the printed table
    render: Callable[[Any], str]
    #: ``--quick`` keyword overrides for :attr:`run`; empty = full size
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: max relative flow-vs-packet deviation; 0.0 means bit-identical
    tolerance: float = 0.0
    #: traced replay of a representative scenario, if the artifact has one
    scenario: Optional[Callable[..., capture.TraceCapture]] = None

    def kwargs(self, quick: bool = False) -> Dict[str, Any]:
        """:attr:`run`'s kwargs: the ``--quick`` slice, or none."""
        return dict(self.quick) if quick else {}


def _rows(columns, title: str) -> Callable[[Any], str]:
    return lambda rows: format_rows(rows, columns, title=title)


def _collectives(title: str) -> Callable[[Any], str]:
    """``{collective: {size: (accl_us, mpi_us)}}`` as one ratio table."""

    def render(result) -> str:
        rows = [{"collective": opcode, "size": size, "accl_us": accl,
                 "mpi_us": mpi, "ratio": accl / mpi}
                for opcode, by_size in result.items()
                for size, (accl, mpi) in by_size.items()]
        return format_rows(
            rows, ["collective", "size", "accl_us", "mpi_us", "ratio"],
            title=title)

    return render


def _render_fig13(result) -> str:
    rows = [{"collective": opcode, "size": size, **vals}
            for opcode, by_size in result.items()
            for size, vals in by_size.items()]
    return format_rows(
        rows, ["collective", "size", "accl+_f2f_us", "accl_v1_us",
               "mpi_tcp_us", "accl+_h2h_us"],
        title="Figure 13 — TCP on XRT, 4 ranks (us)")


def _render_fig17(result) -> str:
    return "\n\n".join([
        format_rows(result["cpu"], ["batch", "latency_ms", "throughput"],
                    title="Figure 17 — CPU baseline"),
        format_rows([result["accl"]],
                    ["latency_us", "p99_us", "throughput", "correct"],
                    title="Figure 17 — ACCL+ DLRM on 10 FPGAs"),
    ])


#: name -> declaration, in ``bench all`` order.  The ``--quick`` slices
#: are small enough for a CI smoke run.  Tolerances: artifacts with
#: no multi-segment traffic must be bit-identical across fidelities;
#: wire-bound ones cover the documented flow approximations (collapsed
#: RDMA WRITE landings, the one-sub-burst fallback residue).
ARTIFACTS: Dict[str, Artifact] = {a.name: a for a in (
    Artifact("fig07", harness.run_fig07_sendrecv_throughput,
             _rows(["size", "accl_f2f_gbps", "accl_h2h_gbps",
                    "mpi_rdma_gbps"],
                   "Figure 7 — send/recv throughput (Gb/s)"),
             quick={"sizes": (64 * units.KIB, units.MIB, 16 * units.MIB)},
             # idle paths exact; the n_msgs=4 contended point carries a
             # one-sub-burst fallback-boundary residue
             tolerance=1e-3, scenario=capture.trace_fig07),
    Artifact("fig08", harness.run_fig08_invocation_latency,
             _rows(["caller", "latency_us"],
                   "Figure 8 — invocation latency (us)"),
             # NOP invocations never segment
             tolerance=0.0, scenario=capture.trace_fig08),
    Artifact("fig09", harness.run_fig09_f2f_breakdown,
             _rows(["size", "pcie_in", "collective", "pcie_out",
                    "invocation", "total"],
                   "Figure 9 — MPI F2F broadcast breakdown (us)"),
             # PCIe legs exact, the bcast itself approximate
             tolerance=2e-3),
    Artifact("fig10", harness.run_fig10_f2f_collectives,
             _collectives("Figure 10 — F2F collectives, 8 ranks (us)"),
             # RDMA landing collapse
             tolerance=5e-3, scenario=capture.trace_allreduce),
    Artifact("fig11", harness.run_fig11_h2h_collectives,
             _collectives("Figure 11 — H2H collectives, 8 ranks (us)"),
             # PCIe-staged chunks, a handshake each; flow matches packet
             # to float rounding (max_rel ~1e-14)
             tolerance=1e-2),
    Artifact("fig12", harness.run_fig12_reduce_scalability,
             lambda series: format_series(
                 series, "ranks",
                 title="Figure 12 — reduce latency vs ranks (us)"),
             tolerance=5e-3, scenario=capture.trace_fig12),
    Artifact("fig13", harness.run_fig13_tcp_xrt, _render_fig13,
             # every TCP message sits below the flow admission floor, so
             # flow runs the packet loop; the bound is headroom
             tolerance=1e-2),
    Artifact("fig16", harness.run_fig16_vecmat,
             _rows(["fc_size", "ranks", "backend", "compute_us",
                    "reduce_us", "speedup", "correct"],
                   "Figure 16 — distributed vector-matrix multiplication"),
             quick={"sizes": (2048, 4096)},
             # analytic compute + reduce
             tolerance=5e-3),
    Artifact("fig17", harness.run_fig17_dlrm, _render_fig17,
             tolerance=5e-3),
    Artifact("figX_scale", harness.run_figX_scale,
             _rows(["nodes", "collective", "algorithm", "size", "time_us",
                    "busbw_gbps"],
                   "Figure X — collective completion vs cluster size "
                   "(fat-tree)"),
             # two small node counts at a size below the fast-forward floor
             quick={"node_counts": (8, 16), "size": 2 * units.MIB},
             # 16 MiB messages sit above the fast-forward floor, so the
             # whole-message algorithms take the analytic path
             tolerance=1e-2, scenario=capture.trace_figX_scale),
    Artifact("tab01", harness.run_tab01_algorithm_table,
             _rows(["collective", "eager", "rndz_small", "rndz_large"],
                   "Table 1 — algorithm selection")),
    Artifact("tab02", harness.run_tab02_dlrm_config,
             _rows(["Tables", "Concat Vec Len", "FC Layers", "Embed Size"],
                   "Table 2 — target recommendation model")),
    Artifact("tab03", harness.run_tab03_resources,
             _rows(["component", "CLB kLUT", "DSP", "BRAM", "URAM"],
                   "Table 3 — resource utilization (% of U55C)")),
)}

#: traced scenarios by name: each artifact's, plus ``allreduce`` — the
#: bare cluster-wide allreduce that fig10 replays, which ``bench check``
#: gates under its own name.
SCENARIOS: Dict[str, Callable[..., capture.TraceCapture]] = {
    "allreduce": capture.trace_allreduce,
    **{name: a.scenario for name, a in ARTIFACTS.items() if a.scenario},
}
