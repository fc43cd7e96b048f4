"""Profiling harness: artifact profiles and the ``perf`` trajectory block.

Each profile reports wall seconds beside the kernel's exact work counts:
real events (dispatched by the kernel) and fast-forwarded events (segments
a flow-fidelity run carried analytically), kept apart, plus ns per *real*
event.  Calibrated, per-layer host time lives in ``perfbench/``.

- *artifact profiles* — run a real evaluation artifact (``fig07`` …),
  optionally with :mod:`cProfile` and :mod:`tracemalloc` attached;
- the *scale profile* — construction memory and one flow-fidelity
  allreduce on a 1024-host fat tree;
- the ``perf`` section of ``BENCH_results.json`` — written by
  ``python -m repro.bench all`` via :func:`perf_section`.

CLI::

    python -m repro.bench profile fig07            # full artifact profile
    python -m repro.bench profile fig07 --quick    # reduced sweep, CI-sized
    python -m repro.bench profile scale --per-node # 1024-node footprint
    python -m repro.bench profile fig16 --profile-out fig16.pstats --memory
"""

from __future__ import annotations

import cProfile
import gc
import time
import tracemalloc
from typing import Any, Callable, Dict, Optional

from repro import units
from repro.sim.kernel import Environment


def measure(fn: Callable[[], Any], label: str = "run") -> Dict[str, Any]:
    """Run *fn* and report wall time beside the kernel's event counters.

    ``events`` counts what the kernel dispatched and ``events_ff`` what a
    flow-fidelity run fast-forwarded; ``ns_per_event`` divides wall time by
    real events only.  The counters are class-wide on
    :class:`~repro.sim.kernel.Environment`, so everything the callable
    simulates — across any number of environments — is accounted.
    """
    events0 = Environment.total_events_processed
    ff0 = Environment.total_events_fast_forwarded
    sim0 = Environment.total_sim_time
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    events = Environment.total_events_processed - events0
    report = {
        "label": label,
        "wall_s": wall,
        "events": events,
        "events_ff": Environment.total_events_fast_forwarded - ff0,
        "sim_s": Environment.total_sim_time - sim0,
        "ns_per_event": wall / events * 1e9 if events else 0.0,
    }
    return {"report": report, "value": value}


# ---------------------------------------------------------------------------
# cluster-scale profile (``profile scale``)
# ---------------------------------------------------------------------------

#: the headline scale configuration: a 1024-host fat-tree (k=16)
SCALE_NODES = 1024
#: allreduce payload for the scale run — above the flow-mode fast-forward
#: admission floor, so the collective exercises the analytic path
SCALE_ALLREDUCE_BYTES = 16 * units.MIB


def profile_scale(nodes: int = SCALE_NODES, quick: bool = False,
                  per_node: bool = False) -> Dict[str, Any]:
    """Construction footprint + one flow-fidelity allreduce at scale.

    Builds a ``nodes``-host fat tree under ``tracemalloc`` (the
    construction cost the memory-lean refactor targets), then runs one
    16 MiB ``reduce_bcast`` allreduce across all hosts at flow fidelity.
    ``per_node`` adds the figures that ``bench profile scale
    --per-node`` commits to the perf section of ``BENCH_results.json``:
    ``bytes_per_node`` for construction and ``run_bytes_per_node`` for
    the run-time state (TLB mappings, lazily peered queue pairs, cached
    flow-control returns) that one untimed allreduce leaves on the built
    cluster.
    The timed allreduce runs on a fresh cluster without ``tracemalloc``.
    """
    from repro.bench.harness import accl_collective_time, \
        scale_topology_factory
    from repro.cluster import build_fpga_cluster
    from repro.network.fidelity import fidelity_override

    if quick:
        nodes = min(nodes, 128)
    factory = scale_topology_factory("fattree", nodes)

    def builder(n, **kw):
        return build_fpga_cluster(n, topology_factory=factory, **kw)

    def run_allreduce(cluster_builder) -> float:
        return accl_collective_time(
            "allreduce", SCALE_ALLREDUCE_BYTES, n_nodes=nodes,
            sync_protocol="rndz", algorithm="reduce_bcast",
            cluster_builder=cluster_builder)

    with fidelity_override("flow"):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        cluster = builder(nodes, protocol="rdma", platform="coyote")
        build_s = time.perf_counter() - t0
        built, _ = tracemalloc.get_traced_memory()
        if per_node:
            run_allreduce(lambda *_, **__: cluster)
            gc.collect()
            ran, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        build_bytes = built - base
        del cluster
        measured = measure(lambda: run_allreduce(builder),
                           f"scale-allreduce-{nodes}")
    allreduce = measured["report"]
    allreduce.update(size=SCALE_ALLREDUCE_BYTES, algorithm="reduce_bcast",
                     fidelity="flow", time_s=measured["value"])

    report: Dict[str, Any] = {
        "artifact": "scale",
        "quick": quick,
        "nodes": nodes,
        "build_s": build_s,
        "build_bytes": build_bytes,
        "allreduce": allreduce,
    }
    if per_node:
        report["bytes_per_node"] = build_bytes / nodes
        report["run_bytes_per_node"] = (ran - built) / nodes
    return report


def record_scale_block(report: Dict[str, Any],
                       json_out: str = "BENCH_results.json") -> bool:
    """Fold a scale profile into *json_out*'s ``perf`` section.

    Returns False (and writes nothing) when the trajectory file does not
    exist yet — the scale block rides on a previously generated
    ``BENCH_results.json``, it never creates one.
    """
    import json

    try:
        with open(json_out) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return False
    perf = doc.setdefault("perf", {})
    perf["scale"] = {
        key: report[key]
        for key in ("nodes", "build_s", "build_bytes",
                    "bytes_per_node", "run_bytes_per_node", "allreduce")
        if key in report
    }
    with open(json_out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return True


def profile_artifact(
    name: str,
    quick: bool = False,
    profile_out: Optional[str] = None,
    memory: bool = False,
    per_node: bool = False,
) -> Dict[str, Any]:
    """Profile one artifact (or ``"scale"`` for :func:`profile_scale`).

    Returns a :func:`measure` report, plus optional ``memory``
    (tracemalloc current/peak) and ``profile_out`` (pstats dump path)
    entries.
    """
    from repro.bench.artifacts import ARTIFACTS
    from repro.bench.runner import SweepRunner

    if name == "scale":
        return profile_scale(quick=quick, per_node=per_node)

    artifact = ARTIFACTS[name]
    kwargs = artifact.kwargs(quick)
    runner = SweepRunner(jobs=1, cache=None)  # profiling wants cold points

    profiler = cProfile.Profile() if profile_out else None
    if memory:
        tracemalloc.start()
    if profiler:
        profiler.enable()
    try:
        measured = measure(
            lambda: artifact.run(runner=runner, **kwargs), name)
    finally:
        if profiler:
            profiler.disable()
        if memory:
            mem_current, mem_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    report = measured["report"]
    report.update(artifact=name, quick=quick, points=len(runner.records))
    if memory:
        report["memory"] = {"current_bytes": mem_current,
                            "peak_bytes": mem_peak}
    if profiler:
        profiler.dump_stats(profile_out)
        report["profile_out"] = profile_out
    return report


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def perf_section(records, wall_s: float) -> Dict[str, Any]:
    """The ``perf`` block of ``BENCH_results.json`` for a finished sweep."""
    from repro.network.fidelity import default_fidelity

    events = sum(r.events for r in records if not r.cached)
    run_wall = sum(r.wall_s for r in records if not r.cached)
    return {
        "wall_s": wall_s,
        "fidelity": default_fidelity(),
        "events": events,
        "events_ff": sum(r.events_ff for r in records if not r.cached),
        "ns_per_event": run_wall / events * 1e9 if events else 0.0,
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`profile_artifact` report."""
    lines = []
    if report.get("artifact") == "scale":
        nodes = report["nodes"]
        lines.append(
            f"scale (fattree, {nodes} nodes"
            + (", --quick" if report.get("quick") else "") + ")")
        lines.append(
            f"  cluster build: {report['build_s']:.2f}s, "
            f"{report['build_bytes'] / 2**20:.1f} MiB tracemalloc delta")
        if "bytes_per_node" in report:
            lines.append(
                f"  bytes/node: {report['bytes_per_node'] / 1024:.1f} KiB "
                f"built, {report['run_bytes_per_node'] / 1024:.1f} KiB "
                "more after one allreduce")
        ar = report["allreduce"]
        lines.append(
            f"  allreduce {units.pretty_size(ar['size'])} "
            f"({ar['algorithm']}, fidelity={ar['fidelity']}): "
            f"sim {ar['time_s'] * 1e3:.2f} ms in {ar['wall_s']:.1f}s wall, "
            f"{ar['events']} events (+{ar['events_ff']} fast-forwarded), "
            f"{ar['ns_per_event']:.0f} ns/event")
        return "\n".join(lines)

    lines.append(
        f"{report['artifact']}"
        + (" (--quick)" if report.get("quick") else "")
        + f": {report['points']} points, {report['events']} events in "
        f"{report['wall_s']:.2f}s wall / {report['sim_s']:.4f}s simulated")
    rate_line = f"  {report['ns_per_event']:.0f} ns/event"
    if report.get("events_ff"):
        rate_line += (f" (+{report['events_ff']} fast-forwarded events, "
                      f"fidelity=flow)")
    lines.append(rate_line)
    mem = report.get("memory")
    if mem:
        lines.append(f"  tracemalloc peak {mem['peak_bytes']/1e6:.1f} MB "
                     f"(current {mem['current_bytes']/1e6:.1f} MB)")
    if report.get("profile_out"):
        lines.append(f"  pstats written to {report['profile_out']} "
                     f"(inspect: python -m pstats {report['profile_out']})")
    return "\n".join(lines)
