"""Fidelity validation harness (``bench validate-fidelity``).

Flow-level fast-forward (:mod:`repro.network.fidelity`) is only admissible
if it is *invisible* in the results: every evaluation artifact must
reproduce its packet-fidelity numbers within a tight per-artifact
tolerance.  This module replays artifacts twice — once per fidelity, cold
(no cache), sequential — and recursively diffs the two result trees.

Tolerances are per artifact (:attr:`repro.bench.artifacts.Artifact.tolerance`)
and deliberately asymmetric: artifacts with no multi-segment network
traffic must be **bit-identical** (a nonzero deviation there means the
flow machinery engaged where it has no business engaging); wire-bound
ones allow a small relative tolerance covering the documented flow
approximations.

Exit status is nonzero on any violation, so CI can gate on it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.bench.cache import jsonable
from repro.network.fidelity import fidelity_override
from repro.sim.kernel import Environment


def _compare(a: Any, b: Any, rtol: float, path: str,
             violations: List[str], stats: Dict[str, float]) -> None:
    """Recursive structural diff; numeric leaves compare relatively."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            violations.append(
                f"{path}: key mismatch {sorted(set(a) ^ set(b))}")
            return
        for key in a:
            _compare(a[key], b[key], rtol, f"{path}.{key}",
                     violations, stats)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            violations.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (av, bv) in enumerate(zip(a, b)):
            _compare(av, bv, rtol, f"{path}[{i}]", violations, stats)
        return
    # bool is an int subclass: test it before the numeric branch so
    # correctness flags never pass on mere closeness.
    if isinstance(a, bool) or isinstance(b, bool):
        if a is not b:
            violations.append(f"{path}: {a!r} != {b!r}")
        return
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        stats["leaves"] += 1
        scale = max(abs(a), abs(b))
        if scale < 1e-12:
            return
        rel = abs(a - b) / scale
        if rel > stats["max_rel"]:
            stats["max_rel"] = rel
            stats["max_rel_path"] = path
        if rel > rtol:
            violations.append(
                f"{path}: packet={a!r} flow={b!r} rel={rel:.2e} "
                f"(tol {rtol:.0e})")
        return
    if a != b:
        violations.append(f"{path}: {a!r} != {b!r}")


def _run_fidelity(fn: Callable, kwargs: Dict[str, Any],
                  fidelity: str) -> Tuple[Any, int, int]:
    """One cold, sequential artifact run at *fidelity*."""
    from repro.bench.runner import SweepRunner

    with fidelity_override(fidelity):
        runner = SweepRunner(jobs=1, cache=None)
        events0 = Environment.total_events_processed
        ff0 = Environment.total_events_fast_forwarded
        value = fn(runner=runner, **kwargs)
    return (jsonable(value),
            Environment.total_events_processed - events0,
            Environment.total_events_fast_forwarded - ff0)


def validate_artifact(name: str, quick: bool = False) -> Dict[str, Any]:
    """Replay *name* at both fidelities and diff the result trees."""
    from repro.bench.artifacts import ARTIFACTS

    artifact = ARTIFACTS[name]
    kwargs = artifact.kwargs(quick)
    packet, events_packet, _ = _run_fidelity(artifact.run, kwargs, "packet")
    flow, events_flow, ff_flow = _run_fidelity(artifact.run, kwargs, "flow")
    violations: List[str] = []
    stats: Dict[str, Any] = {"leaves": 0, "max_rel": 0.0,
                             "max_rel_path": ""}
    _compare(packet, flow, artifact.tolerance, name, violations, stats)
    return {
        "artifact": name,
        "quick": quick,
        "tolerance": artifact.tolerance,
        "leaves": stats["leaves"],
        "max_rel": stats["max_rel"],
        "max_rel_path": stats["max_rel_path"],
        "events_packet": events_packet,
        "events_flow": events_flow,
        "events_fast_forwarded": ff_flow,
        "violations": violations,
        "ok": not violations,
    }


def explain_divergence(name: str, top: int = 5) -> Dict[str, Any]:
    """Attribute packet-vs-flow divergence of a *traced* scenario per op,
    per attribution bucket, and per link (``--explain``).

    Replays the artifact's traced scenario (:mod:`repro.obs.capture`) once
    per fidelity, aligns the collectives by position (the replay is
    deterministic, so op ids match), and diffs the critical-path bucket
    totals of :func:`repro.obs.export.attribute_op`.  The synthetic
    ``wire:burst`` spans make the wire bucket attributable to individual
    links in *both* modes, so the per-link table names the hop where the
    analytic model and the per-segment simulation disagree most.
    """
    from repro.obs import capture

    def _reports(mode: str):
        with fidelity_override(mode):
            return capture.trace_artifact(name).breakdowns()

    reps_packet = _reports("packet")
    reps_flow = _reports("flow")
    rows: List[Dict[str, Any]] = []
    links: Dict[str, List[float]] = {}
    wall_packet = sum(r["wall_s"] for r in reps_packet)
    wall_flow = sum(r["wall_s"] for r in reps_flow)
    for rp, rf in zip(reps_packet, reps_flow):
        for bucket in sorted(set(rp["totals"]) | set(rf["totals"])):
            p_us = rp["totals"].get(bucket, 0.0) * 1e6
            f_us = rf["totals"].get(bucket, 0.0) * 1e6
            if p_us or f_us:
                rows.append({
                    "op": rp["op_id"], "name": rp["name"], "bucket": bucket,
                    "packet_us": p_us, "flow_us": f_us,
                    "delta_us": f_us - p_us,
                })
        for rep, idx in ((rp, 0), (rf, 1)):
            for seg in rep["segments"]:
                if seg["bucket"] == "wire" and seg["component"]:
                    links.setdefault(seg["component"], [0.0, 0.0])
                    links[seg["component"]][idx] += seg["dur_s"] * 1e6
    rows.sort(key=lambda r: (-abs(r["delta_us"]), r["op"], r["bucket"]))
    link_rows = sorted(
        ({"link": link, "packet_us": p, "flow_us": f, "delta_us": f - p}
         for link, (p, f) in links.items()),
        key=lambda r: (-abs(r["delta_us"]), r["link"]))
    return {
        "artifact": name,
        "ops": len(reps_packet),
        "wall_packet_us": wall_packet * 1e6,
        "wall_flow_us": wall_flow * 1e6,
        "wall_delta_us": (wall_flow - wall_packet) * 1e6,
        "rows": rows[:top],
        "links": link_rows[:top],
        "top": rows[0] if rows else None,
    }


def render_explanation(report: Dict[str, Any]) -> str:
    """Human-readable ``--explain`` attribution."""
    lines = [
        f"divergence attribution: {report['artifact']} "
        f"({report['ops']} traced ops)",
        f"  wall: packet {report['wall_packet_us']:.3f}us  "
        f"flow {report['wall_flow_us']:.3f}us  "
        f"delta {report['wall_delta_us']:+.3f}us",
    ]
    top = report["top"]
    if top is None:
        lines.append("  no attributable divergence (no nonzero buckets)")
        return "\n".join(lines)
    lines.append(
        f"  top contributor: op {top['op']} ({top['name']}) "
        f"bucket {top['bucket']}: packet {top['packet_us']:.3f}us vs "
        f"flow {top['flow_us']:.3f}us ({top['delta_us']:+.3f}us)")
    lines.append("  per-op buckets (largest |delta| first):")
    for row in report["rows"]:
        lines.append(
            f"    op {row['op']:>3} {row['bucket']:<22} "
            f"packet {row['packet_us']:>12.3f}us  "
            f"flow {row['flow_us']:>12.3f}us  {row['delta_us']:>+10.3f}us")
    if report["links"]:
        lines.append("  per-link critical-path wire time:")
        for row in report["links"]:
            lines.append(
                f"    {row['link']:<26} "
                f"packet {row['packet_us']:>12.3f}us  "
                f"flow {row['flow_us']:>12.3f}us  "
                f"{row['delta_us']:>+10.3f}us")
    return "\n".join(lines)


def render_validation(reports: List[Dict[str, Any]]) -> str:
    """Fixed-width summary table plus any violation details."""
    lines = [f"{'artifact':<9} {'tol':>7} {'max_rel':>10} {'leaves':>7} "
             f"{'ev_packet':>10} {'ev_flow':>9} {'ff':>9}  verdict"]
    lines.append("-" * len(lines[0]))
    for rep in reports:
        verdict = "ok" if rep["ok"] else f"FAIL ({len(rep['violations'])})"
        lines.append(
            f"{rep['artifact']:<9} {rep['tolerance']:>7.0e} "
            f"{rep['max_rel']:>10.2e} {rep['leaves']:>7} "
            f"{rep['events_packet']:>10} {rep['events_flow']:>9} "
            f"{rep['events_fast_forwarded']:>9}  {verdict}")
    for rep in reports:
        for violation in rep["violations"][:20]:
            lines.append(f"  {violation}")
        extra = len(rep["violations"]) - 20
        if extra > 0:
            lines.append(f"  ... and {extra} more in {rep['artifact']}")
    return "\n".join(lines)
