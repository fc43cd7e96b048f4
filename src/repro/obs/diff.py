"""Differential comparison of two runs (``bench diff <a> <b>``).

Takes two saved run files of one kind and produces a delta table ranked
by regression magnitude:

- trajectories (``BENCH_results.json``, or any ``bench ... --json``) diff
  point by point, keyed by artifact, kernel and parameters, so each
  engine's point is a row of its own::

      fig10/mpi_collective/n_ranks=8,opcode=allreduce,size=1024
          33.0 -> 36.3 us (+10.0%, +3.3 us)

- the JSON written by ``bench trace --json`` / ``bench critpath --json``
  diffs op by op, each row carrying a wait-cause attribution of its
  delta::

      figX_scale/collective:bcast#0  210.4 -> 455.1 us (+116.3%, +244.7 us)
          +110.2% wire, +5.9% wait:link_busy

Two identical runs diff to zero rows.  The same ranking (:func:`_cause_deltas`)
powers ``bench check``'s failure output (:func:`render_check_attribution`):
when the regression gate trips on a scenario, the ranked deltas of its
``wait_us.*`` / ``phase_us.*`` metrics print next to the bare number.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: relative change below which two values count as identical (float noise
#: across platforms; deterministic sims produce exact zeros anyway).
IDENTICAL_REL = 1e-9

DIFF_SCHEMA = 1

#: the ``bench check`` metrics that attribute a scenario's wall time
_CHECK_CAUSES = ("wait_us.", "phase_us.")


# ---------------------------------------------------------------------------
# Normalized run loading
# ---------------------------------------------------------------------------

def _point_us(point: Dict[str, Any]) -> float:
    """A point's time in microseconds: its value when the kernel returns
    one latency (seconds), else the simulated seconds the point advanced
    (breakdowns, app results and tables are dicts or lists)."""
    value = point["value"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * 1e6
    return point["sim_s"] * 1e6


def _entries_from_trajectory(doc: Dict[str, Any],
                             label: str) -> Dict[str, Dict[str, Any]]:
    """Normalize a trajectory: one entry per executed point, keyed
    ``artifact/kernel/name=value,...`` (parameters sorted by name)."""
    entries: Dict[str, Dict[str, Any]] = {}
    for artifact, art in doc["artifacts"].items():
        for point in art.get("points", []):
            if point.get("skipped"):
                continue
            key = f"{artifact}/{point['kernel']}"
            if point["params"]:
                key += "/" + ",".join(f"{name}={value}" for name, value
                                      in sorted(point["params"].items()))
            if "value" not in point:
                raise ValueError(
                    f"{label or 'trajectory'}: {key} has no recorded value "
                    "(written before trajectories carried values); re-run "
                    "it to diff")
            entries[key] = {"wall_us": _point_us(point), "crit_us": {}}
    return entries


def _entries_from_ops(doc: Dict[str, Any],
                      label: str) -> Dict[str, Dict[str, Any]]:
    """Normalize a trace/critpath JSON (``{"artifact", "ops": [...]}``),
    each op an :func:`~repro.obs.export.attribute_op` report whose
    critical-path ``totals`` are the buckets a delta is attributed to.

    Ops are keyed by ``artifact/name#occurrence`` — stable across two runs
    of the same deterministic scenario regardless of op-id allocation.
    """
    artifact = doc.get("artifact", "?")
    entries: Dict[str, Dict[str, Any]] = {}
    seen: Dict[str, int] = {}
    for op in doc.get("ops", []):
        name = op.get("name", "?")
        index = seen.get(name, 0)
        seen[name] = index + 1
        key = f"{artifact}/{name}#{index}"
        buckets = op.get("totals")
        if buckets is None:
            raise ValueError(
                f"{label or 'trace'}: {key} has no critical-path totals "
                "(written before trace JSONs carried them); re-run it to "
                "diff")
        entries[key] = {
            "wall_us": op.get("wall_s", 0.0) * 1e6,
            "crit_us": {bucket: seconds * 1e6
                        for bucket, seconds in buckets.items()},
            "incomplete": bool(op.get("incomplete")),
        }
    return entries


def normalize_run(doc: Dict[str, Any], label: str = "") -> Dict[str, Any]:
    """Shape any supported run document as ``{"kind", "label", "entries"}``."""
    if "artifacts" in doc:
        return {"kind": "trajectory", "label": label,
                "entries": _entries_from_trajectory(doc, label)}
    if "ops" in doc:
        return {"kind": "trace", "label": label,
                "entries": _entries_from_ops(doc, label)}
    raise ValueError(
        f"{label or 'run document'}: neither a trajectory (no 'artifacts') "
        "nor a trace/critpath JSON (no 'ops')")


def load_run(path: str) -> Dict[str, Any]:
    """Load and normalize one run file (trajectory or trace/critpath JSON)."""
    with open(path) as fh:
        doc = json.load(fh)
    return normalize_run(doc, label=path)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

def _cause_deltas(base: Dict[str, float], cur: Dict[str, float],
                  ref_us: float) -> List[Dict[str, Any]]:
    """Per-bucket deltas sorted by magnitude; share is relative to the
    reference wall time (so the shares of a +12% regression read as
    '+9.3% of the baseline time went to credit_stall')."""
    out = []
    for bucket in sorted(set(base) | set(cur)):
        delta = cur.get(bucket, 0.0) - base.get(bucket, 0.0)
        if abs(delta) <= IDENTICAL_REL * max(abs(ref_us), 1.0):
            continue
        out.append({
            "bucket": bucket,
            "delta_us": delta,
            "share": delta / ref_us if ref_us else 0.0,
        })
    out.sort(key=lambda c: (-abs(c["delta_us"]), c["bucket"]))
    return out


def _magnitude(delta_us: float) -> float:
    """|delta| to 12 significant digits: magnitudes that differ only by
    float noise (1.0 vs 0.9999999999999929 us) rank as equal."""
    return float(f"{abs(delta_us):.12g}")


def diff_runs(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Delta rows between two normalized runs, ranked by regression
    magnitude (absolute sim-time delta, regressions before improvements
    at equal magnitude).  Identical entries produce no row."""
    rows: List[Dict[str, Any]] = []
    ea, eb = a["entries"], b["entries"]
    for key in sorted(set(ea) | set(eb)):
        base, cur = ea.get(key), eb.get(key)
        if base is None or cur is None:
            present = cur or base
            rows.append({
                "key": key,
                "base_us": None if base is None else base["wall_us"],
                "cur_us": None if cur is None else cur["wall_us"],
                "delta_us": present["wall_us"] * (1 if base is None else -1),
                "rel": None,
                "causes": [],
                "note": "only in b" if base is None else "only in a",
                "incomplete": present.get("incomplete", False),
            })
            continue
        base_us, cur_us = base["wall_us"], cur["wall_us"]
        delta = cur_us - base_us
        ref = abs(base_us) or 1.0
        if abs(delta) <= IDENTICAL_REL * max(ref, 1.0):
            continue
        rows.append({
            "key": key,
            "base_us": base_us,
            "cur_us": cur_us,
            "delta_us": delta,
            "rel": delta / base_us if base_us else None,
            "causes": _cause_deltas(base["crit_us"], cur["crit_us"],
                                    base_us or 1.0),
            "note": "",
            "incomplete": (base.get("incomplete", False)
                           or cur.get("incomplete", False)),
        })
    rows.sort(key=lambda r: (-_magnitude(r["delta_us"]),
                             -(r["delta_us"] > 0), r["key"]))
    return rows


def diff_files(path_a: str, path_b: str) -> Dict[str, Any]:
    """Full diff document between two run files."""
    a, b = load_run(path_a), load_run(path_b)
    if a["kind"] != b["kind"]:
        raise ValueError(f"{path_a} is a {a['kind']} and {path_b} a "
                         f"{b['kind']}: their keys never match")
    rows = diff_runs(a, b)
    return {
        "schema": DIFF_SCHEMA,
        "a": path_a,
        "b": path_b,
        "kind": a["kind"],
        "entries_a": len(a["entries"]),
        "entries_b": len(b["entries"]),
        "rows": rows,
        "identical": not rows,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_rel(rel: Optional[float]) -> str:
    return "-" if rel is None else f"{rel * 100:+.1f}%"


def _causes_text(causes: List[Dict[str, Any]], limit: int = 4) -> str:
    return ", ".join(f"{c['share'] * 100:+.1f}% {c['bucket']}"
                     for c in causes[:limit])


def render_diff(doc: Dict[str, Any], limit: int = 20) -> str:
    """Ranked delta table plus per-row cause attribution lines."""
    rows = doc["rows"]
    head = (f"diff {doc['a']} -> {doc['b']} "
            f"[{doc['kind']}: {doc['entries_a']} vs {doc['entries_b']} "
            "entries]")
    if not rows:
        return head + "\nidentical: no deltas"
    lines = [head,
             f"{len(rows)} delta(s), ranked by regression magnitude:"]
    for rank, row in enumerate(rows[:limit], 1):
        base = "-" if row["base_us"] is None else f"{row['base_us']:,.1f}"
        cur = "-" if row["cur_us"] is None else f"{row['cur_us']:,.1f}"
        note = f" [{row['note']}]" if row["note"] else ""
        flag = " [INCOMPLETE]" if row.get("incomplete") else ""
        lines.append(
            f"{rank:>3}. {row['key']}  {base} -> {cur} us "
            f"({_fmt_rel(row['rel'])}, {row['delta_us']:+,.1f} us)"
            f"{note}{flag}")
        causes = _causes_text(row["causes"])
        if causes:
            lines.append(f"       {causes}")
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more row(s) elided "
                     "(see --json for all)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bench check failure attribution
# ---------------------------------------------------------------------------

def metric_delta_attribution(base_metrics: Dict[str, float],
                             cur_metrics: Dict[str, float],
                             ) -> List[Dict[str, Any]]:
    """Causal attribution of a scenario-level wall-time delta from the
    flat metric dicts ``bench check`` collects: the :func:`_cause_deltas`
    ranking of every ``wait_us.*`` / ``phase_us.*`` metric, each delta a
    share of the baseline wall."""
    def causes(metrics: Dict[str, float]) -> Dict[str, float]:
        return {metric: value for metric, value in metrics.items()
                if metric.startswith(_CHECK_CAUSES)}

    return _cause_deltas(causes(base_metrics), causes(cur_metrics),
                         base_metrics.get("wall_us", 0.0) or 1.0)


def render_check_attribution(scenario: str,
                             base_metrics: Dict[str, float],
                             cur_metrics: Dict[str, float],
                             limit: int = 4) -> str:
    """One causal-diff line for a failing ``bench check`` scenario."""
    base_wall = base_metrics.get("wall_us", 0.0)
    cur_wall = cur_metrics.get("wall_us", 0.0)
    rel = ((cur_wall - base_wall) / base_wall * 100) if base_wall else 0.0
    causes = metric_delta_attribution(base_metrics, cur_metrics)
    head = (f"  {scenario}: wall {base_wall:,.1f} -> {cur_wall:,.1f} us "
            f"({rel:+.1f}%): ")
    if not causes:
        return (head + "no wait/phase metric moved — check the event, "
                "span and gauge counts")
    return head + _causes_text(causes, limit)
