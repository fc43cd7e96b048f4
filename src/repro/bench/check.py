"""Metrics-backed regression gate (``bench check``).

Replays the traced scenarios (:mod:`repro.obs.capture`) — which are fully
deterministic simulations — and condenses each into a flat metric dict:
the kernel's real and fast-forwarded event counts, span counts, per-phase
and per-wait-cause attributed sim-time, and the engine/link work counters
from the metrics registry.  ``bench check`` compares such a collection
against a committed baseline (``benchmarks/obs_baseline.json``) with
per-metric relative tolerances and exits nonzero on any regression, so
simulated work, observability accounting and simulated performance are
all gated in CI.  The committed baseline gives every integer count a
tolerance of 0: counts repeat exactly, so a change that moves one on
purpose refreshes the baseline in the same change.

Baseline schema (version 2) keeps one scenario section per fidelity mode,
so the gate pins both the packet-exact accounting and the flow-mode
fast-forward accounting::

    {
      "schema": 2,
      "default_tolerance": 0.02,
      "tolerances": {"fig07.wall_us": 0.05, "events": 0.0},
      "modes": {
        "packet": {"fig07": {"ops": 4.0, "wall_us": ..., ...}, ...},
        "flow":   {"fig07": {...}, ...}
      }
    }

Given no scenario names, ``bench check`` replays the scenarios the
baseline holds for the mode.  Tolerance lookup is most-specific-first:
``<scenario>.<metric>``, then ``<metric>``, then ``default_tolerance``.
Refresh with ``python -m repro.bench check --update [--fidelity flow]``
after an intentional change.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.kernel import Environment

DEFAULT_BASELINE = "benchmarks/obs_baseline.json"
DEFAULT_TOLERANCE = 0.02

#: registry gauges summed (over their label sets) into scenario metrics;
#: kernel_events_processed is absent: it is class-global, so ``events`` is
#: taken as the counter's change across each replay instead.
_GAUGE_TOTALS = (
    "uc_commands_executed",
    "dmp_instructions_executed",
    "tx_messages_sent",
    "rx_messages_received",
    "poe_messages_sent",
    "poe_messages_received",
    "rbm_messages_buffered",
    "link_segments_carried",
    "link_flow_decisions",
    "poe_flow_decisions",
)


def collect(scenarios: Sequence[str],
            fidelity: str = "packet") -> Dict[str, Any]:
    """Run the named traced scenarios at *fidelity* and build one mode's
    scenario section (plus the mode tag).

    The fidelity is forced for the collection regardless of
    ``$REPRO_FIDELITY``, so the gate never flaps when a perf run exported
    the other mode in the same shell.
    """
    from repro.network.fidelity import fidelity_override
    from repro.obs import capture

    with fidelity_override(fidelity):
        return _collect(scenarios, fidelity, capture)


def _collect(names, fidelity, capture) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "schema": 2,
        "default_tolerance": DEFAULT_TOLERANCE,
        "tolerances": {},
        "fidelity": fidelity,
        "scenarios": {},
    }
    for name in names:
        events0 = Environment.total_events_processed
        ff0 = Environment.total_events_fast_forwarded
        cap = capture.trace_artifact(name)
        metrics: Dict[str, float] = {
            "events": float(Environment.total_events_processed - events0),
            "events_ff": float(Environment.total_events_fast_forwarded - ff0),
            "ops": float(len(cap.op_ids)),
            "spans": float(len(cap.tracer.completed_spans)),
        }
        wall = 0.0
        phase_us: Dict[str, float] = {}
        wait_us: Dict[str, float] = {}
        for report in cap.breakdowns():
            wall += report["wall_s"]
            for phase, seconds in report["phases"].items():
                phase_us[phase] = phase_us.get(phase, 0.0) + seconds * 1e6
            for cause, seconds in report["wait_observed"].items():
                wait_us[cause] = wait_us.get(cause, 0.0) + seconds * 1e6
        metrics["wall_us"] = wall * 1e6
        for phase, us in sorted(phase_us.items()):
            if us > 0:
                metrics[f"phase_us.{phase}"] = us
        for cause, us in sorted(wait_us.items()):
            if us > 0:
                metrics[f"wait_us.{cause}"] = us
        gauges = cap.obs.registry.snapshot()["gauges"]
        sums: Dict[str, float] = {}
        for key, value in gauges.items():
            base = key.partition("{")[0]
            if base in _GAUGE_TOTALS:
                sums[base] = sums.get(base, 0.0) + float(value)
        metrics.update(sorted(sums.items()))
        doc["scenarios"][name] = metrics
    return doc


def _tolerance(baseline: Dict[str, Any], scenario: str, metric: str,
               default_tol: Optional[float]) -> float:
    tolerances = baseline.get("tolerances", {})
    if f"{scenario}.{metric}" in tolerances:
        return float(tolerances[f"{scenario}.{metric}"])
    if metric in tolerances:
        return float(tolerances[metric])
    if default_tol is not None:
        return default_tol
    return float(baseline.get("default_tolerance", DEFAULT_TOLERANCE))


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            default_tol: Optional[float] = None) -> List[Dict[str, Any]]:
    """Diff *current* against *baseline*; one row per (scenario, metric).

    A row is a regression when ``ok`` is False: the relative deviation
    exceeded the metric's tolerance, or the scenario/metric disappeared.
    """
    rows: List[Dict[str, Any]] = []
    current_scenarios = current.get("scenarios", {})
    for scenario, metrics in sorted(baseline.get("scenarios", {}).items()):
        got = current_scenarios.get(scenario)
        if got is None:
            rows.append({"scenario": scenario, "metric": "*", "base": None,
                         "cur": None, "rel": None, "tol": None, "ok": False,
                         "note": "scenario missing from current run"})
            continue
        for metric, base in sorted(metrics.items()):
            tol = _tolerance(baseline, scenario, metric, default_tol)
            cur = got.get(metric)
            if cur is None:
                rows.append({"scenario": scenario, "metric": metric,
                             "base": base, "cur": None, "rel": None,
                             "tol": tol, "ok": False, "note": "missing"})
                continue
            if base == 0:
                rel = abs(cur)
                ok = rel <= tol
            else:
                rel = abs(cur - base) / abs(base)
                ok = rel <= tol
            rows.append({"scenario": scenario, "metric": metric,
                         "base": base, "cur": cur, "rel": rel, "tol": tol,
                         "ok": ok, "note": ""})
    return rows


def violations(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [row for row in rows if not row["ok"]]


def report_doc(rows: List[Dict[str, Any]], fidelity: str,
               baseline_path: str) -> Dict[str, Any]:
    """Machine-readable check report (``bench check --json``): one record
    per compared metric with observed/baseline/tolerance/verdict, so CI
    can annotate failures without parsing the rendered table."""
    bad = violations(rows)
    return {
        "schema": 1,
        "fidelity": fidelity,
        "baseline": baseline_path,
        "ok": not bad,
        "violations": len(bad),
        "metrics": [
            {
                "scenario": row["scenario"],
                "metric": row["metric"],
                "observed": row["cur"],
                "baseline": row["base"],
                "rel": row["rel"],
                "tolerance": row["tol"],
                "verdict": "ok" if row["ok"] else "fail",
                "note": row["note"],
            }
            for row in rows
        ],
    }


def render_check_table(rows: List[Dict[str, Any]]) -> str:
    """Fixed-width diff table; regressions are flagged with ``FAIL``."""
    lines = [f"{'scenario':<10} {'metric':<36} {'baseline':>14} "
             f"{'current':>14} {'rel':>8} {'tol':>6}  verdict"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        base = "-" if row["base"] is None else f"{row['base']:14.3f}"
        cur = "-" if row["cur"] is None else f"{row['cur']:14.3f}"
        rel = "-" if row["rel"] is None else f"{row['rel'] * 100:7.2f}%"
        tol = "-" if row["tol"] is None else f"{row['tol'] * 100:5.1f}%"
        verdict = "ok" if row["ok"] else ("FAIL " + row["note"]).strip()
        lines.append(f"{row['scenario']:<10} {row['metric']:<36} {base:>14} "
                     f"{cur:>14} {rel:>8} {tol:>6}  {verdict}")
    return "\n".join(lines)


def mode_view(baseline: Dict[str, Any], fidelity: str) -> Dict[str, Any]:
    """One fidelity mode of a (loaded) baseline, shaped for :func:`compare`:
    ``{"default_tolerance", "tolerances", "scenarios"}``."""
    return {
        "default_tolerance": baseline.get("default_tolerance",
                                          DEFAULT_TOLERANCE),
        "tolerances": baseline.get("tolerances", {}),
        "scenarios": baseline.get("modes", {}).get(fidelity, {}),
    }


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def write_baseline(path: str, doc: Dict[str, Any],
                   previous: Optional[Dict[str, Any]] = None) -> None:
    """Fold a :func:`collect` document into the (schema-2) baseline at
    *path*: its scenarios land under their fidelity mode, tolerances and
    modes/scenarios the collection did not re-run carry forward."""
    fidelity = doc.get("fidelity", "packet")
    out: Dict[str, Any] = {
        "schema": 2,
        "default_tolerance": doc.get("default_tolerance",
                                     DEFAULT_TOLERANCE),
        "tolerances": dict(doc.get("tolerances", {})),
        "modes": {},
    }
    if previous is not None:
        out["default_tolerance"] = previous.get(
            "default_tolerance", out["default_tolerance"])
        out["tolerances"] = dict(previous.get("tolerances", {}))
        out["modes"] = {mode: dict(section) for mode, section
                        in previous.get("modes", {}).items()}
    section = out["modes"].setdefault(fidelity, {})
    section.update(doc.get("scenarios", {}))
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
