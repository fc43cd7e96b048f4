#!/usr/bin/env python
"""CI checker for exported Chrome traces.

Usage::

    python scripts/check_trace.py trace.json [breakdown.json]

Validates the trace-event schema (`repro.obs.export.validate_chrome_trace`)
and then asserts the structural properties the observability layer
promises: at least one collective root span, nested phase spans parented
under a root, per-node process metadata, and no unclosed or dropped spans.
With a second argument (the ``bench trace <artifact> --json`` output) it
also asserts phase attribution: every op's phase buckets sum to its wall
sim-time and its fractions sum to one.  Exits non-zero with a diagnostic
on any violation.
"""

from __future__ import annotations

import json
import sys

from repro.obs.export import PHASE_PRIORITY, validate_chrome_trace


def check(path: str) -> int:
    with open(path) as fh:
        doc = json.load(fh)

    problems = validate_chrome_trace(doc)
    for p in problems:
        print(f"schema: {p}")

    events = doc.get("traceEvents", [])
    xs = [e for e in events if e.get("ph") == "X"]
    roots = [e for e in xs if e.get("cat") == "collective"]
    phased = [e for e in xs if e.get("cat") in PHASE_PRIORITY]
    nested = [e for e in phased if "parent" in e.get("args", {})]
    process_names = [e for e in events
                     if e.get("ph") == "M" and e.get("name") == "process_name"]

    if not roots:
        problems.append("no collective root spans")
    if not phased:
        problems.append("no phase spans (uc/dmp/poe/wire)")
    if phased and not nested:
        problems.append("phase spans exist but none is parented to a root")
    if not process_names:
        problems.append("no process_name metadata (Perfetto tracks unlabeled)")
    root_ops = {e["args"].get("op") for e in roots}
    orphan_ops = {e["args"].get("op") for e in nested} - root_ops
    if orphan_ops:
        problems.append(f"phase spans for ops without roots: {orphan_ops}")

    other = doc.get("otherData", {})
    for key in ("unclosed", "spans_dropped"):
        if other.get(key, 0):
            problems.append(f"otherData.{key} = {other[key]} (truncated trace)")

    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"trace ok: {len(roots)} collectives, {len(phased)} phase spans "
          f"({len(nested)} nested), {len(process_names)} node tracks")
    return 0


def check_breakdown(path: str) -> int:
    """Assert phase attribution sums in a ``bench trace --json`` document."""
    with open(path) as fh:
        doc = json.load(fh)

    problems = []
    ops = doc.get("ops", [])
    if not ops:
        problems.append("breakdown has no ops")
    for op in ops:
        wall = op.get("wall_s", 0.0)
        tol = 1e-9 * max(abs(wall), 1e-12)
        phase_sum = sum(op.get("phases", {}).values())
        if abs(phase_sum - wall) > tol:
            problems.append(
                f"op {op.get('op_id')}: phases sum to {phase_sum!r}, "
                f"wall is {wall!r}")
        frac_sum = sum(op.get("fractions", {}).values())
        if wall > 0 and abs(frac_sum - 1.0) > 1e-9:
            problems.append(
                f"op {op.get('op_id')}: fractions sum to {frac_sum!r}")

    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"breakdown ok: {len(ops)} ops, phase sums match wall sim-time")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        raise SystemExit(2)
    rc = check(sys.argv[1])
    if rc == 0 and len(sys.argv) == 3:
        rc = check_breakdown(sys.argv[2])
    raise SystemExit(rc)
