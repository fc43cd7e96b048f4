"""Per-op latency ledger: every collective op, keyed and mergeable.

The sweep runner and the traced scenarios both produce collective
latencies; the ledger is the durable, diffable record of them.  Each
:class:`LedgerEntry` is keyed by ``(artifact, collective, size,
algorithm, nprocs, fidelity)`` and holds

- a sim-latency :class:`~repro.obs.metrics.Histogram` (seconds per op),
- critical-path bucket totals (``wire`` / ``poe`` / ``wait:<cause>`` /
  ``dmp`` / ``uc`` / ``other``) summed over the recorded ops, and
- productive phase totals,

both taken from the shared :func:`~repro.obs.export.attribute_op` sweep,
so an entry's cause totals reconcile exactly with ``phase_breakdown`` and
with the histogram's summed wall sim-time.  Sweep points recorded through
:func:`ledger_from_records` carry the latency histogram only (sweeps
run untraced); traced captures add the wait-cause vectors via
:meth:`OpLedger.record_op`.

Ledgers merge — histograms extend, totals add, flags OR — so the
partial ledgers of ``--shard`` runs fold into one ledger whose totals
are identical to an unsharded run's.  ``bench all`` persists the ledger
alongside ``BENCH_results.json`` (see :func:`ledger_path_for`) and folds
:meth:`OpLedger.summary` into the trajectory; ``bench diff`` consumes
the saved files (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Histogram

LEDGER_SCHEMA = 1

#: ``BENCH_results.json`` gets its ledger as a sibling file.
DEFAULT_LEDGER_OUT = "BENCH_ledger.json"


def entry_key(artifact: str, collective: str, size: int,
              algorithm: Optional[str], nprocs: int, fidelity: str) -> str:
    """Canonical string key of one ledger entry (stable across runs)."""
    return (f"{artifact}/{collective}/{int(size)}B/"
            f"{algorithm or 'auto'}/{int(nprocs)}n/{fidelity}")


class LedgerEntry:
    """Latency distribution + attributed time for one op population."""

    __slots__ = ("artifact", "collective", "size", "algorithm", "nprocs",
                 "fidelity", "latency", "crit_s", "phase_s", "incomplete")

    def __init__(self, artifact: str, collective: str, size: int,
                 algorithm: Optional[str], nprocs: int, fidelity: str):
        self.artifact = artifact
        self.collective = collective
        self.size = int(size)
        self.algorithm = algorithm or "auto"
        self.nprocs = int(nprocs)
        self.fidelity = fidelity
        self.latency = Histogram("op_latency_s")
        self.crit_s: Dict[str, float] = {}
        self.phase_s: Dict[str, float] = {}
        self.incomplete = False

    @property
    def key(self) -> str:
        return entry_key(self.artifact, self.collective, self.size,
                         self.algorithm, self.nprocs, self.fidelity)

    @property
    def count(self) -> int:
        return self.latency.count

    def observe(self, latency_s: float,
                crit_s: Optional[Dict[str, float]] = None,
                phase_s: Optional[Dict[str, float]] = None,
                incomplete: bool = False) -> None:
        self.latency.observe(float(latency_s))
        if crit_s:
            for bucket, seconds in crit_s.items():
                self.crit_s[bucket] = self.crit_s.get(bucket, 0.0) + seconds
        if phase_s:
            for phase, seconds in phase_s.items():
                self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds
        if incomplete:
            self.incomplete = True

    def summary(self) -> Dict[str, Any]:
        """Flat per-entry stats in microseconds (JSON/report friendly)."""
        stats = self.latency.summary()
        out: Dict[str, Any] = {
            "key": self.key,
            "artifact": self.artifact,
            "collective": self.collective,
            "size": self.size,
            "algorithm": self.algorithm,
            "nprocs": self.nprocs,
            "fidelity": self.fidelity,
            "ops": int(stats["count"]),
            "sum_us": stats["sum"] * 1e6,
        }
        for pct in ("mean", "min", "max", "p50", "p99"):
            if pct in stats:
                out[f"{pct}_us"] = stats[pct] * 1e6
        if self.crit_s:
            out["crit_us"] = {b: s * 1e6 for b, s in sorted(self.crit_s.items())}
        if self.phase_s:
            out["phase_us"] = {p: s * 1e6
                               for p, s in sorted(self.phase_s.items())}
        if self.incomplete:
            out["incomplete"] = True
        return out


class OpLedger:
    """Keyed collection of :class:`LedgerEntry`; :meth:`merge` folds in
    another ledger's snapshot."""

    def __init__(self, fidelity: Optional[str] = None):
        if fidelity is None:
            from repro.network.fidelity import default_fidelity

            fidelity = default_fidelity()
        self.fidelity = fidelity
        self.entries: Dict[str, LedgerEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ops(self) -> int:
        return sum(e.count for e in self.entries.values())

    def entry(self, artifact: str, collective: str, size: int,
              algorithm: Optional[str] = None, nprocs: int = 0,
              fidelity: Optional[str] = None) -> LedgerEntry:
        """Get-or-create the entry for one op population."""
        fidelity = fidelity or self.fidelity
        key = entry_key(artifact, collective, size, algorithm, nprocs,
                        fidelity)
        ent = self.entries.get(key)
        if ent is None:
            ent = LedgerEntry(artifact, collective, size, algorithm, nprocs,
                              fidelity)
            self.entries[key] = ent
        return ent

    def observe(self, latency_s: float, *, artifact: str, collective: str,
                size: int, nprocs: int, algorithm: Optional[str] = None,
                fidelity: Optional[str] = None,
                crit_s: Optional[Dict[str, float]] = None,
                phase_s: Optional[Dict[str, float]] = None,
                incomplete: bool = False) -> LedgerEntry:
        """Record one op's latency (and optional attribution vectors)."""
        ent = self.entry(artifact, collective, size, algorithm, nprocs,
                         fidelity)
        ent.observe(latency_s, crit_s=crit_s, phase_s=phase_s,
                    incomplete=incomplete)
        return ent

    def record_op(self, tracer, op_id: int, *, artifact: str, nprocs: int,
                  size: Optional[int] = None,
                  algorithm: Optional[str] = None,
                  fidelity: Optional[str] = None) -> Dict[str, Any]:
        """Record one traced collective via the shared ``attribute_op``
        sweep; the entry's wait-cause totals therefore reconcile exactly
        with ``phase_breakdown`` and the op's wall sim-time.  Returns the
        attribution report."""
        from repro.obs.export import attribute_op

        report = attribute_op(tracer, op_id)
        name = report["name"]
        collective = name.partition(":")[2] or name
        if size is None:
            root = tracer.root_span(op_id)
            detail = dict(root.detail) if root is not None else {}
            size = int(detail.get("nbytes", 0))
        self.observe(report["wall_s"], artifact=artifact,
                     collective=collective, size=size, nprocs=nprocs,
                     algorithm=algorithm, fidelity=fidelity,
                     crit_s=report["totals"], phase_s=report["phases"],
                     incomplete=report.get("incomplete", False))
        return report

    # -- merging (registry idiom: histograms extend, totals add) -----------

    def snapshot(self) -> Dict[str, Any]:
        """Plain picklable/JSON state of the whole ledger."""
        entries: Dict[str, Any] = {}
        for key in sorted(self.entries):
            ent = self.entries[key]
            entries[key] = {
                "artifact": ent.artifact,
                "collective": ent.collective,
                "size": ent.size,
                "algorithm": ent.algorithm,
                "nprocs": ent.nprocs,
                "fidelity": ent.fidelity,
                "latencies": list(ent.latency._values),
                "crit_s": dict(sorted(ent.crit_s.items())),
                "phase_s": dict(sorted(ent.phase_s.items())),
                "incomplete": ent.incomplete,
            }
        return {"schema": LEDGER_SCHEMA, "fidelity": self.fidelity,
                "entries": entries}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (another shard's ledger) into this
        one: latency histograms extend, attributed totals add, the
        incomplete flag ORs."""
        for data in snapshot.get("entries", {}).values():
            ent = self.entry(data["artifact"], data["collective"],
                             data["size"], data.get("algorithm"),
                             data.get("nprocs", 0), data.get("fidelity"))
            ent.latency._values.extend(data.get("latencies", ()))
            for bucket, seconds in data.get("crit_s", {}).items():
                ent.crit_s[bucket] = ent.crit_s.get(bucket, 0.0) + seconds
            for phase, seconds in data.get("phase_s", {}).items():
                ent.phase_s[phase] = ent.phase_s.get(phase, 0.0) + seconds
            if data.get("incomplete"):
                ent.incomplete = True

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> int:
        """Write the ledger as JSON; returns the entry count."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return len(self.entries)

    @classmethod
    def load(cls, path: str) -> "OpLedger":
        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_snapshot(doc)

    @classmethod
    def from_snapshot(cls, doc: Dict[str, Any]) -> "OpLedger":
        ledger = cls(fidelity=doc.get("fidelity", "packet"))
        ledger.merge(doc)
        return ledger

    # -- reporting ----------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """One :meth:`LedgerEntry.summary` row per entry, sorted by key."""
        return [self.entries[key].summary() for key in sorted(self.entries)]

    def summary(self) -> Dict[str, Any]:
        """Per-artifact distribution stats for ``BENCH_results.json``:
        op count and p50/p99 latency (microseconds) per artifact."""
        per_artifact: Dict[str, List[float]] = {}
        for ent in self.entries.values():
            per_artifact.setdefault(ent.artifact, []).extend(
                ent.latency._values)
        artifacts: Dict[str, Any] = {}
        for artifact in sorted(per_artifact):
            values = per_artifact[artifact]
            hist = Histogram("ledger")
            hist._values = values
            artifacts[artifact] = {
                "ops": len(values),
                "p50_us": hist.percentile(50) * 1e6,
                "p99_us": hist.percentile(99) * 1e6,
                "mean_us": hist.mean() * 1e6,
            }
        return {"schema": LEDGER_SCHEMA, "fidelity": self.fidelity,
                "ops": self.ops, "entries": len(self.entries),
                "artifacts": artifacts}


# ---------------------------------------------------------------------------
# Construction from sweep records
# ---------------------------------------------------------------------------

#: point parameter names probed (in order) for each ledger key field.
_COLLECTIVE_PARAMS = ("opcode",)
_NPROCS_PARAMS = ("n_nodes", "n_ranks", "ranks")
_SIZE_PARAMS = ("size", "nbytes")


def ledger_from_records(records, fidelity: Optional[str] = None) -> OpLedger:
    """Build a ledger from :class:`~repro.bench.runner.PointResult` records.

    Every record whose value is a plain latency (a float, seconds) and
    whose parameters name a collective becomes one observation; dict- or
    list-valued kernels (breakdown tables, app results) are skipped.
    Cached and merged shard records carry the same values as fresh ones,
    so a warm, sharded, or ``bench merge`` run produces a ledger with
    totals identical to a cold unsharded run.
    """
    ledger = OpLedger(fidelity=fidelity)
    for rec in records:
        if getattr(rec, "skipped", False):
            continue
        value = rec.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        params = rec.point.kwargs()
        collective = next((params[p] for p in _COLLECTIVE_PARAMS
                           if p in params), None)
        if collective is None:
            if rec.point.kernel in ("accl_p2p", "mpi_p2p"):
                collective = "sendrecv"
            else:
                continue
        nprocs = next((params[p] for p in _NPROCS_PARAMS if p in params), 0)
        size = next((params[p] for p in _SIZE_PARAMS if p in params), 0)
        ledger.observe(float(value), artifact=rec.point.artifact,
                       collective=str(collective), size=int(size),
                       nprocs=int(nprocs),
                       algorithm=params.get("algorithm"))
    return ledger


def ledger_path_for(json_out: str) -> str:
    """The ledger file persisted alongside a trajectory JSON:
    ``BENCH_results.json`` maps to ``BENCH_ledger.json``; any other
    ``X.json`` maps to ``X_ledger.json``."""
    import os.path

    head, tail = os.path.split(json_out)
    if tail == "BENCH_results.json":
        return os.path.join(head, DEFAULT_LEDGER_OUT)
    stem = tail[:-5] if tail.endswith(".json") else tail
    return os.path.join(head, f"{stem}_ledger.json")
