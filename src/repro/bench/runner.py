"""Parallel, cached execution of benchmark sweeps.

Every evaluation artifact decomposes into independent :class:`SweepPoint`
work items — one hermetic simulated cluster per point — so a sweep
parallelizes trivially across a :class:`~concurrent.futures.ProcessPoolExecutor`.
:class:`SweepRunner` fans points out (``jobs > 1``), memoizes results
through :class:`~repro.bench.cache.ResultCache`, and records per-point
wall-clock, simulated time and event counts for the ``BENCH_results.json``
trajectory artifact.

Point *kernels* are plain functions registered under a string name with
:func:`point_kernel`; a point carries only its kernel name plus primitive
parameters, so it pickles cleanly into worker processes.  Workers import
:mod:`repro.bench.harness` lazily to (re-)populate the registry.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.cache import ResultCache, jsonable, point_key

#: kernel-name -> callable; populated by :func:`point_kernel` decorators
#: when :mod:`repro.bench.harness` is imported.
KERNELS: Dict[str, Callable] = {}


def point_kernel(name: str) -> Callable[[Callable], Callable]:
    """Register a picklable sweep kernel under *name*."""

    def decorate(fn: Callable) -> Callable:
        KERNELS[name] = fn
        return fn

    return decorate


def _worker_warmup() -> None:
    """Pool initializer: pay per-process start-up cost once per worker.

    Importing the harness pulls in numpy and every artifact module
    (populating :data:`KERNELS`), and the calibration fingerprint hashes
    the whole source tree; both are memoized per process.  Without this
    initializer each worker paid those costs inside its first
    :func:`execute_point` call — and because a fresh pool used to be
    created per ``run()`` call, once per *artifact* per worker, which is
    the multi-job slowdown recorded in the BENCH_results.json history.
    """
    import repro.bench.harness  # noqa: F401 — populates KERNELS, loads numpy
    from repro.bench.cache import calibration_fingerprint

    calibration_fingerprint()


class ShardIncomplete(Exception):
    """A sharded run skipped points owned by other shards.

    Raised by :meth:`SweepRunner.run` after executing (and caching) every
    point this shard owns, so callers know the artifact cannot be
    assembled from this shard alone; ``bench merge`` combines the shards'
    trajectory JSONs into the full artifact.
    """

    def __init__(self, artifact: str, skipped: int):
        self.artifact = artifact
        self.skipped = skipped
        super().__init__(
            f"{artifact}: {skipped} point(s) belong to other shards"
        )


def shard_of(key: str, n_shards: int) -> int:
    """Deterministic shard owner of a cache key (content-addressed, so the
    partition is stable across processes, hosts and orderings)."""
    return int(key[:8], 16) % n_shards


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of benchmark work (one simulated cluster)."""

    artifact: str
    kernel: str
    params: tuple  # sorted ((name, value), ...) — hashable and stable

    @classmethod
    def make(cls, artifact: str, kernel: str, **params: Any) -> "SweepPoint":
        return cls(artifact, kernel, tuple(sorted(params.items())))

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> str:
        return point_key(self.artifact, self.kernel, self.kwargs())


@dataclass
class PointResult:
    """A point's value plus its execution metadata."""

    point: SweepPoint
    value: Any
    wall_s: float   # wall-clock of the producing run (not of a cache read)
    sim_s: float    # simulated seconds advanced while computing the point
    events: int     # discrete events processed while computing the point
    cached: bool
    #: events elided by flow-level fast-forward (0 in packet fidelity);
    #: reported beside ``events``, never added to it.
    events_ff: int = 0
    key: Optional[str] = None
    #: True when a sharded run left this point to another shard (value is
    #: None and no execution metadata was recorded).
    skipped: bool = False


def execute_point(point: SweepPoint) -> Dict[str, Any]:
    """Run one point and measure it.  Top-level so it pickles to workers."""
    import repro.bench.harness  # noqa: F401 — populates KERNELS on import
    from repro.sim.kernel import Environment

    fn = KERNELS[point.kernel]
    events0 = Environment.total_events_processed
    ff0 = Environment.total_events_fast_forwarded
    sim0 = Environment.total_sim_time
    start = time.perf_counter()
    value = fn(**point.kwargs())
    return {
        "value": value,
        "wall_s": time.perf_counter() - start,
        "sim_s": Environment.total_sim_time - sim0,
        "events": Environment.total_events_processed - events0,
        "events_ff": Environment.total_events_fast_forwarded - ff0,
    }


class SweepRunner:
    """Executes point lists: fan-out, memoization, metadata accounting.

    ``jobs=1`` runs points inline (the fully sequential, easily debuggable
    path); ``jobs>1`` dispatches cache misses to a process pool.  The pool
    is created once per runner (warm workers via :func:`_worker_warmup`)
    and reused across ``run()`` calls, so a multi-artifact sweep pays
    worker start-up once, not once per artifact.  Results always come back
    in point order, so figure assembly is independent of scheduling and a
    parallel sweep is row-for-row identical to a sequential one.

    ``shard=(i, n)`` restricts execution to the points whose cache key
    hashes to shard *i* of *n* (:func:`shard_of`).  Out-of-shard points
    are still served from the cache when possible; if any remain unserved
    after this shard's own points have executed (and been cached),
    :class:`ShardIncomplete` is raised — ``bench merge`` later combines
    the shards' result JSONs into the complete artifact.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 shard: Optional[tuple] = None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        if shard is not None:
            index, count = shard
            if not 0 <= index < count:
                raise ValueError(f"shard index {index} outside 0..{count - 1}")
        self.shard = shard
        self.records: List[PointResult] = []
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_warmup)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, points: Sequence[SweepPoint]) -> List[Any]:
        """Execute *points*; returns their values in point order."""
        results: List[Optional[PointResult]] = [None] * len(points)
        pending: List[tuple] = []
        skipped: List[tuple] = []
        for i, point in enumerate(points):
            key = (point.key()
                   if self.cache is not None or self.shard is not None
                   else None)
            record = self.cache.get(key) if self.cache is not None else None
            if record is not None:
                results[i] = PointResult(
                    point=point, value=record["value"],
                    wall_s=record.get("wall_s", 0.0),
                    sim_s=record.get("sim_s", 0.0),
                    events=record.get("events", 0),
                    events_ff=record.get("events_ff", 0),
                    cached=True, key=key,
                )
            elif (self.shard is not None
                    and shard_of(key, self.shard[1]) != self.shard[0]):
                skipped.append((i, point, key))
            else:
                pending.append((i, point, key))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                outputs = [execute_point(point) for _, point, _ in pending]
            else:
                workers = min(self.jobs, len(pending))
                # Batch points per pickling round-trip; map() preserves
                # input order, which the assemblers rely on.
                chunk = max(1, len(pending) // (workers * 4))
                outputs = list(self._ensure_pool().map(
                    execute_point, [point for _, point, _ in pending],
                    chunksize=chunk))
            for (i, point, key), out in zip(pending, outputs):
                results[i] = PointResult(point=point, cached=False, key=key,
                                         **out)
                if self.cache is not None:
                    self.cache.put(key, out)

        for i, point, key in skipped:
            results[i] = PointResult(
                point=point, value=None, wall_s=0.0, sim_s=0.0,
                events=0, cached=False, key=key, skipped=True,
            )

        self.records.extend(results)  # type: ignore[arg-type]
        if skipped:
            # Raised *after* this shard's own points executed and were
            # cached: the shard's work product (cache entries + trajectory
            # records) is complete even though the artifact is not.
            raise ShardIncomplete(points[0].artifact if points else "?",
                                  len(skipped))
        return [r.value for r in results]  # type: ignore[union-attr]

    def run_one(self, point: SweepPoint) -> Any:
        """Convenience for single-point artifacts (tables, DLRM)."""
        return self.run([point])[0]

    def trajectory(self) -> Dict[str, Any]:
        """The machine-readable run summary (``BENCH_results.json``).

        Every point records its kernel's value, so ``bench merge`` can
        re-import the executed points of any trajectory into a result
        cache and ``bench diff`` can compare two runs point by point.  A
        point a sharded run left to another shard is marked ``skipped``
        and has no value.
        """
        artifacts: Dict[str, Any] = {}
        for rec in self.records:
            art = artifacts.setdefault(rec.point.artifact, {
                "points": [], "wall_s": 0.0, "sim_s": 0.0,
                "events": 0, "events_ff": 0,
                "cached_points": 0, "skipped_points": 0,
            })
            entry = {
                "kernel": rec.point.kernel,
                "params": rec.point.kwargs(),
                "key": rec.key or rec.point.key(),
                "wall_s": rec.wall_s,
                "sim_s": rec.sim_s,
                "events": rec.events,
                "events_ff": rec.events_ff,
                "cached": rec.cached,
                "value": jsonable(rec.value),
            }
            if rec.skipped:
                entry["skipped"] = True
            art["points"].append(entry)
            art["skipped_points"] += int(rec.skipped)
            art["wall_s"] += rec.wall_s
            art["sim_s"] += rec.sim_s
            art["events"] += rec.events
            art["events_ff"] += rec.events_ff
            art["cached_points"] += int(rec.cached)
        totals = {
            "points": len(self.records),
            "cached_points": sum(a["cached_points"]
                                 for a in artifacts.values()),
            "skipped_points": sum(a["skipped_points"]
                                  for a in artifacts.values()),
            "wall_s": sum(a["wall_s"] for a in artifacts.values()),
            "sim_s": sum(a["sim_s"] for a in artifacts.values()),
            "events": sum(a["events"] for a in artifacts.values()),
            "events_ff": sum(a["events_ff"] for a in artifacts.values()),
        }
        return {
            "schema": 1,
            "jobs": self.jobs,
            "shard": (None if self.shard is None else list(self.shard)),
            "cache": (None if self.cache is None else str(self.cache.root)),
            "totals": totals,
            "artifacts": artifacts,
        }
