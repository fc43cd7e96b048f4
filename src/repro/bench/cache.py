"""On-disk memoization for benchmark sweep points.

Every sweep point (one hermetic simulated cluster run) is cached under a
content-addressed key: a SHA-256 over the artifact name, the point's kernel
and parameters, and a *calibration fingerprint* covering the simulator's
timing constants.  The fingerprint hashes both the default
:class:`~repro.cclo.config_mem.CcloConfig` (the calibrated hardware
constants) and the source of every ``repro`` module, ``repro.bench``
included (its point kernels compute the cached values), so touching the
timing model or a kernel invalidates stale results automatically.

Cache entries are single JSON files named by key, written atomically, so
concurrent sweep processes sharing one cache directory never corrupt it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

#: bump to invalidate every cache entry on incompatible record changes
CACHE_SCHEMA = 1

_FINGERPRINT: Optional[str] = None


def jsonable(value: Any) -> Any:
    """Recursively convert *value* into plain JSON-serializable types.

    Handles the numpy scalars/bools that leak out of harness rows and the
    tuples used for series keys.  Dict keys are stringified (JSON has no
    integer keys); assemblers that need integer x-values convert back.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _source_digest() -> str:
    """Hash of every ``repro`` source file."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        digest.update(str(rel).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def calibration_fingerprint() -> str:
    """Stable hash of the simulator's calibration (constants + source)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from dataclasses import asdict

        from repro.cclo.config_mem import CcloConfig

        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "cclo_config": jsonable(asdict(CcloConfig())),
                "source": _source_digest(),
            },
            sort_keys=True,
        )
        _FINGERPRINT = hashlib.sha256(payload.encode()).hexdigest()
    return _FINGERPRINT


def point_key(artifact: str, kernel: str, params: Dict[str, Any]) -> str:
    """Content-addressed key for one sweep point.

    The network fidelity mode is part of the key (read per call, not
    memoized with the calibration fingerprint): packet- and flow-mode runs
    of the same point may differ within tolerance, so they must never share
    a cache entry.
    """
    from repro.network.fidelity import default_fidelity

    payload = json.dumps(
        {
            "artifact": artifact,
            "kernel": kernel,
            "params": jsonable(params),
            "calibration": calibration_fingerprint(),
            "fidelity": default_fidelity(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """A directory of ``<key>.json`` records with atomic writes."""

    def __init__(self, root: str = ".bench_cache"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for *key*, or ``None`` on a miss."""
        try:
            with open(self._path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(jsonable(record), fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                path.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return (f"<ResultCache {str(self.root)!r} {len(self)} entries "
                f"hits={self.hits} misses={self.misses}>")
