"""The DLRM model: Table 2 configuration and a single-node reference.

The paper's embedding layer is 50 GB of proprietary industrial data — per
the substitution rule, embeddings here are *procedural*: a deterministic,
vectorized function of (table, row) that materializes any row on demand
without storing the tables.  This preserves what the evaluation exercises —
random-access lookup volume, vector widths, arithmetic — while remaining
runnable on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DlrmConfig:
    """Table 2: the target recommendation model."""

    num_tables: int = 100
    embed_dim: int = 32
    fc_dims: Tuple[int, int, int] = (2048, 512, 256)
    rows_per_table: int = 4_194_304  # ~50 GB of fp32 embeddings in total
    dtype: type = np.float32

    def __post_init__(self):
        if self.num_tables <= 0 or self.embed_dim <= 0:
            raise ConfigurationError("tables and embed_dim must be positive")

    @property
    def concat_len(self) -> int:
        """Concatenated embedding vector length (Table 2: 3200)."""
        return self.num_tables * self.embed_dim

    @property
    def embed_bytes(self) -> int:
        """Total embedding storage (Table 2: ~50 GB)."""
        return (self.num_tables * self.rows_per_table * self.embed_dim
                * np.dtype(self.dtype).itemsize)


def embedding_vectors(config: DlrmConfig, tables: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """Procedural embedding rows for (table, row) pairs, shape (n, dim).

    Deterministic and smooth: each element is a bounded trigonometric
    function of a per-row phase, so values are reproducible anywhere without
    materializing the 50 GB of tables.
    """
    tables = np.asarray(tables, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if tables.shape != rows.shape:
        raise ConfigurationError("tables and rows must align")
    if np.any(rows < 0) or np.any(rows >= config.rows_per_table):
        raise ConfigurationError("row index out of table bounds")
    # Low-discrepancy phases from a Weyl sequence per (table, row).
    phase = ((tables * 2654435761 + rows * 40503 + 12345) % (1 << 31))
    phase = phase.astype(np.float64) / (1 << 31)
    dims = np.arange(1, config.embed_dim + 1, dtype=np.float64)
    values = np.sin(2.0 * np.pi * np.outer(phase, dims) + 0.1 * dims)
    return (0.25 * values).astype(config.dtype)


class DlrmModel:
    """Reference (single-node) DLRM: lookup -> concat -> FC1..FC3 -> CTR."""

    def __init__(self, config: DlrmConfig = DlrmConfig(), seed: int = 2024):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [config.concat_len, *config.fc_dims]
        self.weights = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            # The same draws in blocks of 256 rows, each rounded to the
            # weight dtype: no full-size float64 temporary.
            w = np.empty((fan_out, fan_in), dtype=config.dtype)
            for r in range(0, fan_out, 256):
                w[r:r + 256] = rng.standard_normal(
                    (min(256, fan_out - r), fan_in)) * scale
            self.weights.append(w)

    @property
    def flops_per_inference(self) -> int:
        return sum(2 * w.shape[0] * w.shape[1] for w in self.weights)

    def make_queries(self, n: int, seed: int = 99) -> np.ndarray:
        """Random lookup indices, shape (n, num_tables)."""
        rng = np.random.default_rng(seed)
        return rng.integers(0, self.config.rows_per_table,
                            size=(n, self.config.num_tables))

    def embed(self, indices: np.ndarray) -> np.ndarray:
        """Concatenated embedding vector for one query (num_tables ids)."""
        tables = np.arange(self.config.num_tables)
        vectors = embedding_vectors(self.config, tables, indices)
        return vectors.reshape(-1)

    def forward(self, indices: np.ndarray) -> float:
        """One inference; returns the predicted click-through rate."""
        x = self.embed(indices)
        w1, w2, w3 = self.weights
        h1 = np.maximum(w1 @ x, 0.0)
        h2 = np.maximum(w2 @ h1, 0.0)
        h3 = w3 @ h2
        return float(1.0 / (1.0 + np.exp(-np.mean(h3))))

    def forward_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched inference, shape (n,) of CTRs.

        One embedding materialization over the flattened (query, table)
        pairs and three batched matmuls — numerically the per-query
        :meth:`forward` pipeline, minus the Python-loop overhead that
        dominates it (one BLAS call per layer instead of one per query).
        """
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries[None, :]
        n, num_tables = queries.shape
        tables = np.broadcast_to(
            np.arange(num_tables), (n, num_tables)).reshape(-1)
        vectors = embedding_vectors(self.config, tables, queries.reshape(-1))
        x = vectors.reshape(n, self.config.concat_len)
        w1, w2, w3 = self.weights
        h1 = np.maximum(x @ w1.T, 0.0)
        h2 = np.maximum(h1 @ w2.T, 0.0)
        h3 = h2 @ w3.T
        return 1.0 / (1.0 + np.exp(-h3.mean(axis=1)))
