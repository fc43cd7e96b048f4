"""Tests of the distributed DLRM use case (§6, Figures 14-15, Table 2)."""

import numpy as np
import pytest

from repro import units
from repro.apps.dlrm import (
    CpuDlrmBaseline,
    DistributedDlrm,
    DlrmConfig,
    DlrmModel,
    DlrmPlan,
    PartitionedWeights,
    embedding_vectors,
)
from repro.errors import ConfigurationError


class TestModelAndConfig:
    def test_table2_configuration(self):
        config = DlrmConfig()
        assert config.num_tables == 100
        assert config.concat_len == 3200
        assert config.fc_dims == (2048, 512, 256)
        assert config.embed_bytes >= 50 * 10**9  # "Embed Size 50GB"

    def test_procedural_embeddings_deterministic(self):
        config = DlrmConfig()
        tables = np.array([0, 5, 99])
        rows = np.array([1, 2**20, 3])
        a = embedding_vectors(config, tables, rows)
        b = embedding_vectors(config, tables, rows)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, config.embed_dim)

    def test_embeddings_differ_across_rows(self):
        config = DlrmConfig()
        vecs = embedding_vectors(config, np.array([0, 0]), np.array([1, 2]))
        assert not np.allclose(vecs[0], vecs[1])

    def test_embeddings_bounded(self):
        config = DlrmConfig()
        vecs = embedding_vectors(config, np.arange(100),
                                 np.arange(100) * 1000)
        assert np.all(np.abs(vecs) <= 0.25 + 1e-6)

    def test_out_of_range_row_rejected(self):
        config = DlrmConfig()
        with pytest.raises(ConfigurationError):
            embedding_vectors(config, np.array([0]),
                              np.array([config.rows_per_table]))

    def test_reference_forward_is_probability(self):
        model = DlrmModel()
        queries = model.make_queries(4)
        out = model.forward_batch(queries)
        assert np.all((out > 0) & (out < 1))

    def test_weights_equal_the_one_shot_float64_build(self):
        # 600 rows span two full row blocks and a partial one
        config = DlrmConfig(num_tables=4, embed_dim=8, fc_dims=(600, 40, 8),
                            rows_per_table=16)
        model = DlrmModel(config, seed=7)
        rng = np.random.default_rng(7)
        dims = [config.concat_len, *config.fc_dims]
        for (fan_in, fan_out), w in zip(zip(dims, dims[1:]), model.weights):
            scale = 1.0 / np.sqrt(fan_in)
            expected = (rng.standard_normal((fan_out, fan_in))
                        * scale).astype(config.dtype)
            assert w.dtype == config.dtype
            np.testing.assert_array_equal(w, expected)

    def test_flops_per_inference(self):
        model = DlrmModel()
        expected = 2 * (3200 * 2048 + 2048 * 512 + 512 * 256)
        assert model.flops_per_inference == expected


class TestPartitioning:
    def test_plan_roles(self):
        plan = DlrmPlan()
        assert plan.n_nodes == 10
        assert plan.embed_nodes == [0, 1, 2, 3]
        assert plan.fc1_partner_nodes == [4, 5, 6, 7]
        assert plan.fc2_node == 8
        assert plan.fc3_node == 9
        assert plan.reduce_group == [4, 5, 6, 7, 8]  # "nodes 5 to 9"

    def test_message_sizes_match_paper(self):
        """3.2 KB partial embedding vector, 4 KB partial result, 8 KB reduce."""
        plan, config = DlrmPlan(), DlrmConfig()
        assert plan.chunk_len(config) * 4 == 3200          # 3.2 KB
        assert plan.row_len(config) * 4 == 4096            # 4 KB
        assert config.fc_dims[0] * 4 == 8192               # 8 KB

    def test_tables_partition_evenly(self):
        plan, config = DlrmPlan(), DlrmConfig()
        seen = set()
        for node in plan.embed_nodes:
            seen.update(plan.tables_for(node, config))
        assert seen == set(range(config.num_tables))

    def test_checkerboard_decomposition_exact(self):
        """Figure 14: summed block partials equal the full W1 @ x."""
        model = DlrmModel()
        weights = PartitionedWeights(model)
        x = np.random.default_rng(3).standard_normal(
            model.config.concat_len).astype(np.float32)
        np.testing.assert_allclose(
            weights.check_decomposition(x), model.weights[0] @ x,
            rtol=1e-3, atol=1e-4,
        )


class TestDistributedPipeline:
    @pytest.fixture(scope="class")
    def run(self):
        model = DlrmModel()
        dlrm = DistributedDlrm(model)
        queries = model.make_queries(32)
        stats = dlrm.run(queries)
        return model, dlrm, queries, stats

    def test_outputs_match_reference(self, run):
        model, _, queries, stats = run
        np.testing.assert_allclose(stats.outputs,
                                   model.forward_batch(queries),
                                   rtol=1e-3, atol=1e-4)

    def test_latency_well_below_cpu(self, run):
        """Fig 17(a): two orders of magnitude vs CPU serving batches."""
        _, _, _, stats = run
        cpu = CpuDlrmBaseline()
        assert cpu.latency(256) / stats.mean_latency > 100

    def test_throughput_order_of_magnitude_above_cpu(self, run):
        """Fig 17(b): more than an order of magnitude vs best CPU batch."""
        _, _, _, stats = run
        cpu = CpuDlrmBaseline()
        assert stats.throughput / cpu.best_throughput() > 10

    def test_latencies_positive_and_bounded(self, run):
        _, _, _, stats = run
        assert all(lat > 0 for lat in stats.latencies)
        assert stats.p99_latency < units.ms(1)

    def test_empty_run_rejected(self):
        dlrm = DistributedDlrm(DlrmModel())
        with pytest.raises(ConfigurationError):
            dlrm.run(np.zeros((0, 100), dtype=int))


class TestCpuBaseline:
    def test_latency_grows_with_batch(self):
        cpu = CpuDlrmBaseline()
        lats = [cpu.latency(b) for b in (1, 16, 256, 1024)]
        assert lats == sorted(lats)

    def test_throughput_improves_with_batch(self):
        cpu = CpuDlrmBaseline()
        assert cpu.throughput(256) > cpu.throughput(1)

    def test_cpu_latency_is_milliseconds(self):
        cpu = CpuDlrmBaseline()
        assert cpu.latency(1) > units.ms(1)

    def test_best_throughput_covers_sweep(self):
        cpu = CpuDlrmBaseline()
        assert cpu.best_throughput() >= max(
            thr for _, _, thr in cpu.sweep())

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuDlrmBaseline().latency(0)
