"""The decomposed, pipelined distributed DLRM on 10 FPGAs (Figure 15).

Ten kernel processes run on a simulated 10-node cluster (TCP backend on the
XRT platform at 115 MHz, the paper's deployment):

- nodes 0-3: embedding lookup (25 tables each) + the row-0 FC1 block of
  their column; stream the 3.2 KB concat chunk and the 4 KB partial result
  to their column partner;
- nodes 4-7: the row-1 FC1 blocks; concatenate both row halves into an 8 KB
  per-column partial and contribute it to the reduction;
- node 8: reduction root (the "reduction spanning nodes 5 to 9" with 8 KB
  messages) + ReLU + FC2;
- node 9: FC3 + final processing (CTR).

Every inter-node transfer uses the ACCL+ streaming collective API; nodes
that do not reduce never instantiate the reduction plugin path.  Inference
admission is credit-based (a finite pipeline depth), so reported latency is
the steady-state service latency, not open-loop queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.apps.dlrm.model import DlrmModel, embedding_vectors
from repro.apps.dlrm.partition import DlrmPlan, PartitionedWeights
from repro.cclo.config_mem import CcloConfig
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.driver.streaming import KernelInterface
from repro.platform.base import BufferLocation
from repro.sim import Channel, Environment, all_of
from repro.sim.resources import TokenBucket
from repro import units

#: MAC lanes per node, mirroring the paper's per-layer resource scaling
_FC1_LANES_PER_NODE = 2048
_FC2_LANES = 2560
_FC3_LANES = 484

#: random-access latency of a batch of parallel HBM lookups
_LOOKUP_LATENCY = units.ns(400)

#: reduce tag window base (collective tag space)
_REDUCE_TAG_BASE = 1 << 20


@dataclass
class DlrmRunStats:
    """Result of one pipelined run."""

    outputs: np.ndarray          # CTR per inference
    latencies: List[float]       # admission -> completion, seconds
    elapsed: float               # first admission -> last completion
    n_inferences: int

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies))

    @property
    def p99_latency(self) -> float:
        return float(np.percentile(self.latencies, 99))

    @property
    def throughput(self) -> float:
        """Sustained inferences/second."""
        return self.n_inferences / self.elapsed


class DistributedDlrm:
    """Builds the 10-node pipeline and runs inference streams through it."""

    def __init__(
        self,
        model: Optional[DlrmModel] = None,
        plan: DlrmPlan = DlrmPlan(),
        clock_hz: float = 115e6,
        pipeline_depth: int = 8,
    ):
        self.model = model or DlrmModel()
        self.plan = plan
        self.config = self.model.config
        self.weights = PartitionedWeights(self.model, plan)
        self.pipeline_depth = pipeline_depth
        if plan.row_parts != 2:
            raise ConfigurationError(
                "this pipeline implements the Figure 15 two-row checkerboard"
            )
        # The paper's deployment is 10 nodes (4x2 FC1 grid + FC2 + FC3);
        # other column widths support the §6.1 resource-scaling study
        # ("increasing the allocation of FPGAs for different layers based on
        # their computational load").
        # The paper's DLRM deployment: TCP backend from XRT, 115 MHz
        # "due to the design complexity".
        self.cluster = build_fpga_cluster(
            plan.n_nodes, protocol="tcp", platform="vitis",
            cclo_config=CcloConfig(clock_hz=clock_hz),
        )
        self.cluster.add_subcommunicator(1, plan.reduce_group)
        self.env: Environment = self.cluster.env
        self._clock = clock_hz

    # -- stage timing -----------------------------------------------------

    def _fc1_block_time(self) -> float:
        macs = self.plan.chunk_len(self.config) * self.plan.row_len(self.config)
        return macs / _FC1_LANES_PER_NODE / self._clock

    def _fc2_time(self) -> float:
        macs = self.config.fc_dims[0] * self.config.fc_dims[1]
        return macs / _FC2_LANES / self._clock

    def _fc3_time(self) -> float:
        macs = self.config.fc_dims[1] * self.config.fc_dims[2]
        return macs / _FC3_LANES / self._clock

    # -- node kernels ------------------------------------------------------

    def _embed_kernel(self, col: int, queries: np.ndarray, state: dict):
        """Lookup + chunk shipping stage; FC1 row-0 compute is a separate
        dataflow stage (:meth:`_embed_fc1_stage`) fed through a FIFO."""
        plan, config = self.plan, self.config
        node = plan.embed_nodes[col]
        engine = self.cluster.engine(node)
        ki = KernelInterface(engine)
        partner = plan.partner_of(node)
        tables = np.array(plan.tables_for(node, config))
        chunk_bytes = plan.chunk_len(config) * 4
        credits: TokenBucket = state["credits"][col]
        to_fc1: Channel = state["embed_fifo"][col]

        for i in range(len(queries)):
            yield credits.take(1)
            if col == 0:
                state["admitted"][i] = self.env.now
            # Parallel random-access lookups from HBM: 25 rows of 128 B.
            yield self.env.timeout(_LOOKUP_LATENCY)
            yield engine.device_memory.access_delay(
                len(tables) * config.embed_dim * 4)
            rows = queries[i][tables]
            chunk = embedding_vectors(config, tables, rows).reshape(-1)
            # Ship the chunk first so the partner's FC1 overlaps ours.
            yield from ki.send(chunk_bytes, partner, tag=i * 8)
            yield from ki.push(chunk)
            yield from ki.finalize()
            yield to_fc1.put((i, chunk))

    def _embed_fc1_stage(self, col: int, n: int, state: dict):
        """FC1 row-0 block compute + partial shipping (dataflow stage 2)."""
        plan = self.plan
        node = plan.embed_nodes[col]
        engine = self.cluster.engine(node)
        ki = KernelInterface(engine)
        partner = plan.partner_of(node)
        block0 = self.weights.fc1_blocks[0][col]
        fc1_time = self._fc1_block_time()
        from_lookup: Channel = state["embed_fifo"][col]

        for _ in range(n):
            i, chunk = yield from_lookup.get()
            yield self.env.timeout(fc1_time)
            partial0 = block0 @ chunk
            yield from ki.send(partial0.nbytes, partner, tag=i * 8 + 1)
            yield from ki.push(partial0)
            yield from ki.finalize()

    def _partner_chunk_stage(self, col: int, n: int, state: dict):
        """Streaming front-end: pull concat chunks off the wire into the
        local FIFO so the FC1 compute stage never waits on the network."""
        plan, config = self.plan, self.config
        node = plan.fc1_partner_nodes[col]
        engine = self.cluster.engine(node)
        ki = KernelInterface(engine)
        src = plan.embed_nodes[col]
        chunk_bytes = plan.chunk_len(config) * 4
        chunk_fifo: Channel = state["chunk_fifo"][col]

        for i in range(n):
            yield from ki.recv(chunk_bytes, src, tag=i * 8)
            _, chunk = yield from ki.pull()
            yield from ki.finalize()
            yield chunk_fifo.put((i, np.asarray(chunk).reshape(-1)))

    def _partner_kernel(self, col: int, n: int, state: dict):
        """Row-1 FC1 compute; hands merged column partials to the
        contributor stage through a FIFO."""
        plan, config = self.plan, self.config
        node = plan.fc1_partner_nodes[col]
        engine = self.cluster.engine(node)
        src = plan.embed_nodes[col]
        block1 = self.weights.fc1_blocks[1][col]
        row_bytes = plan.row_len(config) * 4
        fc1_time = self._fc1_block_time()
        chunk_fifo: Channel = state["chunk_fifo"][col]
        to_reduce: Channel = state["partner_fifo"][col]

        # Row-0 partials land in a rotating window of device buffers through
        # MPI-like receives pre-posted ahead, so their transfer overlaps the
        # row-1 compute below.
        platform = self.cluster.nodes[node].platform
        window = 4
        p0_bufs = [
            platform.wrap(np.zeros(plan.row_len(config), np.float32),
                          BufferLocation.DEVICE)
            for _ in range(window)
        ]

        def post_p0(i):
            return engine.call(CollectiveArgs(
                opcode="recv", comm_id=0, nbytes=row_bytes, peer=src,
                tag=i * 8 + 1, rbuf=p0_bufs[i % window].view(),
            ))

        p0_pending = [post_p0(i) for i in range(min(window, n))]
        for i in range(n):
            _, chunk = yield chunk_fifo.get()
            yield self.env.timeout(fc1_time)
            partial1 = block1 @ chunk
            yield p0_pending[i]
            partial0 = p0_bufs[i % window].array.copy()
            if i + window < n:
                p0_pending.append(post_p0(i + window))
            full_partial = np.concatenate([partial0, partial1])
            yield to_reduce.put((i, full_partial))

    def _partner_reduce_stage(self, col: int, n: int, state: dict):
        """Contribute the 8 KB column partial to the reduction (comm 1)."""
        plan, config = self.plan, self.config
        node = plan.fc1_partner_nodes[col]
        engine = self.cluster.engine(node)
        full_bytes = config.fc_dims[0] * 4
        sub_rank_root = len(plan.reduce_group) - 1
        from_fc1: Channel = state["partner_fifo"][col]

        for _ in range(n):
            i, full_partial = yield from_fc1.get()
            done = engine.call(CollectiveArgs(
                opcode="reduce", comm_id=1, nbytes=full_bytes,
                root=sub_rank_root, tag=_REDUCE_TAG_BASE + i * 1024,
                func="sum", from_stream=True, algorithm="all_to_one",
            ))
            yield engine.kernel_data_in.put((full_bytes, full_partial))
            yield done

    def _fc2_kernel(self, n: int):
        """Reduction root + FC2.  Reductions for a window of inferences are
        issued ahead into per-slot accumulation buffers, so successive
        folds pipeline through the engine's DMP."""
        plan, config = self.plan, self.config
        node = plan.fc2_node
        engine = self.cluster.engine(node)
        ki = KernelInterface(engine)
        full_elems = config.fc_dims[0]
        full_bytes = full_elems * 4
        sub_rank_root = len(plan.reduce_group) - 1
        platform = self.cluster.nodes[node].platform
        window = min(4, max(1, n))
        accs = [platform.wrap(np.zeros(full_elems, np.float32),
                              BufferLocation.DEVICE) for _ in range(window)]
        fc2_time = self._fc2_time()
        w2 = self.weights.fc2

        def issue(i):
            # Root without a contribution of its own: the partners' four
            # partials are the whole sum (§6.1's reduction root).
            return engine.call(CollectiveArgs(
                opcode="reduce", comm_id=1, nbytes=full_bytes,
                root=sub_rank_root, tag=_REDUCE_TAG_BASE + i * 1024,
                func="sum", rbuf=accs[i % window].view(),
                algorithm="all_to_one",
            ))

        pending = [issue(i) for i in range(min(window, n))]
        for i in range(n):
            yield pending[i]
            h1 = np.maximum(accs[i % window].array.copy(), 0.0)
            if i + window < n:
                pending.append(issue(i + window))
            yield self.env.timeout(fc2_time)
            h2 = np.maximum(w2 @ h1, 0.0)
            yield from ki.send(h2.nbytes, plan.fc3_node, tag=i * 8 + 2)
            yield from ki.push(h2)
            yield from ki.finalize()

    def _fc3_kernel(self, n: int, state: dict):
        plan, config = self.plan, self.config
        node = plan.fc3_node
        engine = self.cluster.engine(node)
        ki = KernelInterface(engine)
        h2_bytes = config.fc_dims[1] * 4
        fc3_time = self._fc3_time()
        w3 = self.weights.fc3

        for i in range(n):
            yield from ki.recv(h2_bytes, plan.fc2_node, tag=i * 8 + 2)
            _, h2 = yield from ki.pull()
            yield from ki.finalize()
            yield self.env.timeout(fc3_time)
            h3 = w3 @ np.asarray(h2).reshape(-1)
            state["outputs"][i] = 1.0 / (1.0 + np.exp(-np.mean(h3)))
            state["completed"][i] = self.env.now
            for bucket in state["credits"]:
                bucket.give(1)

    # -- orchestration ---------------------------------------------------------

    def run(self, queries: np.ndarray) -> DlrmRunStats:
        """Stream ``queries`` through the pipeline; returns run statistics."""
        n = len(queries)
        if n == 0:
            raise ConfigurationError("need at least one query")
        state = {
            "outputs": np.zeros(n),
            "admitted": np.zeros(n),
            "completed": np.zeros(n),
            "credits": [
                TokenBucket(self.env, self.pipeline_depth,
                            name=f"dlrm.credit{c}")
                for c in range(self.plan.col_parts)
            ],
            "embed_fifo": [
                Channel(self.env, capacity=4, name=f"dlrm.e{c}")
                for c in range(self.plan.col_parts)
            ],
            "partner_fifo": [
                Channel(self.env, capacity=4, name=f"dlrm.p{c}")
                for c in range(self.plan.col_parts)
            ],
            "chunk_fifo": [
                Channel(self.env, capacity=4, name=f"dlrm.c{c}")
                for c in range(self.plan.col_parts)
            ],
        }
        start = self.env.now
        processes = []
        for col in range(self.plan.col_parts):
            processes.append(self.env.process(
                self._embed_kernel(col, queries, state), name=f"embed{col}"))
            processes.append(self.env.process(
                self._embed_fc1_stage(col, n, state), name=f"efc1{col}"))
            processes.append(self.env.process(
                self._partner_chunk_stage(col, n, state), name=f"pcs{col}"))
            processes.append(self.env.process(
                self._partner_kernel(col, n, state), name=f"fc1p{col}"))
            processes.append(self.env.process(
                self._partner_reduce_stage(col, n, state), name=f"red{col}"))
        processes.append(self.env.process(self._fc2_kernel(n), name="fc2"))
        processes.append(self.env.process(self._fc3_kernel(n, state),
                                          name="fc3"))
        self.env.run(until=all_of(self.env, processes))
        latencies = list(state["completed"] - state["admitted"])
        return DlrmRunStats(
            outputs=state["outputs"],
            latencies=latencies,
            elapsed=self.env.now - start,
            n_inferences=n,
        )
