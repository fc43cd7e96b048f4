"""Event-driven software-MPI model over commodity NICs.

Each :class:`MpiRank` is an MPI process on a CPU node: a host-DRAM memory, a
CPU-time pipe (the sequential software stack), and a kernel-bypass RDMA NIC
or kernel TCP socket.  Point-to-point follows the standard eager/rendezvous
split (UCX-style threshold); collectives live in
:mod:`repro.baselines.algorithms` and are selected by the fine-grained
:class:`~repro.baselines.tuning.MpiTuning` tables — the "software MPI adapts
its algorithms more finely" behaviour of §5.

Personalities:

- ``library="openmpi", transport="rdma"`` — OpenMPI 4.1/UCX over RoCE
  (the paper's H2H comparison baseline);
- ``library="mpich", transport="tcp"`` — MPICH 4.0 over kernel TCP
  (the Fig 13 baseline).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.memory import Memory, host_dram
from repro.network.topology import StarTopology
from repro.protocols.base import MessageHeader
from repro.protocols.rdma import RdmaPoe
from repro.protocols.tcp import TcpPoe
from repro.sim import BandwidthResource, Environment, Event, all_of
from repro.cclo.match import MatchTable
from repro import units


class _HostRdmaNic(RdmaPoe):
    """Mellanox CX-5 class RDMA NIC: kernel-bypass verbs, ASIC pipeline."""

    protocol_name = "roce-nic"
    mtu = 4096
    poe_latency = units.ns(700)


class _KernelTcpNic(TcpPoe):
    """Kernel TCP through a commodity NIC: the socket stack costs
    microseconds per message (syscalls, skb handling, softirq)."""

    protocol_name = "tcp-nic"
    mtu = 1460
    poe_latency = units.us(6)


#: per-call software overhead of the MPI library + verbs/sockets post path
_SW_OVERHEAD = {
    ("openmpi", "rdma"): units.us(0.45),
    ("mpich", "tcp"): units.us(4.0),
}

#: eager -> rendezvous switch point of the transport layer
_RNDZ_THRESHOLD = {
    ("openmpi", "rdma"): 32 * units.KIB,   # UCX default neighbourhood
    ("mpich", "tcp"): 64 * units.KIB,
}

#: single-core streaming reduction bandwidth (SIMD sum over DRAM-resident data)
_CPU_REDUCE_BW = 12e9
#: memcpy bandwidth (eager receive copies bounce -> user buffer)
_CPU_MEMCPY_BW = 18e9


class MpiRank:
    """One MPI process: CPU pipe + NIC + host memory + matching engine."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        addresses: List[int],
        nic,
        memory: Memory,
        library: str = "openmpi",
        transport: str = "rdma",
    ):
        key = (library, transport)
        if key not in _SW_OVERHEAD:
            raise ConfigurationError(
                f"unsupported MPI personality {library}/{transport}"
            )
        self.env = env
        self.rank = rank
        self.addresses = addresses
        self.nic = nic
        self.memory = memory
        self.library = library
        self.transport = transport
        self.sw_overhead = _SW_OVERHEAD[key]
        self.rndz_threshold = _RNDZ_THRESHOLD[key]
        # CPU time is sequential per rank: 1 unit == 1 second of core time.
        self._cpu = BandwidthResource(env, 1.0, name=f"mpi{rank}.cpu")
        self._inbound = MatchTable(env, name=f"mpi{rank}.match")
        self._rts = MatchTable(env, name=f"mpi{rank}.rts")
        self._cts = MatchTable(env, name=f"mpi{rank}.cts")
        self._fin = MatchTable(env, name=f"mpi{rank}.fin")
        self._write_targets: Dict[int, dict] = {}
        self._target_ids = itertools.count(1)
        nic.on_message(self._on_message)
        if isinstance(nic, RdmaPoe):
            nic.set_memory_writer(self._on_write)
        self.cpu_busy_seconds = 0.0

    @property
    def size(self) -> int:
        return len(self.addresses)

    # -- CPU accounting ------------------------------------------------------

    def cpu(self, seconds: float) -> float:
        """Occupy this rank's core for *seconds* (serialized FIFO); returns
        the delay from now until that work is done."""
        self.cpu_busy_seconds += seconds
        return self._cpu.reserve(seconds) - self.env.now

    def _addr(self, rank: int) -> int:
        return self.addresses[rank]

    # -- NIC receive plumbing ---------------------------------------------------

    def _on_message(self, header: MessageHeader, data: Any) -> None:
        kind, src_rank, tag, payload_meta = header.meta
        key = (src_rank, tag)
        if kind == "eager":
            self._inbound.post(key, (header.nbytes, data))
        elif kind == "rts":
            self._rts.post(key, payload_meta)  # payload_meta = msg nbytes
        elif kind == "cts":
            self._cts.post(key, payload_meta)  # payload_meta = target id
        elif kind == "fin":
            self._fin.post(key, payload_meta)
        else:
            raise ConfigurationError(f"unknown MPI wire message {kind!r}")

    def _on_write(self, header: MessageHeader, data: Any) -> Event:
        target = self._write_targets.pop(header.meta, None)
        if target is None:
            raise ConfigurationError("WRITE to unknown MPI rendezvous target")

        def landing():
            # NIC DMAs straight into the user buffer: one memory write.
            yield self.memory.access_delay(header.nbytes)
            if data is not None and target["buf"] is not None:
                np.copyto(target["buf"].reshape(-1),
                          np.asarray(data).reshape(-1))
            target["event"].succeed(header.nbytes)

        return self.env.process(landing(), name=f"mpi{self.rank}.write")

    # -- point-to-point ------------------------------------------------------------

    def isend(self, data: Optional[np.ndarray], nbytes: int, dst: int,
              tag: int = 0) -> Event:
        """Nonblocking send; event fires at local completion."""
        return self.env.process(
            self._send_proc(data, nbytes, dst, tag),
            name=f"mpi{self.rank}.isend",
        )

    def irecv(self, buf: Optional[np.ndarray], nbytes: int, src: int,
              tag: int = 0) -> Event:
        """Nonblocking receive; event fires when data is in *buf*."""
        return self.env.process(
            self._recv_proc(buf, nbytes, src, tag),
            name=f"mpi{self.rank}.irecv",
        )

    def _send_proc(self, data, nbytes: int, dst: int, tag: int):
        yield self.cpu(self.sw_overhead)
        payload = None if data is None else np.asarray(data).copy()
        if nbytes <= self.rndz_threshold or self.transport != "rdma":
            # Eager: read the user buffer, one shot onto the wire.
            yield self.memory.access_delay(nbytes)
            yield from self.nic.transmit(
                self._addr(dst), nbytes,
                meta=("eager", self.rank, tag, None), data=payload,
            )
            return
        # Rendezvous: RTS -> CTS (target id) -> zero-copy WRITE -> FIN.
        yield from self.nic.transmit(
            self._addr(dst), 32, meta=("rts", self.rank, tag, nbytes)
        )
        target_id = yield self._cts.wait((dst, tag))
        yield self.cpu(self.sw_overhead)
        yield self.memory.access_delay(nbytes)
        yield from self.nic.transmit(
            self._addr(dst), nbytes, meta=target_id, data=payload,
            kind="write",
        )
        yield from self.nic.transmit(
            self._addr(dst), 32, meta=("fin", self.rank, tag, None)
        )

    def _recv_proc(self, buf, nbytes: int, src: int, tag: int):
        yield self.cpu(self.sw_overhead)
        if nbytes <= self.rndz_threshold or self.transport != "rdma":
            got_bytes, data = yield self._inbound.wait((src, tag))
            # Copy out of the transport bounce buffer into the user buffer.
            copy_time = got_bytes / _CPU_MEMCPY_BW
            yield self.cpu(copy_time)
            yield self.memory.access_delay(got_bytes)
            if data is not None and buf is not None:
                np.copyto(buf.reshape(-1), np.asarray(data).reshape(-1))
            return
        # Rendezvous passive side.
        yield self._rts.wait((src, tag))
        target_id = next(self._target_ids)
        landed = Event(self.env)
        self._write_targets[target_id] = {"buf": buf, "event": landed}
        yield from self.nic.transmit(
            self._addr(src), 32, meta=("cts", self.rank, tag, target_id)
        )
        yield self._fin.wait((src, tag))
        yield landed

    # -- local compute ------------------------------------------------------------

    def local_reduce(self, func: str, a: Optional[np.ndarray],
                     b: Optional[np.ndarray], out: Optional[np.ndarray],
                     nbytes: int) -> Event:
        """CPU-side reduction kernel: out = a (op) b."""

        def compute():
            yield self.memory.access_delay(2 * nbytes)  # read a and b
            yield self.cpu(nbytes / _CPU_REDUCE_BW)
            yield self.memory.access_delay(nbytes)  # write out
            if a is None or b is None or out is None:
                return
            ops = {"sum": np.add, "prod": np.multiply,
                   "max": np.maximum, "min": np.minimum}
            ops[func](a.reshape(-1), b.reshape(-1), out=out.reshape(-1))

        return self.env.process(compute(), name=f"mpi{self.rank}.reduce")

    def memcpy(self, src: Optional[np.ndarray], dst: Optional[np.ndarray],
               nbytes: int) -> Event:
        def compute():
            yield self.cpu(nbytes / _CPU_MEMCPY_BW)
            yield self.memory.access_delay(nbytes)  # read src
            yield self.memory.access_delay(nbytes)  # write dst
            if src is not None and dst is not None:
                np.copyto(dst.reshape(-1), src.reshape(-1))

        return self.env.process(compute(), name=f"mpi{self.rank}.memcpy")

    def __repr__(self) -> str:
        return f"<MpiRank {self.rank}/{self.size} {self.library}/{self.transport}>"


class MpiCluster:
    """N MPI ranks on a 100 Gb/s star fabric."""

    def __init__(self, env: Environment, ranks: List[MpiRank],
                 topology: StarTopology, library: str, transport: str):
        self.env = env
        self.ranks = ranks
        self.topology = topology
        self.library = library
        self.transport = transport

    @property
    def size(self) -> int:
        return len(self.ranks)

    def run_all(self, make_proc) -> float:
        """Run ``make_proc(rank_obj)`` generators on every rank; returns
        elapsed simulated seconds until all complete."""
        start = self.env.now
        procs = [
            self.env.process(make_proc(rank_obj), name=f"mpi{rank_obj.rank}")
            for rank_obj in self.ranks
        ]
        self.env.run(until=all_of(self.env, procs))
        return self.env.now - start


def build_mpi_cluster(
    n_ranks: int,
    library: str = "openmpi",
    transport: str = "rdma",
    env: Optional[Environment] = None,
    link_rate: float = units.gbps(100),
) -> MpiCluster:
    """Construct a software-MPI cluster: TCP sessions are established up
    front, RDMA queue pairs at their first verb."""
    if n_ranks < 1:
        raise ConfigurationError(f"need at least 1 rank, got {n_ranks}")
    env = env or Environment()
    topology = StarTopology(env, link_rate=link_rate)
    addresses = list(range(n_ranks))
    nic_cls = _HostRdmaNic if transport == "rdma" else _KernelTcpNic

    ranks: List[MpiRank] = []
    for r in range(n_ranks):
        endpoint = topology.add_endpoint(r, name=f"cpu{r}")
        nic = nic_cls(env, endpoint)
        memory = host_dram(env, name=f"dram{r}")
        ranks.append(MpiRank(env, r, addresses, nic, memory,
                             library=library, transport=transport))

    if transport == "tcp":
        for a in ranks:
            for b in ranks:
                if a is not b:
                    a.nic.accept(b.rank)
        handshakes = []
        for i, a in enumerate(ranks):
            for b in ranks[i + 1:]:
                handshakes.append(a.nic.connect(b.rank))
                handshakes.append(b.nic.connect(a.rank))
        if handshakes:
            env.run(until=all_of(env, handshakes))
    return MpiCluster(env, ranks, topology, library, transport)
