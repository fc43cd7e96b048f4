"""Experiment implementations for every evaluation artifact (§5-§6).

All functions build fresh simulated clusters, run the workload, and return
plain rows/series.  Message payloads are timing-only here (no numpy arrays
attached): functional correctness is covered by the test suite, and the
benchmarks sweep into the hundreds of megabytes.

Each artifact is expressed as a list of independent
:class:`~repro.bench.runner.SweepPoint` work items — one hermetic cluster
per point — executed through a :class:`~repro.bench.runner.SweepRunner`.
Every ``run_*`` function accepts an optional ``runner``; without one it
runs sequentially and uncached, exactly as before.  The point *kernels*
(registered with :func:`~repro.bench.runner.point_kernel`) take only
primitive parameters so they pickle into pool workers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro import units
from repro.baselines import F2fMpiModel, build_accl_v1_cluster, build_mpi_cluster
from repro.baselines import algorithms as mpi_alg
from repro.bench.runner import SweepPoint, SweepRunner, point_kernel
from repro.cclo.config_mem import CommunicatorConfig
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import FpgaCluster, build_fpga_cluster
from repro.driver import attach_drivers
from repro.platform.base import BufferLocation
from repro.resources import utilization_table
from repro.sim import all_of

KIB = units.KIB
MIB = units.MIB

COLLECTIVES = ("bcast", "scatter", "gather", "reduce", "allreduce", "alltoall")


# ---------------------------------------------------------------------------
# shared runners
# ---------------------------------------------------------------------------

def _buffers_for(cluster: FpgaCluster, opcode: str, size: int, rank: int,
                 root: int, location: BufferLocation):
    """Allocate timing-only buffers matching one collective's signature."""
    plat = cluster.nodes[rank].platform
    n = cluster.size

    def alloc(nbytes):
        return plat.allocate(nbytes, location).view()

    if opcode == "bcast":
        return None, alloc(size)
    if opcode == "scatter":
        return (alloc(n * size) if rank == root else None), alloc(size)
    if opcode == "gather":
        return alloc(size), (alloc(n * size) if rank == root else None)
    if opcode == "reduce":
        return alloc(size), (alloc(size) if rank == root else None)
    if opcode == "allreduce":
        return alloc(size), alloc(size)
    if opcode == "alltoall":
        return alloc(n * size), alloc(n * size)
    raise ValueError(f"no buffer plan for {opcode!r}")


def accl_collective_time(
    opcode: str,
    size: int,
    n_nodes: int = 8,
    protocol: str = "rdma",
    platform: str = "coyote",
    location: BufferLocation = BufferLocation.DEVICE,
    sync_protocol: Optional[str] = None,
    algorithm: Optional[str] = None,
    via_driver: bool = False,
    cclo_config=None,
    cluster_builder: Callable = build_fpga_cluster,
) -> float:
    """Run one ACCL+ collective on a fresh cluster; returns seconds.

    ``via_driver=True`` goes through the host CCL driver (H2H style:
    invocation latency + staging where the platform needs it); otherwise the
    engines are invoked directly, as FPGA kernels would (F2F style).
    """
    cluster = cluster_builder(n_nodes, protocol=protocol, platform=platform,
                              cclo_config=cclo_config)
    root = 0
    buffers = {
        rank: _buffers_for(cluster, opcode, size, rank, root, location)
        for rank in range(n_nodes)
    }
    if via_driver:
        drivers = attach_drivers(cluster)
        start = cluster.env.now
        requests = []
        for rank, drv in enumerate(drivers):
            sbuf, rbuf = buffers[rank]
            kwargs = dict(protocol=sync_protocol, algorithm=algorithm)
            if opcode == "bcast":
                req = drv.bcast(rbuf, size, root, **kwargs)
            elif opcode == "scatter":
                req = drv.scatter(sbuf, rbuf, size, root, **kwargs)
            elif opcode == "gather":
                req = drv.gather(sbuf, rbuf, size, root, **kwargs)
            elif opcode == "reduce":
                req = drv.reduce(sbuf, rbuf, size, root, **kwargs)
            elif opcode == "allreduce":
                req = drv.allreduce(sbuf, rbuf, size,
                                    protocol=sync_protocol,
                                    algorithm=algorithm)
            elif opcode == "alltoall":
                req = drv.alltoall(sbuf, rbuf, size, protocol=sync_protocol)
            else:
                raise ValueError(opcode)
            requests.append(req.event)
        cluster.env.run(until=all_of(cluster.env, requests))
        return cluster.env.now - start

    def make_args(rank):
        sbuf, rbuf = buffers[rank]
        return CollectiveArgs(
            opcode=opcode, comm_id=0, nbytes=size, root=root,
            tag=1 << 20, sbuf=sbuf, rbuf=rbuf,
            protocol=sync_protocol, algorithm=algorithm,
        )

    return cluster.run_collective(make_args)


def accl_best_protocol_time(opcode: str, size: int, **kwargs) -> float:
    """Better of eager and rendezvous, as the paper presents (Fig 10)."""
    times = []
    for sync in ("eager", "rndz"):
        times.append(accl_collective_time(opcode, size,
                                          sync_protocol=sync, **kwargs))
    return min(times)


_MPI_COLLECTIVE = {
    "bcast": lambda me, size, tag: mpi_alg.mpi_bcast(me, None, size, 0, tag),
    "scatter": lambda me, size, tag: mpi_alg.mpi_scatter(
        me, None, None, size, 0, tag),
    "gather": lambda me, size, tag: mpi_alg.mpi_gather(
        me, None, None, size, 0, tag),
    "reduce": lambda me, size, tag: mpi_alg.mpi_reduce(
        me, None, None, size, 0, tag=tag),
    "allreduce": lambda me, size, tag: mpi_alg.mpi_allreduce(
        me, None, None, size, tag=tag),
    "alltoall": lambda me, size, tag: mpi_alg.mpi_alltoall(
        me, None, None, size, tag),
}

#: PCIe staging volume per rank for the F2F-via-CPU detour of Figure 9/10.
_MPI_F2F_VOLUME = {
    "bcast": (lambda r, n, s: s if r == 0 else 0,
              lambda r, n, s: 0 if r == 0 else s),
    "scatter": (lambda r, n, s: n * s if r == 0 else 0,
                lambda r, n, s: s),
    "gather": (lambda r, n, s: s,
               lambda r, n, s: n * s if r == 0 else 0),
    "reduce": (lambda r, n, s: s,
               lambda r, n, s: s if r == 0 else 0),
    "allreduce": (lambda r, n, s: s, lambda r, n, s: s),
    "alltoall": (lambda r, n, s: n * s, lambda r, n, s: n * s),
}


def mpi_collective_time(opcode: str, size: int, n_ranks: int = 8,
                        library: str = "openmpi",
                        transport: str = "rdma") -> float:
    """Software MPI collective on host data (the H2H baseline)."""
    cluster = build_mpi_cluster(n_ranks, library=library, transport=transport)
    fn = _MPI_COLLECTIVE[opcode]
    return cluster.run_all(lambda me: fn(me, size, 0))


def mpi_f2f_collective_time(opcode: str, size: int, n_ranks: int = 8,
                            library: str = "openmpi",
                            transport: str = "rdma",
                            invocation: float = units.us(2.3)) -> float:
    """Software MPI on device data: PCIe out, collective, PCIe back (Fig 9)."""
    cluster = build_mpi_cluster(n_ranks, library=library, transport=transport)
    model = F2fMpiModel(cluster, invocation_latency=invocation)
    fn = _MPI_COLLECTIVE[opcode]
    in_fn, out_fn = _MPI_F2F_VOLUME[opcode]
    breakdown = model.run(
        lambda me: fn(me, size, 0),
        in_bytes=lambda r: in_fn(r, n_ranks, size),
        out_bytes=lambda r: out_fn(r, n_ranks, size),
    )
    return breakdown.total


# ---------------------------------------------------------------------------
# sweep-point kernels (picklable: primitive parameters only)
# ---------------------------------------------------------------------------

@point_kernel("accl_collective")
def _kernel_accl_collective(opcode: str, size: int, n_nodes: int = 8,
                            protocol: str = "rdma", platform: str = "coyote",
                            location: str = "device",
                            sync_protocol: Optional[str] = None,
                            algorithm: Optional[str] = None,
                            via_driver: bool = False,
                            engine: str = "accl+") -> float:
    builder = (build_fpga_cluster if engine == "accl+"
               else (lambda n, **kw: build_accl_v1_cluster(n)))
    return accl_collective_time(
        opcode, size, n_nodes=n_nodes, protocol=protocol, platform=platform,
        location=BufferLocation(location), sync_protocol=sync_protocol,
        algorithm=algorithm, via_driver=via_driver, cluster_builder=builder)


@point_kernel("accl_best_protocol")
def _kernel_accl_best_protocol(opcode: str, size: int, n_nodes: int = 8,
                               protocol: str = "rdma",
                               platform: str = "coyote",
                               location: str = "device",
                               via_driver: bool = False) -> float:
    return accl_best_protocol_time(
        opcode, size, n_nodes=n_nodes, protocol=protocol, platform=platform,
        location=BufferLocation(location), via_driver=via_driver)


@point_kernel("mpi_collective")
def _kernel_mpi_collective(opcode: str, size: int, n_ranks: int = 8,
                           library: str = "openmpi",
                           transport: str = "rdma") -> float:
    return mpi_collective_time(opcode, size, n_ranks,
                               library=library, transport=transport)


@point_kernel("mpi_f2f_collective")
def _kernel_mpi_f2f_collective(opcode: str, size: int,
                               n_ranks: int = 8) -> float:
    return mpi_f2f_collective_time(opcode, size, n_ranks)


@point_kernel("accl_p2p")
def _kernel_accl_p2p(size: int, n_msgs: int, location: str) -> float:
    return _accl_p2p_time(size, n_msgs, BufferLocation(location))


@point_kernel("mpi_p2p")
def _kernel_mpi_p2p(size: int, n_msgs: int) -> float:
    return _mpi_p2p_time(size, n_msgs)


@point_kernel("fig08_host_nop")
def _kernel_fig08_host_nop(platform: str, protocol: str,
                           repeats: int) -> float:
    cluster = build_fpga_cluster(2, protocol=protocol, platform=platform)
    driver = attach_drivers(cluster)[0]
    times = []
    for _ in range(repeats):
        req = driver.nop()
        req.wait()
        times.append(req.duration)
    return float(np.mean(times))


@point_kernel("fig08_kernel_nop")
def _kernel_fig08_kernel_nop(repeats: int) -> float:
    cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
    engine = cluster.engine(0)
    env = cluster.env
    times = []

    def proc():
        for _ in range(repeats):
            start = env.now
            yield engine.platform.invoke_from_kernel()
            yield engine.call(CollectiveArgs(opcode="nop"))
            times.append(env.now - start)

    env.run(until=env.process(proc()))
    return float(np.mean(times))


@point_kernel("fig09_breakdown")
def _kernel_fig09_breakdown(size: int, n_ranks: int) -> Dict[str, float]:
    cluster = build_mpi_cluster(n_ranks)
    model = F2fMpiModel(cluster)
    breakdown = model.run(
        lambda me: mpi_alg.mpi_bcast(me, None, size, 0, 0),
        in_bytes=lambda r: size if r == 0 else 0,
        out_bytes=lambda r: 0 if r == 0 else size,
    )
    return dict(breakdown.as_dict())


@point_kernel("vecmat")
def _kernel_vecmat(fc_size: int, ranks: int, backend: str) -> dict:
    from repro.apps.vecmat import run_distributed_vecmat

    r = run_distributed_vecmat(fc_size, fc_size, ranks, backend)
    return {
        "fc_size": fc_size,
        "ranks": ranks,
        "backend": backend,
        "compute_us": units.to_us(r.compute_time),
        "reduce_us": units.to_us(r.reduction_time),
        "speedup": float(r.speedup),
        "correct": bool(r.result_ok),
    }


@point_kernel("dlrm")
def _kernel_dlrm(n_inferences: int) -> dict:
    from repro.apps.dlrm import CpuDlrmBaseline, DistributedDlrm, DlrmModel

    model = DlrmModel()
    dlrm = DistributedDlrm(model)
    queries = model.make_queries(n_inferences)
    stats = dlrm.run(queries)
    reference = model.forward_batch(queries)
    cpu = CpuDlrmBaseline()
    return {
        "accl": {
            "latency_us": units.to_us(stats.mean_latency),
            "p99_us": units.to_us(stats.p99_latency),
            "throughput": float(stats.throughput),
            "correct": bool(np.allclose(stats.outputs, reference,
                                        rtol=1e-3, atol=1e-4)),
        },
        "cpu": [
            {"batch": int(b), "latency_ms": units.to_ms(lat),
             "throughput": float(thr)}
            for b, lat, thr in cpu.sweep()
        ],
        "cpu_best_throughput": float(cpu.best_throughput()),
    }


@point_kernel("tab01")
def _kernel_tab01() -> List[dict]:
    from repro.cclo.config_mem import AlgorithmParams
    from repro.collectives import AlgorithmSelector

    selector = AlgorithmSelector()
    params = AlgorithmParams()
    rows = []
    comm_small = CommunicatorConfig(0, 0, list(range(4)), protocol="rdma")
    comm_large = CommunicatorConfig(0, 0, list(range(8)), protocol="rdma")
    comm_udp = CommunicatorConfig(0, 0, list(range(8)), protocol="udp")
    small, large = 2 * KIB, 256 * KIB
    for opcode in ("bcast", "reduce", "gather", "alltoall"):
        eager = selector.choose(
            CollectiveArgs(opcode=opcode, nbytes=small, protocol="eager"),
            comm_udp, params)
        rndz_small = selector.choose(
            CollectiveArgs(opcode=opcode, nbytes=small, protocol="rndz"),
            comm_small, params)
        rndz_large = selector.choose(
            CollectiveArgs(opcode=opcode, nbytes=large, protocol="rndz"),
            comm_large, params)
        rows.append({
            "collective": opcode,
            "eager": eager,
            "rndz_small": rndz_small,
            "rndz_large": rndz_large,
        })
    return rows


@point_kernel("tab02")
def _kernel_tab02() -> List[dict]:
    from repro.apps.dlrm import DlrmConfig

    config = DlrmConfig()
    return [{
        "Tables": config.num_tables,
        "Concat Vec Len": config.concat_len,
        "FC Layers": str(config.fc_dims),
        "Embed Size": f"{config.embed_bytes / 1e9:.0f}GB",
    }]


@point_kernel("tab03")
def _kernel_tab03() -> List[dict]:
    rows = []
    for name, pct in utilization_table():
        rows.append({"component": name,
                     **{k: round(v, 1) for k, v in pct.items()}})
    return rows


# ---------------------------------------------------------------------------
# Figure 7: send/recv throughput
# ---------------------------------------------------------------------------

def _accl_p2p_time(size: int, n_msgs: int,
                   location: BufferLocation) -> float:
    cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
    p0, p1 = (cluster.nodes[0].platform, cluster.nodes[1].platform)
    events = []
    for i in range(n_msgs):
        rbuf = p1.allocate(size, location).view()
        sbuf = p0.allocate(size, location).view()
        events.append(cluster.engine(1).call(CollectiveArgs(
            opcode="recv", nbytes=size, peer=0, tag=i, rbuf=rbuf)))
        events.append(cluster.engine(0).call(CollectiveArgs(
            opcode="send", nbytes=size, peer=1, tag=i, sbuf=sbuf)))
    start = cluster.env.now
    cluster.env.run(until=all_of(cluster.env, events))
    return cluster.env.now - start


def _mpi_p2p_time(size: int, n_msgs: int) -> float:
    cluster = build_mpi_cluster(2)

    def proc(me):
        events = []
        for i in range(n_msgs):
            if me.rank == 0:
                events.append(me.isend(None, size, dst=1, tag=i))
            else:
                events.append(me.irecv(None, size, src=0, tag=i))
        for ev in events:
            yield ev

    return cluster.run_all(proc)


def run_fig07_sendrecv_throughput(sizes=None, n_msgs: int = 4,
                                  runner: Optional[SweepRunner] = None,
                                  ) -> List[dict]:
    """Throughput in Gb/s per transfer size, all four series of Figure 7."""
    sizes = sizes or [64 * KIB, units.MIB, 16 * MIB, 64 * MIB, 256 * MIB]
    runner = runner or SweepRunner()
    points = []
    for size in sizes:
        points += [
            SweepPoint.make("fig07", "accl_p2p", size=size, n_msgs=n_msgs,
                            location="device"),
            SweepPoint.make("fig07", "accl_p2p", size=size, n_msgs=n_msgs,
                            location="host"),
            SweepPoint.make("fig07", "mpi_p2p", size=size, n_msgs=n_msgs),
        ]
    times = runner.run(points)
    rows = []
    for i, size in enumerate(sizes):
        f2f, h2h, mpi = times[3 * i:3 * i + 3]
        total = n_msgs * size
        rows.append({
            "size": units.pretty_size(size),
            "accl_f2f_gbps": units.to_gbps(total / f2f),
            "accl_h2h_gbps": units.to_gbps(total / h2h),
            "mpi_rdma_gbps": units.to_gbps(total / mpi),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 8: CCLO invocation latency
# ---------------------------------------------------------------------------

def run_fig08_invocation_latency(repeats: int = 5,
                                 runner: Optional[SweepRunner] = None,
                                 ) -> List[dict]:
    """NOP invocation latency from FPGA kernel / Coyote host / XRT host."""
    runner = runner or SweepRunner()
    points = [
        SweepPoint.make("fig08", "fig08_kernel_nop", repeats=repeats),
        SweepPoint.make("fig08", "fig08_host_nop", platform="coyote",
                        protocol="rdma", repeats=repeats),
        SweepPoint.make("fig08", "fig08_host_nop", platform="vitis",
                        protocol="tcp", repeats=repeats),
    ]
    kernel, coyote, xrt = runner.run(points)
    return [
        {"caller": "FPGA kernel", "latency_us": units.to_us(kernel)},
        {"caller": "Coyote host", "latency_us": units.to_us(coyote)},
        {"caller": "XRT host", "latency_us": units.to_us(xrt)},
    ]


# ---------------------------------------------------------------------------
# Figure 9: latency breakdown of MPI-based F2F broadcast
# ---------------------------------------------------------------------------

def run_fig09_f2f_breakdown(sizes=None, n_ranks: int = 8,
                            runner: Optional[SweepRunner] = None,
                            ) -> List[dict]:
    sizes = sizes or [4 * KIB, 64 * KIB, units.MIB, 16 * MIB, 64 * MIB]
    runner = runner or SweepRunner()
    points = [SweepPoint.make("fig09", "fig09_breakdown",
                              size=size, n_ranks=n_ranks)
              for size in sizes]
    breakdowns = runner.run(points)
    rows = []
    for size, d in zip(sizes, breakdowns):
        rows.append({
            "size": units.pretty_size(size),
            **{k: units.to_us(v) for k, v in d.items()},
        })
    return rows


# ---------------------------------------------------------------------------
# Figures 10/11: collective latency, F2F and H2H
# ---------------------------------------------------------------------------

def run_fig10_f2f_collectives(sizes=None, n_ranks: int = 8,
                              runner: Optional[SweepRunner] = None,
                              ) -> Dict[str, Dict]:
    """F2F: ACCL+ RDMA on device data vs software MPI with the PCIe detour.

    Returns ``{collective: {size_label: (accl_us, mpi_us)}}``.
    """
    sizes = sizes or [KIB, 16 * KIB, 256 * KIB, 4 * MIB]
    runner = runner or SweepRunner()
    grid = [(opcode, size) for opcode in COLLECTIVES for size in sizes]
    points = []
    for opcode, size in grid:
        points += [
            SweepPoint.make("fig10", "accl_best_protocol", opcode=opcode,
                            size=size, n_nodes=n_ranks, location="device",
                            via_driver=False),
            SweepPoint.make("fig10", "mpi_f2f_collective", opcode=opcode,
                            size=size, n_ranks=n_ranks),
        ]
    times = runner.run(points)
    result: Dict[str, Dict] = {opcode: {} for opcode in COLLECTIVES}
    for i, (opcode, size) in enumerate(grid):
        accl, mpi = times[2 * i:2 * i + 2]
        result[opcode][units.pretty_size(size)] = (
            units.to_us(accl), units.to_us(mpi))
    return result


def run_fig11_h2h_collectives(sizes=None, n_ranks: int = 8,
                              runner: Optional[SweepRunner] = None,
                              ) -> Dict[str, Dict]:
    """H2H: ACCL+ as offload engine on host data vs plain software MPI."""
    sizes = sizes or [KIB, 16 * KIB, 256 * KIB, 4 * MIB]
    runner = runner or SweepRunner()
    grid = [(opcode, size) for opcode in COLLECTIVES for size in sizes]
    points = []
    for opcode, size in grid:
        points += [
            SweepPoint.make("fig11", "accl_best_protocol", opcode=opcode,
                            size=size, n_nodes=n_ranks, location="host",
                            via_driver=True),
            SweepPoint.make("fig11", "mpi_collective", opcode=opcode,
                            size=size, n_ranks=n_ranks),
        ]
    times = runner.run(points)
    result: Dict[str, Dict] = {opcode: {} for opcode in COLLECTIVES}
    for i, (opcode, size) in enumerate(grid):
        accl, mpi = times[2 * i:2 * i + 2]
        result[opcode][units.pretty_size(size)] = (
            units.to_us(accl), units.to_us(mpi))
    return result


# ---------------------------------------------------------------------------
# Figure 12: reduce latency vs rank count
# ---------------------------------------------------------------------------

def run_fig12_reduce_scalability(rank_range=range(2, 9),
                                 sizes=(8 * KIB, 128 * KIB),
                                 runner: Optional[SweepRunner] = None,
                                 ) -> Dict[str, Dict]:
    """Latency-vs-ranks series for ACCL+ and software MPI (both sizes)."""
    ranks = list(rank_range)
    runner = runner or SweepRunner()
    grid = [(size, n) for size in sizes for n in ranks]
    points = []
    for size, n in grid:
        points += [
            SweepPoint.make("fig12", "accl_collective", opcode="reduce",
                            size=size, n_nodes=n, location="device",
                            sync_protocol="rndz"),
            SweepPoint.make("fig12", "mpi_collective", opcode="reduce",
                            size=size, n_ranks=n),
        ]
    times = runner.run(points)
    series: Dict[str, Dict] = {}
    for size in sizes:
        label = units.pretty_size(size)
        series[f"accl_{label}"] = {}
        series[f"mpi_{label}"] = {}
    for i, (size, n) in enumerate(grid):
        accl, mpi = times[2 * i:2 * i + 2]
        label = units.pretty_size(size)
        series[f"accl_{label}"][n] = units.to_us(accl)
        series[f"mpi_{label}"][n] = units.to_us(mpi)
    return series


# ---------------------------------------------------------------------------
# Figure 13: TCP on the XRT platform, vs software MPI TCP and ACCL v1
# ---------------------------------------------------------------------------

def run_fig13_tcp_xrt(sizes=None, n_ranks: int = 4,
                      opcodes=("bcast", "reduce"),
                      runner: Optional[SweepRunner] = None,
                      ) -> Dict[str, Dict]:
    sizes = sizes or [4 * KIB, 64 * KIB, 512 * KIB]
    runner = runner or SweepRunner()
    grid = [(opcode, size) for opcode in opcodes for size in sizes]
    points = []
    for opcode, size in grid:
        points += [
            SweepPoint.make("fig13", "accl_collective", opcode=opcode,
                            size=size, n_nodes=n_ranks, protocol="tcp",
                            platform="vitis", location="device"),
            SweepPoint.make("fig13", "accl_collective", opcode=opcode,
                            size=size, n_nodes=n_ranks, protocol="tcp",
                            platform="vitis", location="host",
                            via_driver=True),
            SweepPoint.make("fig13", "accl_collective", opcode=opcode,
                            size=size, n_nodes=n_ranks, protocol="tcp",
                            platform="vitis", location="device",
                            engine="accl_v1"),
            SweepPoint.make("fig13", "mpi_collective", opcode=opcode,
                            size=size, n_ranks=n_ranks, library="mpich",
                            transport="tcp"),
        ]
    times = runner.run(points)
    result: Dict[str, Dict] = {opcode: {} for opcode in opcodes}
    for i, (opcode, size) in enumerate(grid):
        accl_f2f, accl_h2h, v1_f2f, mpi = times[4 * i:4 * i + 4]
        result[opcode][units.pretty_size(size)] = {
            "accl+_f2f_us": units.to_us(accl_f2f),
            "accl+_h2h_us": units.to_us(accl_h2h),
            "accl_v1_us": units.to_us(v1_f2f),
            "mpi_tcp_us": units.to_us(mpi),
        }
    return result


# ---------------------------------------------------------------------------
# Table 1: the algorithm-selection table
# ---------------------------------------------------------------------------

def run_tab01_algorithm_table(runner: Optional[SweepRunner] = None,
                              ) -> List[dict]:
    """Regenerate Table 1 from the live selector."""
    runner = runner or SweepRunner()
    return runner.run_one(SweepPoint.make("tab01", "tab01"))


# ---------------------------------------------------------------------------
# Table 2: parameters of the target recommendation model
# ---------------------------------------------------------------------------

def run_tab02_dlrm_config(runner: Optional[SweepRunner] = None) -> List[dict]:
    """Regenerate Table 2 (the DLRM model parameters, DESIGN.md §4)."""
    runner = runner or SweepRunner()
    return runner.run_one(SweepPoint.make("tab02", "tab02"))


# ---------------------------------------------------------------------------
# Figure 16: distributed vector-matrix multiplication
# ---------------------------------------------------------------------------

def run_fig16_vecmat(sizes=(2048, 4096, 8192),
                     rank_counts=(2, 4, 8),
                     runner: Optional[SweepRunner] = None) -> List[dict]:
    runner = runner or SweepRunner()
    points = [
        SweepPoint.make("fig16", "vecmat", fc_size=fc_size, ranks=ranks,
                        backend=backend)
        for fc_size in sizes
        for ranks in rank_counts
        for backend in ("accl", "mpi")
    ]
    return runner.run(points)


# ---------------------------------------------------------------------------
# Figure 17: DLRM latency and throughput
# ---------------------------------------------------------------------------

def run_fig17_dlrm(n_inferences: int = 48,
                   runner: Optional[SweepRunner] = None) -> dict:
    runner = runner or SweepRunner()
    return runner.run_one(
        SweepPoint.make("fig17", "dlrm", n_inferences=n_inferences))


# ---------------------------------------------------------------------------
# Figure X: collective completion time vs cluster size (scale study)
# ---------------------------------------------------------------------------

def scale_topology_factory(fabric: str, n_nodes: int) -> Callable:
    """Factory for the smallest fat tree holding ``n_nodes`` hosts: the
    smallest even ``k`` with ``k^3/4 >= n_nodes``.  ``"fattree"`` is the
    only *fabric*."""
    from repro.network.topology import FatTreeTopology

    if fabric != "fattree":
        raise ValueError(f"unknown fabric {fabric!r}")
    k = 2
    while k ** 3 // 4 < n_nodes:
        k += 2
    return lambda env: FatTreeTopology(env, k=k)


@point_kernel("scale_collective")
def _kernel_scale_collective(opcode: str, size: int, n_nodes: int,
                             algorithm: Optional[str] = None,
                             sync_protocol: str = "rndz") -> float:
    factory = scale_topology_factory("fattree", n_nodes)
    return accl_collective_time(
        opcode, size, n_nodes=n_nodes, sync_protocol=sync_protocol,
        algorithm=algorithm,
        cluster_builder=lambda n, **kw: build_fpga_cluster(
            n, topology_factory=factory, **kw))


#: (collective, algorithm) pairs of the scale study; ``None`` = selector.
SCALE_GRID = (
    ("allreduce", "ring"),
    ("allreduce", "reduce_bcast"),
    ("bcast", None),
)


def run_figX_scale(node_counts=(16, 64, 256), size: int = 16 * MIB,
                   runner: Optional[SweepRunner] = None) -> List[dict]:
    """Collective completion time vs cluster size on a large fabric.

    One hermetic fat-tree cluster per point, swept over nodes x collective
    x algorithm.  Message sizes sit above the flow-mode fast-forward floor
    for the whole-message algorithms, so this is the artifact that
    exercises cluster scale in both fidelity modes.
    ``busbw_gbps`` is bus bandwidth as nccl-tests defines it
    (https://github.com/NVIDIA/nccl-tests/blob/master/doc/PERFORMANCE.md):
    size / time, times 2(n-1)/n for an allreduce and 1 for a bcast.
    """
    runner = runner or SweepRunner()
    grid = [(n, opcode, algorithm)
            for n in node_counts
            for opcode, algorithm in SCALE_GRID]
    points = [
        SweepPoint.make("figX_scale", "scale_collective", opcode=opcode,
                        size=size, n_nodes=n, algorithm=algorithm)
        for n, opcode, algorithm in grid
    ]
    times = runner.run(points)
    rows = []
    for (n, opcode, algorithm), t in zip(grid, times):
        factor = 2 * (n - 1) / n if opcode == "allreduce" else 1.0
        rows.append({
            "nodes": n,
            "collective": opcode,
            "algorithm": algorithm or "auto",
            "size": units.pretty_size(size),
            "time_us": units.to_us(t),
            "busbw_gbps": units.to_gbps(size / t * factor),
        })
    return rows


# ---------------------------------------------------------------------------
# Table 3: resource utilization
# ---------------------------------------------------------------------------

def run_tab03_resources(runner: Optional[SweepRunner] = None) -> List[dict]:
    runner = runner or SweepRunner()
    return runner.run_one(SweepPoint.make("tab03", "tab03"))
