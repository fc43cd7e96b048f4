"""Ablation: streaming collectives vs MPI-like (buffered) collectives.

The streaming API exists because FPGA kernels *produce data over time*:
pushing each burst into the CCLO as it is computed overlaps production with
transmission, while the MPI-like path must materialize the whole result in
memory before the collective can start ("determining whether data needs to
be buffered in memory before communication", §1).  This ablation models a
kernel producing at the CCLO datapath rate and compares both paths.
"""

from repro import units
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.platform.base import BufferLocation
from repro.sim import all_of
from repro.bench.formats import format_rows
from conftest import emit

SIZES = [256 * units.KIB, units.MIB, 4 * units.MIB]
PRODUCTION_RATE = 16e9  # bytes/s the kernel generates (64 B/cy @ 250 MHz)
CHUNK = 32 * units.KIB


def _streamed_send(size):
    """Kernel pushes bursts into the CCLO as it produces them."""
    cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
    env = cluster.env
    engine = cluster.engine(0)
    rview = cluster.nodes[1].platform.allocate(
        size, BufferLocation.DEVICE).view()
    recv_ev = cluster.engine(1).call(CollectiveArgs(
        opcode="recv", nbytes=size, peer=0, tag=0, rbuf=rview))

    def kernel():
        engine.call(CollectiveArgs(
            opcode="send", nbytes=size, peer=1, tag=0, from_stream=True))
        remaining = size
        while remaining > 0:
            nbytes = min(CHUNK, remaining)
            yield env.timeout(nbytes / PRODUCTION_RATE)  # compute the burst
            yield engine.kernel_data_in.put((nbytes, None))
            remaining -= nbytes

    env.process(kernel())
    env.run(until=all_of(env, [recv_ev]))
    return env.now


def _staged_send(size):
    """Kernel materializes its whole result in memory, then sends."""
    cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
    env = cluster.env
    engine = cluster.engine(0)
    platform = cluster.nodes[0].platform
    sbuf = platform.allocate(size, BufferLocation.DEVICE)
    sview = sbuf.view()
    rview = cluster.nodes[1].platform.allocate(
        size, BufferLocation.DEVICE).view()
    recv_ev = cluster.engine(1).call(CollectiveArgs(
        opcode="recv", nbytes=size, peer=0, tag=0, rbuf=rview))

    def kernel():
        yield env.timeout(size / PRODUCTION_RATE)  # compute the whole result
        # buffer it in memory
        yield platform.device_access_delay(sbuf, size, "write")
        yield engine.call(CollectiveArgs(
            opcode="send", nbytes=size, peer=1, tag=0, sbuf=sview))

    env.process(kernel())
    env.run(until=all_of(env, [recv_ev]))
    return env.now


def sweep():
    rows = []
    for size in SIZES:
        rows.append({
            "size": units.pretty_size(size),
            "streamed_us": units.to_us(_streamed_send(size)),
            "staged_us": units.to_us(_staged_send(size)),
        })
    return rows


def test_ablation_streaming(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(format_rows(
        rows, ["size", "streamed_us", "staged_us"],
        title="Ablation — streaming vs buffered kernel send "
              "(kernel producing at 16 GB/s)",
    ))
    for row in rows:
        assert row["streamed_us"] < row["staged_us"], row
    # At large sizes the buffered path approaches produce-then-send (~2x).
    big = rows[-1]
    assert big["staged_us"] / big["streamed_us"] > 1.4
    benchmark.extra_info["overlap_speedup_4m"] = (
        big["staged_us"] / big["streamed_us"])
