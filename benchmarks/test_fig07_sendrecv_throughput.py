"""Figure 7: send/recv throughput vs message size.

Paper shape: ACCL+ RDMA peaks near 95 Gb/s, F2F and H2H are nearly
indistinguishable (Coyote unified memory), and software MPI over RDMA peaks
slightly lower.
"""

from repro.bench import run_fig07_sendrecv_throughput
from repro.bench.artifacts import ARTIFACTS
from conftest import emit

SIZES = [65536, 1048576, 16 * 1048576, 64 * 1048576]


def test_fig07_sendrecv_throughput(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig07_sendrecv_throughput(sizes=SIZES),
        rounds=1, iterations=1,
    )
    emit(ARTIFACTS["fig07"].render(rows))
    peak = rows[-1]
    benchmark.extra_info["accl_f2f_peak_gbps"] = peak["accl_f2f_gbps"]
    benchmark.extra_info["mpi_peak_gbps"] = peak["mpi_rdma_gbps"]

    # ACCL+ nearly saturates the 100 Gb/s link...
    assert peak["accl_f2f_gbps"] > 90
    # ...with minimal distinction between F2F and H2H (unified memory)...
    assert abs(peak["accl_f2f_gbps"] - peak["accl_h2h_gbps"]) < 5
    # ...and a slightly higher peak than software MPI.
    assert peak["accl_f2f_gbps"] > peak["mpi_rdma_gbps"]
    # Throughput ramps with message size.
    assert rows[0]["accl_f2f_gbps"] < peak["accl_f2f_gbps"]
