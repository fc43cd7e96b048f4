"""Figure 13: ACCL+ TCP on the XRT platform vs software MPI TCP vs ACCL v1.

Paper shape: ACCL+ TCP consistently outperforms software MPI TCP (line-rate
hardware POE) and outperforms ACCL v1 (whose uC does per-packet work the
ACCL+ RBM offloads); serving *host* applications on XRT carries a large
staging + invocation overhead compared to device applications.
"""

from repro.bench import run_fig13_tcp_xrt
from repro.bench.artifacts import ARTIFACTS
from conftest import emit


def test_fig13_tcp_xrt(benchmark):
    result = benchmark.pedantic(run_fig13_tcp_xrt, rounds=1, iterations=1)
    emit(ARTIFACTS["fig13"].render(result))

    for opcode, by_size in result.items():
        for size_label, vals in by_size.items():
            point = (opcode, size_label)
            # ACCL+ F2F beats software MPI TCP everywhere.
            assert vals["accl+_f2f_us"] < vals["mpi_tcp_us"], point
            # ACCL+ beats its predecessor, with the gap widening with size
            # (uC-side packet handling saturates the v1 engine).
            assert vals["accl+_f2f_us"] < vals["accl_v1_us"], point
            # XRT host applications pay staging + invocation overheads.
            assert vals["accl+_h2h_us"] > vals["accl+_f2f_us"], point

    large = result["bcast"]["512KiB"]
    benchmark.extra_info["v1_gap_512k"] = (
        large["accl_v1_us"] / large["accl+_f2f_us"])
    assert large["accl_v1_us"] / large["accl+_f2f_us"] > 1.5
