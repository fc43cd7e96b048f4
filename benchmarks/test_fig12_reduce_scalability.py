"""Figure 12: reduce latency vs rank count, 8 KB and 128 KB messages.

Paper shape:

- ACCL+ 8 KB uses all-to-one: minimal latency increase across nodes.
- ACCL+ 128 KB uses a binary tree: latency steps up after four nodes, then
  stabilizes until eight (constant tree depth).
- Software MPI selects finer-grained: for 8 KB, all-to-one (<4 nodes), a
  chain (4-8) and an optimized binomial at 8 nodes.
"""

from repro.bench import run_fig12_reduce_scalability
from repro.bench.artifacts import ARTIFACTS
from conftest import attach_point_metrics, emit


def test_fig12_reduce_scalability(benchmark, sweep_runner):
    series = benchmark.pedantic(run_fig12_reduce_scalability,
                                kwargs={"runner": sweep_runner},
                                rounds=1, iterations=1)
    emit(ARTIFACTS["fig12"].render(series))
    attach_point_metrics(benchmark, sweep_runner, n_latest=28)

    accl_small = series["accl_8KiB"]
    accl_large = series["accl_128KiB"]
    mpi_small = series["mpi_8KiB"]

    # 8 KB all-to-one: minimal increase from 2 to 8 ranks.
    growth = accl_small[8] / accl_small[2]
    benchmark.extra_info["accl_8k_growth"] = growth
    assert growth < 2.0

    # 128 KB binary tree: a step when depth grows, then a plateau —
    # 5..8 ranks share depth 3, so latency is flat there.
    assert accl_large[5] > accl_large[4]
    assert abs(accl_large[8] - accl_large[5]) / accl_large[5] < 0.1

    # MPI's 8-rank binomial beats its own 7-rank chain (the paper's
    # "optimized binomial algorithm for 8 nodes").
    assert mpi_small[8] < mpi_small[7]
    # ...and the chain grows linearly in between.
    assert mpi_small[7] > mpi_small[5] > mpi_small[4]
