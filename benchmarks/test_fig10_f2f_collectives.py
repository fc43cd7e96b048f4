"""Figure 10: F2F collective latency, ACCL+ RDMA vs software MPI RDMA,
eight ranks, device-resident data.

Paper shape: "ACCL+ exhibits significant performance benefits compared to
its software counterpart", which must detour device data over PCIe through
the CPU.  The better of eager/rendezvous is shown per point, as the paper
presents.
"""

from repro import units
from repro.bench import run_fig10_f2f_collectives
from repro.bench.artifacts import ARTIFACTS
from conftest import emit

SIZES = [units.KIB, 16 * units.KIB, 256 * units.KIB, 4 * units.MIB]


def test_fig10_f2f_collectives(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig10_f2f_collectives(sizes=SIZES),
        rounds=1, iterations=1,
    )
    wins = 0
    cells = 0
    for by_size in result.values():
        for accl, mpi in by_size.values():
            cells += 1
            wins += accl < mpi
    emit(ARTIFACTS["fig10"].render(result))
    benchmark.extra_info["accl_win_fraction"] = wins / cells

    # ACCL+ wins the overwhelming majority of operating points...
    assert wins / cells >= 0.9
    # ...including every small/mid-size point, where bypassing the
    # PCIe+invocation detour matters most.
    for opcode, by_size in result.items():
        for size_label in ("1KiB", "16KiB", "256KiB"):
            accl, mpi = by_size[size_label]
            assert accl < mpi, (opcode, size_label)
