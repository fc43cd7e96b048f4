"""Figure 9: latency breakdown of broadcasting FPGA-produced data with
software MPI (8 ranks).

Paper shape: the PCIe transfer time dominates for small messages while the
collective time dominates for large messages.
"""

from repro.bench import run_fig09_f2f_breakdown
from repro.bench.artifacts import ARTIFACTS
from conftest import emit


def test_fig09_mpi_f2f_breakdown(benchmark):
    rows = benchmark.pedantic(run_fig09_f2f_breakdown, rounds=1, iterations=1)
    emit(ARTIFACTS["fig09"].render(rows))
    smallest, largest = rows[0], rows[-1]
    benchmark.extra_info["small_pcie_share"] = (
        (smallest["pcie_in"] + smallest["pcie_out"]) / smallest["total"])
    benchmark.extra_info["large_collective_share"] = (
        largest["collective"] / largest["total"])

    # PCIe (plus invocation overhead) dominates small messages...
    small_pcie = smallest["pcie_in"] + smallest["pcie_out"]
    assert small_pcie + smallest["invocation"] > smallest["collective"]
    # ...and the collective dominates large messages.
    assert largest["collective"] > largest["pcie_in"] + largest["pcie_out"]
