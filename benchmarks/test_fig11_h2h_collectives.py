"""Figure 11: H2H collective latency, ACCL+ as offload engine vs software
MPI, eight ranks, host-resident data.

Paper shape: "the performance gains with ACCL+ vary across different
collectives...  for broadcast and gather ACCL+ consistently outperforms
software MPI across a range of message sizes.  However, for other
collectives such as reduce and all-to-all, ACCL+ shows only marginal
benefits and, in some cases, falls short of software MPI."
"""

from repro import units
from repro.bench import run_fig11_h2h_collectives
from repro.bench.artifacts import ARTIFACTS
from conftest import emit

SIZES = [units.KIB, 16 * units.KIB, 256 * units.KIB, 4 * units.MIB]


def test_fig11_h2h_collectives(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig11_h2h_collectives(sizes=SIZES),
        rounds=1, iterations=1,
    )
    emit(ARTIFACTS["fig11"].render(result))

    # Broadcast: ACCL+ ahead across a range of message sizes.
    bcast = result["bcast"]
    bcast_wins = sum(a < m for a, m in bcast.values())
    assert bcast_wins >= 3
    benchmark.extra_info["bcast_wins"] = bcast_wins

    # Reduce / all-to-all: marginal at best — some points fall short,
    # and nothing runs away (within ~2x either direction at mid sizes).
    for opcode in ("reduce", "alltoall"):
        losses = sum(a > m for a, m in result[opcode].values())
        assert losses >= 1, f"{opcode} unexpectedly dominates MPI everywhere"
        for size_label in ("16KiB", "256KiB"):
            accl, mpi = result[opcode][size_label]
            assert 0.3 < accl / mpi < 2.5, (opcode, size_label)
