"""Table 1: algorithms used for example collectives.

Regenerated from the live selector.  Expected contents:

| Collective | Eager      | Rendezvous                      |
|------------|------------|---------------------------------|
| Bcast      | One-to-all | One-to-all; Recursive doubling  |
| Reduce     | Ring       | All-to-one; Binary tree         |
| Gather     | Ring       | All-to-one; Binary tree         |
| All-to-all | Linear     | Linear                          |
"""

from repro.bench import run_tab01_algorithm_table
from repro.bench.artifacts import ARTIFACTS
from conftest import emit

EXPECTED = {
    "bcast": ("one_to_all", "one_to_all", "recursive_doubling"),
    "reduce": ("ring", "all_to_one", "binary_tree"),
    "gather": ("ring", "all_to_one", "binary_tree"),
    "alltoall": ("linear", "linear", "linear"),
}


def test_tab01_algorithm_table(benchmark):
    rows = benchmark.pedantic(run_tab01_algorithm_table,
                              rounds=1, iterations=1)
    emit(ARTIFACTS["tab01"].render(rows))
    for row in rows:
        expected = EXPECTED[row["collective"]]
        got = (row["eager"], row["rndz_small"], row["rndz_large"])
        assert got == expected, row["collective"]
