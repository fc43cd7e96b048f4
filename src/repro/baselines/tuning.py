"""MPI's fine-grained algorithm selection tables.

The paper (Fig 12 discussion): "software MPI exhibits a more fine-grained
approach to algorithm selection based on the scale of the message size and
the number of nodes.  For instance, it deploys three distinct algorithms
within the 8 KB range: an all-to-one algorithm for fewer than four nodes, a
ring protocol for four to eight nodes, and an optimized binomial algorithm
for 8 nodes.  Additionally, for larger messages, software MPI switches
between an all-to-one algorithm below three nodes and a binomial tree
algorithm between four and eight nodes."

These tables encode exactly that narrative (plus conventional OpenMPI-style
choices for the collectives the paper does not spell out).
"""

from __future__ import annotations

from repro import units


class MpiTuning:
    """Decision functions: (nbytes, nprocs) -> algorithm name."""

    SMALL = 32 * units.KIB
    LARGE = 512 * units.KIB

    def bcast(self, nbytes: int, nprocs: int) -> str:
        if nbytes <= self.SMALL or nprocs <= 4:
            return "binomial"
        return "scatter_allgather"  # van de Geijn for large messages

    def reduce(self, nbytes: int, nprocs: int) -> str:
        if nbytes <= self.SMALL:
            if nprocs < 4:
                return "linear"
            if nprocs < 8:
                return "chain"
            return "binomial"
        if nbytes <= self.LARGE:
            return "linear" if nprocs <= 3 else "binomial"
        return "reduce_scatter_gather"  # Rabenseifner for the largest sizes

    def allreduce(self, nbytes: int, nprocs: int) -> str:
        if nbytes <= 2 * self.SMALL:
            return "recursive_doubling"
        return "ring"

    def gather(self, nbytes: int, nprocs: int) -> str:
        return "linear" if nbytes <= 2 * self.SMALL else "binomial"

    def scatter(self, nbytes: int, nprocs: int) -> str:
        return "linear" if nbytes <= 2 * self.SMALL else "binomial"
