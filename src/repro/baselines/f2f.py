"""The FPGA-to-FPGA-via-CPU baseline (§5, Figure 9).

"We model the execution time for MPICH- and OpenMPI-based device-to-device
data movement, which includes: (1) moving data from FPGA HBM/kernel to host
DDR through the PCIe, (2) executing the collective using software MPI, (3)
moving data from host DDR to FPGA HBM/kernel, and (4) invoking the next
computation kernel."

:class:`F2fMpiModel` wraps an :class:`~repro.baselines.mpi.MpiCluster` with
per-node PCIe links and produces both the end-to-end time and the per-phase
breakdown Figure 9 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.baselines.mpi import MpiCluster
from repro.memory import PcieLink
from repro.sim import all_of
from repro import units


@dataclass
class F2fBreakdown:
    """Per-phase wall time of one device-to-device collective."""

    pcie_in: float       # FPGA -> host DDR staging
    collective: float    # software MPI on host data
    pcie_out: float      # host DDR -> FPGA staging
    invocation: float    # kicking the next FPGA kernel

    @property
    def total(self) -> float:
        return self.pcie_in + self.collective + self.pcie_out + self.invocation

    def as_dict(self) -> Dict[str, float]:
        return {
            "pcie_in": self.pcie_in,
            "collective": self.collective,
            "pcie_out": self.pcie_out,
            "invocation": self.invocation,
            "total": self.total,
        }


class F2fMpiModel:
    """Software-MPI collectives on device-resident data."""

    #: driver-side cost of one staging round: user-space call, DMA doorbell,
    #: completion polling — paid on top of the wire DMA time and the reason
    #: "PCIe transfer time is dominant for small messages" (Fig 9).
    STAGING_OVERHEAD = units.us(8)

    def __init__(self, cluster: MpiCluster,
                 invocation_latency: float = units.us(2.3),
                 staging_overhead: float = STAGING_OVERHEAD):
        self.cluster = cluster
        self.env = cluster.env
        self.invocation_latency = invocation_latency
        self.staging_overhead = staging_overhead
        self.pcie: List[PcieLink] = [
            PcieLink(self.env, name=f"f2f.pcie{r}")
            for r in range(cluster.size)
        ]

    def _phase(self, delays) -> float:
        """Run until the slowest of the charged DMAs (*delays*) completes."""
        start = self.env.now
        self.env.run(until=self.env.timeout(max(delays)))
        return self.env.now - start + self.staging_overhead

    def run(
        self,
        make_collective: Callable,
        in_bytes: Callable[[int], int],
        out_bytes: Callable[[int], int],
    ) -> F2fBreakdown:
        """Run one device-data collective and return the phase breakdown.

        ``make_collective(rank_obj)`` builds the MPI collective generator;
        ``in_bytes(rank)`` / ``out_bytes(rank)`` give the staging volume per
        rank (0 for ranks whose data does not cross PCIe in that phase).
        """
        pcie_in = self._phase(
            self.pcie[r].dma_d2h_delay(in_bytes(r))
            for r in range(self.cluster.size) if in_bytes(r) > 0
        ) if any(in_bytes(r) for r in range(self.cluster.size)) else 0.0

        start = self.env.now
        procs = [
            self.env.process(make_collective(rank_obj),
                             name=f"f2f{rank_obj.rank}")
            for rank_obj in self.cluster.ranks
        ]
        self.env.run(until=all_of(self.env, procs))
        collective = self.env.now - start

        pcie_out = self._phase(
            self.pcie[r].dma_h2d_delay(out_bytes(r))
            for r in range(self.cluster.size) if out_bytes(r) > 0
        ) if any(out_bytes(r) for r in range(self.cluster.size)) else 0.0

        return F2fBreakdown(
            pcie_in=pcie_in,
            collective=collective,
            pcie_out=pcie_out,
            invocation=self.invocation_latency,
        )
