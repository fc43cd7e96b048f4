#!/usr/bin/env python3
"""Count the Python calls one benchmark pass makes inside its op blocks.

Run from the repository root::

    python3 scripts/count_calls.py ring_allreduce small_ops flow_bulk

Each named ``perfbench`` workload (default ``ring_allreduce``) runs one
pass at seed 0 under ``perfbench``'s ``Probes``, which profile only inside
op blocks, and prints the cProfile call count, the kernel events and calls
per event.  The simulator is imported from this checkout's ``src/``.  Call
counts depend on the Python version, not on the host's speed.
"""

from __future__ import annotations

import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from probes import Meter, Probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names) -> int:
    for name in names or ["ring_allreduce"]:
        with Probes() as probes:
            meter = Meter(probes)
            WORKLOADS[name](0).run_pass(meter)
        calls = pstats.Stats(probes.profiles["op"]).total_calls
        print(f"{name}: {calls:,} calls, {meter.events:,} events, "
              f"{calls / meter.events:.2f} calls/event")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
