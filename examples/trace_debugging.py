#!/usr/bin/env python
"""Debugging a collective with the span tracer.

The paper motivates the simulation platform with shortened hardware
debugging cycles; the tracer is how that looks in practice here.  This
example runs one rendezvous reduce with tracing enabled, prints a span
summary per component, the DMP occupancy, and the first control-plane
spans of the root — the view a developer uses to see *why* a collective is
slow.

Run:  python examples/trace_debugging.py
"""

from collections import Counter

import numpy as np

from repro import obs, units
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.platform.base import BufferLocation
from repro.sim import all_of


def main():
    size = 4
    nbytes = 64 * units.KIB
    cluster = build_fpga_cluster(size, protocol="rdma", platform="coyote")
    tracer = obs.attach(cluster).tracer

    views = [
        cluster.nodes[r].platform.wrap(
            np.full(nbytes // 4, float(r + 1), np.float32),
            BufferLocation.DEVICE).view()
        for r in range(size)
    ]
    result = cluster.nodes[0].platform.wrap(
        np.zeros(nbytes // 4, np.float32), BufferLocation.DEVICE)

    events = [
        cluster.engine(r).call(CollectiveArgs(
            opcode="reduce", nbytes=nbytes, root=0, tag=1 << 20,
            func="sum", sbuf=views[r],
            rbuf=result.view() if r == 0 else None, protocol="rndz",
        ))
        for r in range(size)
    ]
    cluster.env.run(until=all_of(cluster.env, events))
    expected = sum(range(1, size + 1))
    assert np.allclose(result.array, expected)
    print(f"reduce of {units.pretty_size(nbytes)} over {size} ranks done in "
          f"{units.to_us(cluster.env.now):.1f} us "
          f"(result verified: {result.array[0]:.0f})\n")

    spans = tracer.completed_spans
    print("uC and DMP span summary:")
    counts = Counter(f"{s.component}/{s.name}" for s in spans
                     if s.phase in ("uc", "dmp"))
    for key, count in sorted(counts.items()):
        print(f"  {key:28s} {count}")

    instrs = [s.duration for s in spans
              if s.component == "cclo0.dmp" and s.name == "instr"]
    print(f"\nroot DMP: {len(instrs)} instructions, "
          f"mean {np.mean(instrs) * 1e6:.2f} us, "
          f"max {np.max(instrs) * 1e6:.2f} us")

    print("\nfirst control-plane spans at the root:")
    uc = sorted((s for s in spans if s.component == "cclo0.uc"),
                key=lambda s: (s.t0, s.sid))
    for span in uc[:4]:
        print(f"  [{span.t0 * 1e6:10.3f}us] {span}")


if __name__ == "__main__":
    main()
