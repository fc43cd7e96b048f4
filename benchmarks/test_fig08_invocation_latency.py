"""Figure 8: CCLO invocation latency from different callers.

Paper shape: FPGA-kernel invocation is minimal; Coyote host invocation is a
PCIe write + read (~2-3 us); XRT host invocation is significantly higher.
"""

from repro.bench import run_fig08_invocation_latency
from repro.bench.artifacts import ARTIFACTS
from conftest import attach_point_metrics, emit


def test_fig08_invocation_latency(benchmark, sweep_runner):
    rows = benchmark.pedantic(run_fig08_invocation_latency,
                              kwargs={"runner": sweep_runner},
                              rounds=1, iterations=1)
    emit(ARTIFACTS["fig08"].render(rows))
    attach_point_metrics(benchmark, sweep_runner, n_latest=3)
    by_caller = {r["caller"]: r["latency_us"] for r in rows}
    for caller, value in by_caller.items():
        benchmark.extra_info[caller] = value

    assert by_caller["FPGA kernel"] < by_caller["Coyote host"]
    assert by_caller["Coyote host"] < by_caller["XRT host"]
    # "the XRT invocation latency is significantly higher"
    assert by_caller["XRT host"] > 10 * by_caller["Coyote host"]
    # Coyote: one PCIe write + one PCIe read, low single-digit us.
    assert 1 < by_caller["Coyote host"] < 10
