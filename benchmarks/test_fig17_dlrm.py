"""Figure 17: distributed DLRM inference, ACCL+ on 10 FPGAs vs CPU serving.

Paper shape: "The hardware implementation demonstrates two orders of
magnitude lower latency compared to the CPU...  ACCL+ shows more than an
order of magnitude higher throughput compared to the CPU baseline."
ACCL+ works on streaming data without batching; the CPU needs large batches
for throughput, which inflates its latency.
"""

from repro.bench import run_fig17_dlrm
from repro.bench.artifacts import ARTIFACTS
from conftest import emit


def test_fig17_dlrm(benchmark):
    result = benchmark.pedantic(lambda: run_fig17_dlrm(n_inferences=48),
                                rounds=1, iterations=1)
    accl = result["accl"]
    cpu_rows = result["cpu"]
    emit(ARTIFACTS["fig17"].render(result))
    assert accl["correct"], "pipeline output diverged from the reference"

    cpu_best_thr = result["cpu_best_throughput"]
    cpu_serving_latency_ms = max(r["latency_ms"] for r in cpu_rows
                                 if r["throughput"] > 0.8 * cpu_best_thr)
    latency_gap = cpu_serving_latency_ms * 1000 / accl["latency_us"]
    throughput_gap = accl["throughput"] / cpu_best_thr
    benchmark.extra_info["latency_gap"] = latency_gap
    benchmark.extra_info["throughput_gap"] = throughput_gap

    # Two orders of magnitude lower latency than CPU serving...
    assert latency_gap > 100
    # ...and more than an order of magnitude higher throughput.
    assert throughput_gap > 10
