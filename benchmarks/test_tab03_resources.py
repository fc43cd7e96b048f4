"""Table 3: resource utilization of ACCL+ components and DLRM layers.

Regenerates the utilization table and checks the headline numbers: the TCP
POE is the most resource-intensive ACCL+ component, the CCLO itself is
comparatively lean, and DLRM FC1 exceeds a single U55C (it spans 8 FPGAs)
with URAM and DSP as the bottleneck resources.
"""

from repro.bench import run_tab03_resources
from repro.bench.artifacts import ARTIFACTS
from conftest import emit


def test_tab03_resources(benchmark):
    rows = benchmark.pedantic(run_tab03_resources, rounds=1, iterations=1)
    emit(ARTIFACTS["tab03"].render(rows))
    by_name = {r["component"]: r for r in rows}

    assert by_name["CCLO"]["CLB kLUT"] == 12.1
    assert by_name["TCP POE"]["CLB kLUT"] == 19.8
    assert by_name["RDMA POE"]["CLB kLUT"] == 13.0
    assert by_name["TCP POE"]["CLB kLUT"] > by_name["RDMA POE"]["CLB kLUT"]

    fc1 = by_name["DLRM FC1"]
    assert fc1["DSP"] > 100 and fc1["URAM"] > 100   # spans multiple FPGAs
    assert fc1["URAM"] < 800 and fc1["DSP"] < 800   # fits the 8-FPGA budget
    assert by_name["DLRM FC3"]["DSP"] < by_name["DLRM FC2"]["DSP"]
