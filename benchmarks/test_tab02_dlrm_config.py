"""Table 2: parameters of the target recommendation model.

| Tables | Concat Vec Len | FC Layers        | Embed Size |
|--------|----------------|------------------|------------|
| 100    | 3200           | (2048, 512, 256) | 50GB       |
"""

from repro.apps.dlrm import DlrmConfig, DlrmModel
from repro.bench import run_tab02_dlrm_config
from repro.bench.artifacts import ARTIFACTS
from conftest import emit


def build_and_describe():
    config = DlrmConfig()
    model = DlrmModel(config)
    return config, model


def test_tab02_dlrm_config(benchmark):
    config, model = benchmark.pedantic(build_and_describe,
                                       rounds=1, iterations=1)
    emit(ARTIFACTS["tab02"].render(run_tab02_dlrm_config()))
    assert config.num_tables == 100
    assert config.concat_len == 3200
    assert config.fc_dims == (2048, 512, 256)
    assert 50e9 <= config.embed_bytes < 60e9
    # The model's weight stack matches the FC dims.
    assert [w.shape for w in model.weights] == [
        (2048, 3200), (512, 2048), (256, 512)]
