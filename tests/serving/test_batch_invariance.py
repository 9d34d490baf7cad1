"""Batch invariance: a sample's output bytes do not depend on what shares its batch.

Convolutions over integer codes accumulate exactly, and the float kernels
(the stem on the image, the head on the pooled features) run once per
sample, so every row of a batched :meth:`CompiledPipeline.infer` is the
row's own ``infer`` byte for byte, and an engine response does not depend on
the companions the batcher happened to give it."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import quantize_and_compile

from repro.nn import Conv2d
from repro.serving import InferenceEngine

#: The golden zoo deployments, and a deeper plan whose suffix starts later.
CASES = [
    dict(model_name="mobilenetv2", resolution=32),
    dict(model_name="mcunet", resolution=48),
    dict(model_name="mobilenetv2", resolution=64, num_patches=4),
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c['model_name']}@{c['resolution']}")
def compiled(request):
    _, _, pipeline = quantize_and_compile(**request.param)
    yield pipeline
    pipeline.close()


def test_infer_rows_equal_single_row_infer(compiled):
    """Every row of ``infer`` on a batch of 1 to 16 is that row's own bytes."""
    resolution = compiled.graph.input_shape[1]
    x = np.random.default_rng(5).standard_normal((16, 3, resolution, resolution)).astype(np.float32)
    alone = [compiled.infer(x[i : i + 1])[0].tobytes() for i in range(16)]
    for size in range(1, 17):
        out = compiled.infer(x[:size])
        assert [row.tobytes() for row in out] == alone[:size], size


def test_suffix_has_wide_code_fed_conv(compiled):
    """The cases exercise an exact suffix GEMM beyond ``K = 64``: the split map
    and every suffix feature map are on a grid, so every suffix convolution
    reads codes."""
    assert compiled.executor._split_value.bound is not None
    for fm in compiled.plan.fm_index:
        if fm.output_node in compiled.plan.suffix_nodes:
            assert compiled._suffix_hook.static_grid(fm.index).bits < 32
    widest = max(
        compiled.graph.nodes[name].layer.params["weight"][0].size
        for name in compiled.plan.suffix_nodes
        if isinstance(compiled.graph.nodes[name].layer, Conv2d)
    )
    assert widest > 64


def test_engine_response_ignores_companions(compiled):
    """The same image served in two micro-batches with different companions
    comes back with identical bytes."""
    resolution = compiled.graph.input_shape[1]
    images = np.random.default_rng(9).standard_normal((5, 3, resolution, resolution))
    images = images.astype(np.float32)
    with InferenceEngine(compiled, max_batch_size=3, batch_timeout_s=10.0) as engine:
        first = [engine.submit(images[i]) for i in (0, 1, 2)]
        first = [future.result() for future in first]
        second = [engine.submit(images[i]) for i in (3, 0, 4)]
        second = [future.result() for future in second]
        sizes = [record.batch_size for record in engine.telemetry.records()]
    assert sizes == [3] * 6
    assert first[0].tobytes() == second[1].tobytes()
    assert first[0].tobytes() == compiled.infer(images[:1])[0].tobytes()
