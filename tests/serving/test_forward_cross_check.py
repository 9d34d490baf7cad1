"""Serving logits against the training-side model they deploy.

The serving path runs exact integer-domain kernels (:mod:`repro.nn.inference`);
``Layer.forward`` with the pipeline's fake-quantization hooks is the float
model calibration and accuracy experiments use.  The two round differently
(the deployment folds bias, BatchNorm and scales into one requantization per
feature map), so a value near a quantization threshold may land one level
apart; the logits must stay within :data:`LOGIT_TOLERANCE` of the float
model's, relative to its largest logit, and agree on the top-1 class."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import quantize_and_compile

from repro.nn.graph import INPUT_NODE

#: Largest serving-vs-float-model logit difference, relative to the float
#: model's largest logit magnitude (measured: 4.6e-4 and 1.9e-7).
LOGIT_TOLERANCE = 5e-3


def _fake_quant_forward(compiled, x: np.ndarray) -> np.ndarray:
    """``Layer.forward`` layer by layer, with the pipeline's hooks applied to
    every feature map.  Layer-based equals patch-based here because every
    branch quantizes each feature map onto the same grid."""
    plan = compiled.plan
    graph = plan.graph
    hooks = {fm.output_node: fm for fm in plan.fm_index}
    prefix = set(plan.prefix_nodes)
    values = {INPUT_NODE: x}
    for name in graph.topological_order():
        node = graph.nodes[name]
        out = node.layer.forward(*[values[src] for src in node.inputs])
        fm = hooks.get(name)
        if fm is not None:
            if name in prefix:
                out = compiled._branch_hook(0, fm, out)
            else:
                out = compiled._suffix_hook(fm, out)
        values[name] = out
    return values[graph.output_node]


@pytest.mark.parametrize("model_name,resolution", [("mobilenetv2", 32), ("mcunet", 48)])
def test_serving_logits_track_fake_quant_forward(model_name, resolution):
    _, _, compiled = quantize_and_compile(model_name=model_name, resolution=resolution)
    assert len({tuple(sorted(bits.items())) for bits in compiled._branch_bits}) == 1
    x = np.random.default_rng(11).standard_normal((16, 3, resolution, resolution))
    x = x.astype(np.float32)
    try:
        served = compiled.infer(x)
        reference = _fake_quant_forward(compiled, x)
    finally:
        compiled.close()
    gap = np.abs(served - reference).max() / np.abs(reference).max()
    assert gap <= LOGIT_TOLERANCE, f"logit gap {gap:.2e} of the largest logit"
    assert np.array_equal(served.argmax(axis=1), reference.argmax(axis=1))
