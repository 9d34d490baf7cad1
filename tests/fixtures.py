"""Shared fixtures and helpers for the whole test suite.

Star-imported by ``tests/conftest.py`` so every test directory (including
``tests/serving/``, ``tests/streaming/`` and ``tests/golden/``) sees one
set of model/pipeline fixtures instead of re-declaring its own.  Module-level
helpers (:func:`quantize_and_compile`, :data:`MOBILENET_SPEC`,
:func:`property_cases`) are importable directly via ``from fixtures import ...``
(the ``tests/`` directory is on ``sys.path`` during collection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QuantMCUPipeline
from repro.experiments.presets import ExperimentScale
from repro.models import build_model
from repro.nn import (
    Add,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    GlobalAvgPool,
    Graph,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.graph import INPUT_NODE
from repro.patch import build_patch_plan, candidate_split_nodes
from repro.serving import ModelSpec, compile_pipeline


def input_skip_graph() -> Graph:
    """A graph whose suffix reads the graph input (split it at ``stem_act``).

    The suffix's only reader of the input is an in-place epilogue (a
    BatchNorm on a skip branch).  The split map always ends a fused
    BatchNorm/activation chain, so its suffix readers never are.
    """
    rng = np.random.default_rng(5)
    g = Graph((3, 16, 16), name="caller_arrays")
    g.add(Conv2d(3, 3, 3, padding=1, rng=rng), name="stem")
    act = g.add(ReLU6(), name="stem_act")
    skip = g.add(BatchNorm2d(3), inputs=INPUT_NODE, name="skip_bn")
    g.add(Add(), inputs=[act, skip], name="merge")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(3, 4, rng=rng), name="fc")
    return g


def random_property_graph(rng: np.random.Generator, rectangular: bool = False) -> Graph:
    """A random small CNN with at least one downsampling layer.

    The shared generator behind the property-based tests (backend
    bit-exactness and streaming): varied
    resolutions/widths/depths, always with a valid patch-stage split point.
    ``rectangular`` draws an input width different from its height.
    """
    resolution = int(rng.choice([16, 24, 32]))
    channels = int(rng.choice([4, 8, 12]))
    width = resolution
    if rectangular:
        width = int(rng.choice([w for w in (16, 20, 24, 28, 32) if w != resolution]))
    g = Graph((3, resolution, width), name="prop")
    g.add(Conv2d(3, channels, 3, stride=2, padding=1, bias=False), name="stem")
    g.add(ReLU(), name="stem_act")
    if rng.random() < 0.5:
        g.add(DepthwiseConv2d(channels, 3, stride=1, padding=1), name="dw")
        g.add(ReLU(), name="dw_act")
    if rng.random() < 0.5:
        g.add(MaxPool2d(2), name="pool")
    g.add(Conv2d(channels, channels * 2, 3, stride=1, padding=1), name="head")
    g.add(ReLU(), name="head_act")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(channels * 2, 4), name="fc")
    return g


def random_property_plan(rng: np.random.Generator):
    """A patch plan of :func:`random_property_graph` at a random split and grid."""
    graph = random_property_graph(rng)
    candidates = candidate_split_nodes(graph)
    split = candidates[int(rng.integers(len(candidates)))]
    _, split_h, split_w = graph.shapes()[split]
    num_patches = int(rng.integers(2, min(split_h, split_w, 4) + 1))
    return build_patch_plan(graph, split, num_patches)


try:  # property tests use hypothesis when the environment has it ...
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # ... and fall back to fixed-seed randomized sweeps
    HAVE_HYPOTHESIS = False

#: The spec matching :func:`tiny_mobilenet` — shared by serving/streaming
#: tests so compiled artifacts are reloadable through the registry.
MOBILENET_SPEC = ModelSpec("mobilenetv2", 32, 4, 0.35, 3)


def quantize_zoo_model(
    model_name: str = "mobilenetv2",
    resolution: int = 32,
    num_classes: int = 4,
    width_mult: float = 0.35,
    seed: int = 3,
    num_patches: int = 2,
    sram_limit_bytes: int = 64 * 1024,
    calib_seed: int = 0,
    calib_images: int = 4,
):
    """The canonical zoo-model quantization scaffold: ``(spec, pipeline, result)``.

    One definition of the test deployment (model/seed/SRAM budget/grid) keeps
    the bit-exactness acceptance tests, the serving tests and the golden
    suite all exercising the same configuration.
    """
    spec = ModelSpec(model_name, resolution, num_classes, width_mult, seed)
    model = spec.build()
    rng = np.random.default_rng(calib_seed)
    calib = rng.standard_normal((calib_images, 3, resolution, resolution)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        model, sram_limit_bytes=sram_limit_bytes, num_patches=num_patches
    )
    return spec, pipeline, pipeline.run(calib)


def quantize_and_compile(**kwargs):
    """End-to-end quantize→compile used across test modules.

    Accepts :func:`quantize_zoo_model` keyword arguments and returns
    ``(pipeline, result, compiled)``; the caller owns ``compiled`` (call
    ``close()`` to release its executors' resources).
    """
    spec, pipeline, result = quantize_zoo_model(**kwargs)
    return pipeline, result, compile_pipeline(pipeline, result, spec=spec)


#: The two zoo deployments re-planned on a 4x4 grid at a split deep enough
#: for neighbouring branches' halos to overlap: ``(model, resolution, split)``.
DEEP_SPLIT_CASES = [
    ("mobilenetv2", 32, "s0_b0_project_bn"),
    ("mcunet", 48, "s1_b0_project_bn"),
]


def deep_split_deployment(model_name: str, resolution: int, split: str, bits_of=None):
    """``(pipeline, plan, (branch_hook, suffix_hook))`` for a
    :data:`DEEP_SPLIT_CASES` entry.

    The zoo deployment's calibrated ranges quantize every patch-stage feature
    map of branch ``b`` to ``bits_of(b)`` bits (8 for all when ``None``).
    Executors built from it serve the quantized model inside
    ``pipeline.quantized_weights()``.
    """
    from repro.core.quantmcu import make_static_hooks

    _, pipeline, result = quantize_zoo_model(model_name=model_name, resolution=resolution)
    plan = build_patch_plan(pipeline.graph, split, 4)
    prefix = plan.prefix_feature_maps()
    branch_bits = [
        {fm: 8 if bits_of is None else bits_of(branch.patch_id) for fm in prefix}
        for branch in plan.branches
    ]
    hooks = make_static_hooks(result.activation_ranges, branch_bits, result.suffix_bits)
    return pipeline, plan, hooks


def property_cases(max_examples: int = 20):
    """Decorator running a ``seed``-taking property check many times.

    Uses hypothesis's integer strategy when hypothesis is installed (shrinking
    and example database included); otherwise degrades to a deterministic
    ``pytest.mark.parametrize`` sweep over fixed seeds, so the properties are
    still exercised in minimal environments.
    """
    if HAVE_HYPOTHESIS:

        def decorate(fn):
            return settings(
                max_examples=max_examples,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )(given(seed=st.integers(min_value=0, max_value=2**32 - 1))(fn))

        return decorate

    def decorate(fn):
        return pytest.mark.parametrize("seed", [7919 * i + 13 for i in range(max_examples)])(fn)

    return decorate


# --------------------------------------------------------------------- models
@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_graph() -> Graph:
    """A small sequential CNN: conv/bn/relu x2 + pool + classifier."""
    g = Graph((3, 16, 16), name="tiny")
    g.add(Conv2d(3, 8, 3, stride=1, padding=1, bias=False), name="conv1")
    g.add(BatchNorm2d(8), name="bn1")
    g.add(ReLU(), name="relu1")
    g.add(MaxPool2d(2), name="pool1")
    g.add(Conv2d(8, 16, 3, stride=2, padding=1), name="conv2")
    g.add(ReLU6(), name="relu2")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(16, 4), name="fc")
    return g


@pytest.fixture
def residual_graph() -> Graph:
    """A small graph with a residual Add and a depthwise conv."""
    g = Graph((3, 16, 16), name="residual")
    g.add(Conv2d(3, 8, 3, stride=2, padding=1, bias=False), name="stem")
    g.add(BatchNorm2d(8), name="stem_bn")
    stem = g.add(ReLU6(), name="stem_act")
    g.add(DepthwiseConv2d(8, 3, stride=1, padding=1, bias=False), inputs=stem, name="dw")
    g.add(BatchNorm2d(8), name="dw_bn")
    g.add(ReLU6(), name="dw_act")
    g.add(Conv2d(8, 8, 1), name="project")
    proj = g.add(BatchNorm2d(8), name="project_bn")
    g.add(Add(), inputs=[stem, proj], name="add")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(8, 4), name="fc")
    return g


@pytest.fixture
def tiny_mobilenet() -> Graph:
    """A reduced MobileNetV2 used by integration tests."""
    return build_model("mobilenetv2", resolution=32, num_classes=4, width_mult=0.35, seed=3)


@pytest.fixture
def tiny_scale() -> ExperimentScale:
    """A miniature experiment scale so experiment runners finish in seconds."""
    return ExperimentScale(
        name="quick",
        analytic_resolution=64,
        analytic_width_mult=0.35,
        analytic_num_classes=10,
        accuracy_resolution=24,
        accuracy_width_mult=0.35,
        num_classes=4,
        samples_per_class=6,
        train_epochs=1,
        calibration_images=4,
        eval_images=16,
        haq_iterations=3,
    )


# ------------------------------------------------------------------ pipelines
@pytest.fixture
def quantized_mobilenet(tiny_mobilenet, rng):
    """``(pipeline, result)``: QuantMCU run on the tiny MobileNetV2."""
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    pipeline = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2)
    return pipeline, pipeline.run(calib)


@pytest.fixture
def compiled_mobilenet(quantized_mobilenet):
    """A compiled serving artifact for the tiny MobileNetV2 (auto-closed)."""
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=MOBILENET_SPEC)
    yield compiled
    compiled.close()
