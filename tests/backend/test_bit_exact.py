"""Bit-exactness acceptance suite for the batched compute backends.

The contract pinned here is the one :mod:`repro.backend` documents: every
backend produces the exact same output bytes as the per-branch loop
reference — on both golden zoo models, across every execution style
(sequential, streaming), and on random small
graphs via the property sweep.  Every comparison is of shape, dtype and raw
bytes (:func:`_bits_equal`): no tolerances, and unlike ``np.array_equal`` a
flipped sign of zero counts as a difference.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from functools import reduce

import numpy as np
import pytest

from fixtures import (
    DEEP_SPLIT_CASES,
    deep_split_deployment,
    input_skip_graph,
    property_cases,
    quantize_zoo_model,
    random_property_graph,
)

from repro.backend import BackendUnavailable, MultiprocessBackend
from repro.core.quantmcu import make_static_hooks
from repro.nn import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool,
    Graph,
    Linear,
    MaxPool2d,
    Pad2d,
    ReLU,
    ReLU6,
)
from repro.nn.graph import INPUT_NODE
from repro.patch import PatchExecutor, build_patch_plan, candidate_split_nodes
from repro.patch.regions import Region
from repro.serving.pipeline import CompiledPipeline

#: The two golden zoo deployments (matching tests/golden/golden_cases.py).
ZOO_CASES = [("mobilenetv2", 32), ("mcunet", 48)]

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _compiled_pair(model_name, resolution):
    """The same quantized deployment compiled twice: loop reference + vectorized."""
    spec, pipeline, result = quantize_zoo_model(
        model_name=model_name, resolution=resolution
    )
    loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
    vec = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="vectorized")
    return loop, vec


@pytest.mark.parametrize("model_name,resolution", ZOO_CASES)
class TestZooModelsBitExact:
    """ISSUE 8 acceptance: batched backend == loop reference on both zoo
    models under every executor."""

    def test_all_executors(self, model_name, resolution):
        loop, vec = _compiled_pair(model_name, resolution)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, resolution, resolution)).astype(np.float32)
        try:
            reference = loop.infer(x)

            # Sequential.
            assert _bits_equal(vec.infer(x), reference)

            # Streaming (incremental recompute through stitch_tiles).
            frame0 = x[:1]
            frame1 = frame0.copy()
            frame1[:, :, : resolution // 3, : resolution // 3] += 0.5
            session = vec.open_stream()
            assert _bits_equal(session.process(frame0), loop.infer(frame0))
            assert _bits_equal(session.process(frame1), loop.infer(frame1))
            # The second frame actually exercised partial recomputation.
            assert 0 < session.last_frame.executed_branches
        finally:
            loop.close()
            vec.close()

    def test_partial_tiles_match(self, model_name, resolution):
        loop, vec = _compiled_pair(model_name, resolution)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, resolution, resolution)).astype(np.float32)
        try:
            num = loop.plan.num_branches
            subset = [num - 1, 0, num // 2]  # out of plan order on purpose
            expected = loop.executor.compute_tiles(x, subset)
            got = vec.executor.compute_tiles(x, subset)
            assert [b.patch_id for b, _ in got] == [b.patch_id for b, _ in expected]
            for (_, tile_ref), (_, tile_vec) in zip(expected, got):
                assert _bits_equal(tile_vec, tile_ref)
        finally:
            loop.close()
            vec.close()


@pytest.mark.skipif(not HAVE_FORK, reason="multiprocess backend requires fork")
class TestMultiprocessBitExact:
    def test_forward_and_tiles_match_loop(self):
        spec, pipeline, result = quantize_zoo_model()
        loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
        mp = CompiledPipeline.from_result(
            pipeline, result, spec=spec, backend="multiprocess"
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        try:
            assert _bits_equal(mp.infer(x), loop.infer(x))
            subset = [0, loop.plan.num_branches - 1]
            expected = loop.executor.compute_tiles(x, subset)
            got = mp.executor.compute_tiles(x, subset)
            for (_, tile_ref), (_, tile_mp) in zip(expected, got):
                assert _bits_equal(tile_mp, tile_ref)
        finally:
            loop.close()
            mp.close()

    def test_worker_count_caps_at_branches(self):
        graph = random_property_graph(np.random.default_rng(5))
        split = candidate_split_nodes(graph)[0]
        plan = build_patch_plan(graph, split, 2)
        with PatchExecutor(plan) as executor:
            backend = MultiprocessBackend(executor, workers=16)
            try:
                assert backend._workers <= max(plan.num_branches, 1)
            finally:
                backend.close()


@pytest.mark.skipif(HAVE_FORK, reason="covers the no-fork platforms")
def test_multiprocess_unavailable_without_fork():
    graph = random_property_graph(np.random.default_rng(5))
    split = candidate_split_nodes(graph)[0]
    plan = build_patch_plan(graph, split, 2)
    with PatchExecutor(plan) as executor:
        with pytest.raises(BackendUnavailable):
            MultiprocessBackend(executor)


@pytest.mark.parametrize("model_name,resolution", ZOO_CASES)
def test_branches_on_different_grids(model_name, resolution):
    """Even branches quantize the prefix to 4 and 2 bits, odd ones keep 8: they
    run two programs, and the split map, on two grids, reaches the suffix in
    real units.  Loop and vectorized agree byte for byte, per sample."""
    _, pipeline, result = quantize_zoo_model(model_name=model_name, resolution=resolution)
    branch_bits = [
        {
            fm: (4 if fm % 2 else 2) if branch.patch_id % 2 == 0 else bits
            for fm, bits in branch.bitwidths.items()
        }
        for branch in result.branches
    ]
    hooks = make_static_hooks(result.activation_ranges, branch_bits, result.suffix_bits)
    x = np.random.default_rng(2).standard_normal((3, 3, resolution, resolution))
    x = x.astype(np.float32)
    with pipeline.quantized_weights(), PatchExecutor(
        result.plan, *hooks, backend="loop"
    ) as loop_ex, PatchExecutor(result.plan, *hooks, backend="vectorized") as vec_ex:
        assert len(vec_ex._programs) == 2 and vec_ex._split_value.bound is None
        reference = loop_ex.forward(x)
        assert _bits_equal(vec_ex.forward(x), reference)
        for i in range(3):
            assert _bits_equal(vec_ex.forward(x[i : i + 1]), reference[i : i + 1])


#: VDPC's shape on a 4x4 grid: a contiguous 2x2 block of outlier branches
#: keeps 8 bits, the other 12 branches run at 4.
OUTLIERS = (5, 6, 9, 10)


def _cover(executor, ids):
    """The runs the vectorized backend chooses for ``ids``, program by
    program: ``(box, ids)`` per merged rectangle run, ``(None, [id])`` per
    single branch."""
    return [
        (run.member.output_region if run.member.patch_id < 0 else None, sorted(covered))
        for run, covered in executor.backend._partition(ids)
    ]


def _box(plan, ids):
    return reduce(Region.union, [plan.branches[i].output_region for i in ids])


@pytest.mark.parametrize("model_name,resolution,split", DEEP_SPLIT_CASES)
def test_mixed_bit_plan(model_name, resolution, split):
    """A VDPC-shaped plan: the 12 low-bit branches' bounding box is the whole
    map and covers the outlier tiles, yet costs fewer MACs than the 12 with
    their halos, so it runs as one merged run that discards the outlier tiles
    it computed on the wrong grid; the outlier block is a second run.  Every
    output, map and tile is the loop oracle's bytes."""
    pipeline, plan, hooks = deep_split_deployment(
        model_name, resolution, split, lambda b: 8 if b in OUTLIERS else 4
    )
    rest = [i for i in range(plan.num_branches) if i not in OUTLIERS]
    x = np.random.default_rng(8).standard_normal((3, 3, resolution, resolution))
    x = x.astype(np.float32)
    with pipeline.quantized_weights(), PatchExecutor(
        plan, *hooks, backend="loop"
    ) as loop_ex, PatchExecutor(plan, *hooks, backend="vectorized") as vec_ex:
        assert len(vec_ex._programs) == 2
        full_map = _box(plan, range(plan.num_branches))
        assert _cover(vec_ex, list(range(plan.num_branches))) == [
            (full_map, rest),
            (_box(plan, OUTLIERS), list(OUTLIERS)),
        ]
        assert _bits_equal(vec_ex.forward(x), loop_ex.forward(x))
        assert _bits_equal(
            vec_ex.stitched_split_feature_map(x), loop_ex.stitched_split_feature_map(x)
        )
        for subset in ([0, 1, 4, 5], [5, 6, 9, 10, 11], [0, 15], [15, 2, 6, 9], rest):
            expected = loop_ex.compute_tiles(x, subset)
            got = vec_ex.compute_tiles(x, subset)
            assert [b.patch_id for b, _ in got] == subset
            for (_, ref), (_, tile) in zip(expected, got):
                assert _bits_equal(tile, ref)


@pytest.mark.parametrize("model_name,resolution,split", DEEP_SPLIT_CASES)
def test_checkerboard_plan_runs_single_branches(model_name, resolution, split):
    """On a checkerboard of two grids no box of two or more same-grid tiles
    costs less than its branches: every key's cover is its single branches,
    16 runs in all, and the output is the loop oracle's bytes."""
    pipeline, plan, hooks = deep_split_deployment(
        model_name, resolution, split, lambda b: 4 if (b // 4 + b % 4) % 2 else 8
    )
    x = np.random.default_rng(9).standard_normal((2, 3, resolution, resolution))
    x = x.astype(np.float32)
    with pipeline.quantized_weights(), PatchExecutor(
        plan, *hooks, backend="loop"
    ) as loop_ex, PatchExecutor(plan, *hooks, backend="vectorized") as vec_ex:
        cover = _cover(vec_ex, list(range(plan.num_branches)))
        assert len(cover) == plan.num_branches
        assert all(box is None and len(ids) == 1 for box, ids in cover)
        assert sorted(i for _, ids in cover for i in ids) == list(range(plan.num_branches))
        assert _bits_equal(vec_ex.forward(x), loop_ex.forward(x))


def test_float64_input_is_computed_in_float32():
    """Executors cast their input to float32 once, at their entry points: loop
    and vectorized give the same bytes on float64 input, the bytes of its
    float32 cast."""
    loop, vec = _compiled_pair("mobilenetv2", 32)
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32))
    try:
        expected = loop.infer(x.astype(np.float32))
        assert _bits_equal(loop.infer(x), expected)
        assert _bits_equal(vec.infer(x), expected)
        ids = [0, loop.plan.num_branches - 1]
        for (_, a), (_, b) in zip(
            loop.executor.compute_tiles(x, ids), vec.executor.compute_tiles(x, ids)
        ):
            assert a.dtype == np.float32 and _bits_equal(a, b)
    finally:
        loop.close()
        vec.close()


def test_executor_built_before_weight_swap_ignores_it():
    """A compiled program is a snapshot of the weights at compile time: an
    executor built outside ``quantized_weights(4)`` serves, inside the
    block, the bytes it served before it, on both backends, while
    ``make_executor`` builds inside the block itself and serves the 4-bit
    weights wherever it is called."""
    _, pipeline, result = quantize_zoo_model()
    x = np.random.default_rng(6).standard_normal((2, 3, 32, 32)).astype(np.float32)
    outside, before = {}, {}
    for name in ("loop", "vectorized"):
        outside[name] = PatchExecutor(result.plan, *pipeline.make_hooks(result), backend=name)
        before[name] = outside[name].forward(x)
        assert outside[name].backend.name == name
    assert _bits_equal(before["vectorized"], before["loop"])
    with pipeline.quantized_weights(4):
        inside = PatchExecutor(result.plan, *pipeline.make_hooks(result)).forward(x)
        for name, executor in outside.items():
            assert _bits_equal(executor.forward(x), before[name])
    assert not _bits_equal(before["loop"], inside)
    four_bit = dataclasses.replace(result, weight_bits=4)
    assert _bits_equal(pipeline.make_executor(four_bit).forward(x), inside)


# ------------------------------------------------------------------ property
@property_cases(max_examples=15)
def test_vectorized_matches_loop_on_random_graphs(seed):
    """Property: vectorized tiles/outputs are bit-identical to the loop
    reference for random graphs, grids, batch sizes and branch subsets."""
    rng = np.random.default_rng(seed)
    graph = random_property_graph(rng)
    candidates = candidate_split_nodes(graph)
    split = candidates[int(rng.integers(len(candidates)))]
    _, split_h, split_w = graph.shapes()[split]
    num_patches = int(rng.integers(2, min(split_h, split_w, 4) + 1))
    plan = build_patch_plan(graph, split, num_patches)

    n = int(rng.integers(1, 3))
    x = rng.standard_normal((n, *graph.input_shape)).astype(np.float32)

    with PatchExecutor(plan, backend="loop") as loop_ex, PatchExecutor(
        plan, backend="vectorized"
    ) as vec_ex:
        assert _bits_equal(vec_ex.forward(x), loop_ex.forward(x))

        ids = [b.patch_id for b in plan.branches]
        size = int(rng.integers(1, len(ids) + 1))
        subset = list(rng.permutation(ids)[:size])
        expected = loop_ex.compute_tiles(x, subset)
        got = vec_ex.compute_tiles(x, subset)
        assert [b.patch_id for b, _ in got] == [b.patch_id for b, _ in expected]
        for (_, ref), (_, vec) in zip(expected, got):
            assert _bits_equal(vec, ref)


@property_cases(max_examples=8)
def test_vectorized_matches_loop_under_content_dependent_hook(seed):
    """A hook without ``static_grid`` is never merged: on 2x2 and 4x4 grids
    the vectorized backend reproduces the reference bytes exactly, on whole
    maps and random subsets, and calls the hook exactly as the loop does,
    once per branch and feature map with the branch's ``patch_id`` and
    clamped region."""
    rng = np.random.default_rng(seed)
    graph = random_property_graph(rng)
    split = candidate_split_nodes(graph)[0]

    def crush(calls):
        def hook(patch_id, fm, array):
            # Content-dependent (per-array max) and patch-dependent: exercises
            # the "member" hook mode on exactly the clamped regions.
            calls.append((patch_id, fm.index, array.shape))
            scale = np.float32(np.abs(array).max() + 1.0 + patch_id)
            return np.round(array * scale) / scale

        return hook

    x = rng.standard_normal((int(rng.integers(1, 3)), *graph.input_shape)).astype(np.float32)
    assert min(graph.shapes()[split][1:]) >= 4
    for grid in (2, 4):
        plan = build_patch_plan(graph, split, grid)
        subsets = [
            [int(i) for i in rng.permutation(plan.num_branches)[: rng.integers(1, plan.num_branches + 1)]]
            for _ in range(3)
        ]
        calls: dict[str, list] = {"loop": [], "vectorized": []}
        results: dict[str, list] = {}
        for name in calls:
            with PatchExecutor(plan, branch_hook=crush(calls[name]), backend=name) as executor:
                results[name] = [executor.forward(x)]
                for subset in subsets:
                    results[name] += [tile for _, tile in executor.compute_tiles(x, subset)]
        assert len(results["vectorized"]) == len(results["loop"])
        for got, ref in zip(results["vectorized"], results["loop"]):
            assert _bits_equal(got, ref)
        assert calls["loop"]
        assert sorted(calls["vectorized"]) == sorted(calls["loop"])


# ------------------------------------------------------------ reduction layout
def _reduction_graph(producer: str) -> Graph:
    """Stem, split, then a head whose reduction reads ``producer``'s output.

    In the eval forward a convolution leaves channels-last memory behind,
    while depthwise, pooling, padding and mixed concatenation leave C order;
    a global average pool sums in whichever order its input has.
    """
    rng = np.random.default_rng(11)
    g = Graph((3, 24, 24), name=f"reduce_{producer}")
    g.add(Conv2d(3, 8, 3, stride=2, padding=1, rng=rng), name="stem")
    g.add(ReLU(), name="stem_act")
    if producer == "conv":
        g.add(Conv2d(8, 8, 3, padding=1, rng=rng), name="feat")
    elif producer == "depthwise":
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        g.add(DepthwiseConv2d(8, 3, padding=1, rng=rng), name="feat")
    elif producer == "maxpool":
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        g.add(MaxPool2d(2), name="feat")
    elif producer == "avgpool":
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        g.add(AvgPool2d(3, stride=1, padding=1), name="feat")
    elif producer == "concat":  # one channels-last and one C-order operand
        a = g.add(Conv2d(8, 4, 1, rng=rng), inputs="stem_act", name="branch_a")
        b = g.add(DepthwiseConv2d(8, 3, padding=1, rng=rng), inputs="stem_act", name="branch_b")
        g.add(Concat(), inputs=[a, b], name="feat")
    elif producer == "pad":
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        g.add(Pad2d(1), name="feat")
    elif producer == "shared":  # one value, two in-place epilogues reading it
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        clip = g.add(ReLU6(), inputs="expand", name="clip")
        norm = g.add(BatchNorm2d(8), inputs="expand", name="norm")
        g.add(Add(), inputs=[clip, norm], name="feat")
    elif producer == "clamped":
        # A border tile's "expand" region is wider than the pooling window
        # (the padded depthwise demands one more column, outside the map),
        # and clamped to exactly the window's width: the reference pools a
        # view of it, with no copy.
        g.add(Conv2d(8, 8, 1, rng=rng), name="expand")
        pool = g.add(AvgPool2d(3, stride=3), inputs="expand", name="pool")
        dw = g.add(DepthwiseConv2d(8, 3, stride=3, padding=1, rng=rng), inputs="expand", name="dw")
        g.add(Add(), inputs=[pool, dw], name="feat")
    elif producer == "skip":  # a second path from the graph input
        skip = g.add(Conv2d(3, 8, 3, stride=2, padding=1, rng=rng), inputs=INPUT_NODE, name="skip")
        g.add(Add(), inputs=["stem_act", skip], name="feat")
    if producer == "flatten":
        g.add(Conv2d(8, 4, 3, stride=2, padding=1, rng=rng), name="feat")
        g.add(Flatten(), name="flat")
        g.add(Linear(4 * 6 * 6, 5, rng=rng), name="fc")
    else:
        g.add(GlobalAvgPool(), name="gap")
        g.add(Linear(g.shapes()["feat"][0], 5, rng=rng), name="fc")
    return g


def _eval_suffix(plan, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
    """The suffix by ``Layer.forward`` on a C-order split map: the training
    model the compiled channels-last suffix stays within a tolerance of."""
    values = {INPUT_NODE: x, plan.split_output_node: np.ascontiguousarray(stitched)}
    for name in plan.suffix_nodes:
        node = plan.graph.nodes[name]
        values[name] = node.layer.forward(*[values[src] for src in node.inputs])
    return values[plan.graph.output_node]


#: Compiled float kernels fold bias and BatchNorm into one epilogue, so they
#: may differ from ``Layer.forward`` in the last bits.
_FORWARD_TOLERANCE = dict(rtol=1e-5, atol=1e-5)

_PRODUCERS = ["conv", "depthwise", "maxpool", "avgpool", "concat", "pad", "skip", "flatten"]


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize(
    "producer,split,grid",
    [(p, "stem_act", 2) for p in _PRODUCERS]
    # Patch regions do not model Pad2d's change of extent, so no "pad" here.
    + [(p, "feat", 2) for p in _PRODUCERS if p != "pad"]
    # 1x1 tiles: an interior pooling window is one output wide, so the
    # reference averages a strided view of the convolution's channels-last
    # output instead of a C-order copy.
    + [("avgpool", "feat", 12)]
    # 1x1 tiles whose pooling window is sliced from a clamped border source.
    + [("clamped", "feat", 4)],
)
def test_reductions_follow_reference_layout(producer, split, grid, batch):
    """Reductions give the loop reference's bytes whatever layout their input
    was produced in, and stay within float tolerance of ``Layer.forward``.
    The producer runs in the compiled suffix (split at ``stem_act``) or in
    the patch stage (split at ``feat``)."""
    graph = _reduction_graph(producer)
    plan = build_patch_plan(graph, split, grid)
    x = np.random.default_rng(batch).standard_normal((batch, 3, 24, 24)).astype(np.float32)
    with PatchExecutor(plan, backend="loop") as loop_ex, PatchExecutor(
        plan, backend="vectorized"
    ) as vec_ex:
        reference = loop_ex.forward(x)
        assert _bits_equal(vec_ex.forward(x), reference)
        stitched = loop_ex.stitched_split_feature_map(x)
        assert _bits_equal(vec_ex.stitched_split_feature_map(x), stitched)
        np.testing.assert_allclose(reference, _eval_suffix(plan, x, stitched), **_FORWARD_TOLERANCE)


@pytest.mark.parametrize("split", ["stem_act", "feat"])
def test_shared_value_is_never_overwritten(split):
    """A value with two readers is overwritten by neither, though both are
    standalone epilogues: in the compiled suffix (split at ``stem_act``) and in
    the vectorized patch stage (split at ``feat``)."""
    plan = build_patch_plan(_reduction_graph("shared"), split, 2)
    x = np.random.default_rng(2).standard_normal((2, 3, 24, 24)).astype(np.float32)
    with PatchExecutor(plan, backend="loop") as loop_ex, PatchExecutor(
        plan, backend="vectorized"
    ) as vec_ex:
        stitched = loop_ex.stitched_split_feature_map(x)
        expected = loop_ex.forward(x)
        np.testing.assert_allclose(expected, _eval_suffix(plan, x, stitched), **_FORWARD_TOLERANCE)
        assert _bits_equal(vec_ex.forward(x), expected)


# ------------------------------------------------------------- caller arrays
def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("backend", ["loop", "vectorized"])
def test_suffix_never_writes_caller_arrays(backend):
    """Slots 0 and 1 of the suffix are the caller's arrays: an in-place
    epilogue that reached them would raise on these read-only inputs.  Both
    are channels-last in memory, so the suffix reads them without a copy."""
    plan = build_patch_plan(input_skip_graph(), "stem_act", 2)
    x = np.random.default_rng(3).standard_normal((2, 16, 16, 3)).astype(np.float32)
    x = x.transpose(0, 3, 1, 2)
    with PatchExecutor(plan, backend=backend) as executor:
        stitched = executor.stitched_split_feature_map(x)
        expected = executor.run_suffix(x.copy(order="K"), stitched.copy(order="K"))
        assert _bits_equal(executor.run_suffix(_read_only(x), _read_only(stitched)), expected)
        assert _bits_equal(executor.forward(_read_only(x)), expected)


# ------------------------------------------------------------- layout boundary
@pytest.mark.parametrize("backend", ["loop", "vectorized"])
def test_layout_boundary(backend):
    """Split maps are logically (N, C, h, w) whatever their memory, and the
    suffix gives the same bytes on a C-order map as on an executor-allocated
    channels-last one (external callers may pass either)."""
    rng = np.random.default_rng(9)
    graph = random_property_graph(rng)
    split = candidate_split_nodes(graph)[0]
    plan = build_patch_plan(graph, split, 2)
    channels, height, width = graph.shapes()[split]
    x = rng.standard_normal((2, *graph.input_shape)).astype(np.float32)
    with PatchExecutor(plan, backend=backend) as executor:
        stitched = executor.stitched_split_feature_map(x)
        assert stitched.shape == (2, channels, height, width)
        allocated = executor._allocate_split(x)
        assert allocated.shape == stitched.shape
        assert allocated.transpose(0, 2, 3, 1).flags.c_contiguous
        for branch, tile in executor.compute_tiles(x, [b.patch_id for b in plan.branches]):
            region = branch.output_region
            assert tile.shape == (2, channels, region.height, region.width)
        contiguous = np.ascontiguousarray(stitched)
        assert _bits_equal(
            executor.run_suffix(x, contiguous), executor.run_suffix(x, stitched)
        )
        assert _bits_equal(executor.run_suffix(x, stitched), executor.forward(x))
