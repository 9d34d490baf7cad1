"""The step interpreter: :func:`repro.nn.inference.run_steps` runs every
compiled program of the serving path, the suffix and the patch-stage runs.

Pinned here: how a step reads its inputs (whole values, windows, windows
zero-padded at the border, two inputs), that content-dependent hooks see the
logical ``(N, C, h, w)`` array, and the interpreter's memory bound: after a
run, every slot but the program's output has been released."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.inference import Step, run_steps
from repro.patch import PatchExecutor, build_patch_plan


def _value(shape, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _copy(a: np.ndarray) -> np.ndarray:
    return a.copy()


def test_window_read():
    x = _value((2, 6, 7, 3))
    values = run_steps([Step((0,), _copy, rects=((1, 4, 2, 6),))], [x])
    assert len(values) == 2 and values[0] is x
    np.testing.assert_array_equal(values[1], x[:, 1:4, 2:6])


def test_border_pad():
    x = _value((1, 4, 5, 2))
    step = Step((0,), _copy, rects=((0, 3, 1, 5),), pads=(1, 0, 0, 2))
    out = run_steps([step], [x])[1]
    assert out.shape == (1, 4, 6, 2)
    np.testing.assert_array_equal(out[:, 1:, :4], x[:, 0:3, 1:5])
    assert not out[:, 0].any() and not out[:, :, 4:].any()


def test_two_input_add_step():
    a, b = _value((1, 5, 5, 4), 1), _value((1, 5, 5, 4), 2)
    whole, windowed = run_steps(
        [Step((0, 1), np.add), Step((0, 1), np.add, rects=((0, 3, 0, 3), (2, 5, 1, 4)))], [a, b]
    )[2:]
    np.testing.assert_array_equal(whole, a + b)
    np.testing.assert_array_equal(windowed, a[:, :3, :3] + b[:, 2:5, 1:4])


# ------------------------------------------------------- compiled programs
@pytest.fixture(scope="module")
def plan():
    """MobileNetV2 at 32 px on a 2x2 grid, split after the first residual
    block: the prefix has border windows and a two-input Add."""
    graph = build_model("mobilenetv2", resolution=32, num_classes=4, width_mult=0.35, seed=3)
    return build_patch_plan(graph, "s1_b1_add", 2)


def _live(values: list) -> list[int]:
    return [slot for slot, value in enumerate(values) if value is not None]


def _nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def test_compiled_programs_read_windows_pads_and_adds(plan):
    """The box run of a uniform plan reads windows, pads at the border and
    runs the block's Add over two inputs."""
    with PatchExecutor(plan, backend="vectorized") as executor:
        ((run, _),) = executor.backend._partition(list(range(plan.num_branches)))
        assert any(step.pads is not None for step in run.steps)
        assert any(len(step.inputs) == 2 for step in run.steps)
        assert all(step.rects is not None for step in run.steps)
        assert all(step.rects is None and step.pads is None for step in executor._suffix_steps)


def test_only_the_output_slot_survives_a_run(plan):
    """After a box run and after a suffix run, every slot but the one
    returned is None: a value lives until its last reader."""
    x = _value((2, *plan.graph.input_shape), 3)
    with PatchExecutor(plan, backend="vectorized") as executor:
        ((run, _),) = executor.backend._partition(list(range(plan.num_branches)))
        values = run_steps(run.steps, [_nhwc(x)])
        assert _live(values) == [run.output]
        split = executor.stitched_split_feature_map(x)
        values = run_steps(executor._suffix_steps, [x, _nhwc(split)])
        assert _live(values) == [executor._suffix_output]
        assert len(values) == 2 + len(executor._suffix_steps)


def test_member_hooks_see_the_logical_array(plan):
    """Content-dependent hooks are bound at compile time and called with the
    logical ``(N, C, h, w)`` array: a branch's clamped region, the suffix's
    whole map."""
    shapes = plan.graph.shapes()
    calls: list[tuple] = []

    def branch_hook(patch_id, fm, array):
        calls.append((patch_id, fm.output_node, array.shape))
        return array

    def suffix_hook(fm, array):
        calls.append((None, fm.output_node, array.shape))
        return array

    x = _value((2, *plan.graph.input_shape), 4)
    with PatchExecutor(plan, branch_hook, suffix_hook, backend="vectorized") as executor:
        branch = plan.branches[3]
        ((run, _),) = executor.backend._partition([branch.patch_id])
        assert run.member is branch
        run_steps(run.steps, [_nhwc(x)])
        assert calls and all(patch_id == 3 for patch_id, _, _ in calls)
        for _, node, shape in calls:
            region = branch.clamped_regions[node]
            assert shape == (2, shapes[node][0], region.height, region.width)
        calls.clear()
        executor.run_suffix(x, executor.stitched_split_feature_map(x))
        suffix = [(node, shape) for patch_id, node, shape in calls if patch_id is None]
        assert suffix and all(shape == (2, *shapes[node]) for node, shape in suffix)
