"""StreamSession: bit-identical incremental recomputation across executors."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fixtures import quantize_and_compile, random_property_plan

from repro.backend import DEFAULT_BACKEND
from repro.data import SyntheticVideo
from repro.patch import analyze_streaming
from repro.patch.analysis import branch_macs
from repro.serving import CompiledPipeline
from repro.streaming import StreamSession, changed_mask, dirty_branch_ids

#: The same two zoo deployments the golden suite pins.
ZOO_CASES = [
    dict(model_name="mobilenetv2", resolution=32),
    dict(model_name="mcunet", resolution=48),
]


@pytest.fixture(scope="module", params=[case["model_name"] for case in ZOO_CASES])
def zoo_compiled(request):
    params = next(c for c in ZOO_CASES if c["model_name"] == request.param)
    _, _, compiled = quantize_and_compile(**params)
    yield params, compiled
    compiled.close()


def _video(resolution: int, num_frames: int = 4, **kwargs):
    kwargs.setdefault("motion_fraction", 0.3)
    kwargs.setdefault("seed", 1)
    return SyntheticVideo(num_frames=num_frames, resolution=resolution, **kwargs)


# ------------------------------------------------------------- bit identity
def test_incremental_is_bit_identical_on_zoo_models(zoo_compiled):
    """Acceptance: streaming output == full recompute, byte for byte."""
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    for frame in _video(params["resolution"]):
        incremental = session.process(frame)
        full = compiled.infer(frame[None])[0]
        assert np.array_equal(incremental, full)


# ------------------------------------------------------------- reuse limits
def test_identical_frame_reuses_everything(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    out = session.process(frame.copy())  # identical content, distinct array
    assert session.last_frame.executed_branches == 0
    assert session.last_frame.reuse_rate == 1.0
    assert session.last_frame.executed_macs == 0
    assert np.array_equal(out, compiled.infer(frame[None])[0])


def test_fully_changed_frame_reuses_nothing(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    session.process(frame + 1.0)  # every pixel moved
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert session.last_frame.reuse_rate == 0.0
    assert session.last_frame.executed_macs == session.last_frame.total_macs


def test_first_frame_and_reset_recompute_everything(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    assert session.frame_stats[0].executed_branches == session.plan.num_branches
    session.process(frame)
    assert session.last_frame.executed_branches == 0
    session.reset()  # scene cut: the cached tiles must not be trusted
    out = session.process(frame)
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert np.array_equal(out, compiled.infer(frame[None])[0])


# ---------------------------------------------------------------- accounting
def test_stats_accumulate_and_match_analysis(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    for frame in _video(params["resolution"], num_frames=3):
        session.process(frame)
    stats = session.stats()
    assert stats.frames == 3
    assert stats.executed_branches + stats.reused_branches == 3 * session.plan.num_branches
    assert stats.executed_macs == sum(f.executed_macs for f in session.frame_stats)
    # Per-frame MACs agree with the analysis-layer dirty-MAC accounting.
    for frame_stats in session.frame_stats:
        report = analyze_streaming(session.plan, list(frame_stats.dirty_branches))
        assert report.executed_macs == frame_stats.executed_macs
        assert report.total_macs == frame_stats.total_macs
        assert report.reuse_rate == frame_stats.reuse_rate


def test_frame_shape_validation(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    resolution = params["resolution"]
    with pytest.raises(ValueError, match="does not match"):
        session.process(np.zeros((3, resolution + 1, resolution + 1), dtype=np.float32))
    with pytest.raises(ValueError, match="one sample"):
        session.process(np.zeros((2, 3, resolution, resolution), dtype=np.float32))
    # batched single-sample input returns a batched output
    frame = np.zeros((1, 3, resolution, resolution), dtype=np.float32)
    assert session.process(frame).shape[0] == 1


def test_failed_frame_resets_the_cache(zoo_compiled):
    """A frame that fails mid-serve must not leave half-updated tiles behind."""
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    video = _video(params["resolution"])
    session.process(video.frames[0])

    original = session.executor.run_suffix
    session.executor.run_suffix = lambda x, stitched: (_ for _ in ()).throw(RuntimeError("boom"))
    try:
        with pytest.raises(RuntimeError, match="boom"):
            session.process(video.frames[1])
    finally:
        session.executor.run_suffix = original
    # The stitched buffer may hold a frame-0/frame-1 mix: the session must
    # recompute the next frame in full rather than diff against stale state.
    out = session.process(video.frames[0])
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert np.array_equal(out, compiled.infer(video.frames[0][None])[0])


def test_frame_history_is_capped_but_totals_are_not(zoo_compiled):
    params, compiled = zoo_compiled
    executor = compiled.executor
    from repro.streaming import StreamSession as Session

    session = Session(executor, history_frames=2)
    frame = _video(params["resolution"]).frames[0]
    for _ in range(5):
        session.process(frame)
    assert len(session.frame_stats) == 2  # bounded history
    stats = session.stats()
    assert stats.frames == session.num_frames == 5  # uncapped counters
    assert stats.executed_branches == session.plan.num_branches  # first frame only
    assert stats.reused_branches == 4 * session.plan.num_branches


def _check_runs_only_dirty(resolution, executor, executed):
    """First frame runs every branch, an identical frame none, a frame
    changed in one corner exactly its dirty ones; ``executed`` records the
    branch ids computed."""
    session = StreamSession(executor)
    frame = _video(resolution, num_frames=1).frames[0]
    session.process(frame)
    assert sorted(executed) == list(range(session.plan.num_branches))
    executed.clear()
    session.process(frame.copy())  # identical: nothing runs
    assert executed == []
    moved = frame.copy()
    moved[..., 0, 0] += 1.0  # only the top-left branch reads this pixel
    session.process(moved)
    dirty = list(session.last_frame.dirty_branches)
    assert dirty and len(dirty) < session.plan.num_branches
    assert sorted(executed) == dirty


def test_reuse_runs_only_dirty_branches(zoo_compiled, monkeypatch):
    """On the loop oracle, ``run_branch`` sees only the dirty branches."""
    params, compiled = zoo_compiled
    loop = CompiledPipeline(
        compiled.graph, compiled.plan, compiled.state, compiled.spec, backend="loop"
    )
    executor = loop.executor
    executed: list[int] = []
    original = executor.run_branch

    def recording_run_branch(branch, x):
        executed.append(branch.patch_id)
        return original(branch, x)

    monkeypatch.setattr(executor, "run_branch", recording_run_branch)
    _check_runs_only_dirty(params["resolution"], executor, executed)
    loop.close()


def test_default_backend_runs_only_dirty_branches(zoo_compiled, monkeypatch):
    """On the default backend, ``run_branches`` is asked for exactly the
    dirty ids: the vectorized stream path does no extra work either."""
    params, compiled = zoo_compiled
    executor = compiled.executor
    assert executor.backend.name == DEFAULT_BACKEND
    executed: list[int] = []
    original = executor.backend.run_branches

    def recording_run_branches(x, branch_ids):
        executed.extend(branch_ids)
        return original(x, branch_ids)

    monkeypatch.setattr(executor.backend, "run_branches", recording_run_branches)
    _check_runs_only_dirty(params["resolution"], executor, executed)


# ----------------------------------------------------------------- diffing
def test_changed_mask_and_dirty_ids_are_halo_aware(zoo_compiled):
    """A pixel inside a branch's halo — outside its tile — still dirties it."""
    _, compiled = zoo_compiled
    plan = compiled.plan
    _, height, width = plan.graph.input_shape
    prev = np.zeros((1, 3, height, width), dtype=np.float32)
    # Flip one pixel in the exact centre: with a 2x2 grid every branch's
    # halo-inclusive input region contains it even though it lies in only
    # one branch's own tile.
    curr = prev.copy()
    curr[0, 0, height // 2, width // 2] = 1.0
    mask = changed_mask(prev, curr)
    assert mask.sum() == 1
    dirty = dirty_branch_ids(plan, mask)
    expected = [
        b.patch_id
        for b in plan.branches
        if b.clamped_regions["input"].row_start <= height // 2 < b.clamped_regions["input"].row_stop
        and b.clamped_regions["input"].col_start <= width // 2 < b.clamped_regions["input"].col_stop
    ]
    assert dirty == expected
    assert len(dirty) >= 1


def test_changed_mask_rejects_shape_changes():
    prev = np.zeros((3, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="shape changed"):
        changed_mask(prev, np.zeros((3, 8, 9), dtype=np.float32))


# ----------------------------------------------------------- MAC accounting
class _StubExecutor:
    """Just enough executor surface for a session; never computes tiles."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def _allocate_split(self, x):
        shape = self.plan.graph.shapes()[self.plan.split_output_node]
        return np.zeros((x.shape[0], *shape), dtype=np.float32)

    def stitch_tiles(self, x, branch_ids, out):
        return out

    def run_suffix(self, x, stitched):
        return np.zeros((x.shape[0], 4), dtype=np.float32)


def test_executed_macs_keyed_by_patch_id_not_position():
    """Regression: ``executed_macs`` used to index a positional list with
    patch ids — an IndexError (or silent misattribution) whenever ids are
    not dense positional indices."""
    rng = np.random.default_rng(4)
    base = random_property_plan(rng)
    renumbered = replace(
        base,
        branches=[
            replace(branch, patch_id=branch.patch_id * 10 + 5) for branch in base.branches
        ],
    )
    session = StreamSession(_StubExecutor(renumbered))
    shape = (1, *renumbered.graph.input_shape)
    first = rng.standard_normal(shape).astype(np.float32)
    session.process(first)
    stats = session.last_frame
    expected_total = sum(
        branch_macs(renumbered, branch) for branch in renumbered.branches
    )
    assert stats.executed_macs == expected_total  # first frame executes all
    assert stats.total_macs == expected_total

    _, _, height, width = shape
    r0, c0 = int(rng.integers(0, height)), int(rng.integers(0, width))
    r1, c1 = int(rng.integers(r0 + 1, height + 1)), int(rng.integers(c0 + 1, width + 1))
    second = first.copy()
    second[:, :, r0:r1, c0:c1] += rng.standard_normal(
        (1, shape[1], r1 - r0, c1 - c0)
    ).astype(np.float32)
    session.process(second)
    stats = session.last_frame
    by_id = {b.patch_id: branch_macs(renumbered, b) for b in renumbered.branches}
    assert stats.executed_macs == sum(by_id[i] for i in stats.dirty_branches)
