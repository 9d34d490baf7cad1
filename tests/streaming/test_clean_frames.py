"""Clean frames: a frame that re-executes no branch is served from the last
output, without stitching or running the suffix, and stays bit-identical."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from fixtures import input_skip_graph

from repro.data import SyntheticVideo
from repro.patch import PatchExecutor, build_patch_plan
from repro.streaming import StreamSession


@contextmanager
def _spied(executor):
    """Count the executor's ``compute_tiles`` and ``run_suffix`` calls."""
    calls = {"compute_tiles": 0, "run_suffix": 0}

    def counting(name):
        original = getattr(executor, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return spy

    for name in calls:
        setattr(executor, name, counting(name))
    try:
        yield calls
    finally:
        for name in calls:
            delattr(executor, name)  # the instance attributes; methods are restored


def _frame(resolution: int = 32, index: int = 0) -> np.ndarray:
    return SyntheticVideo(num_frames=index + 1, resolution=resolution, seed=1).frames[index]


def test_identical_frames_run_neither_tiles_nor_suffix(compiled_mobilenet):
    session = compiled_mobilenet.open_stream()
    frame = _frame()
    expected = compiled_mobilenet.infer(frame[None])[0].tobytes()
    with _spied(session.executor) as calls:
        session.process(frame)
        assert calls == {"compute_tiles": 1, "run_suffix": 1}
        for _ in range(3):
            assert session.process(frame.copy()).tobytes() == expected
        assert calls == {"compute_tiles": 1, "run_suffix": 1}
    assert session.last_frame.executed_branches == 0


def test_clean_frames_return_fresh_arrays(compiled_mobilenet):
    """Writing into one frame's output cannot change what a later frame gets."""
    session = compiled_mobilenet.open_stream()
    frame = _frame()
    expected = compiled_mobilenet.infer(frame[None])[0].tobytes()
    first = session.process(frame)
    first[...] = 7.0
    second = session.process(frame)
    assert second.tobytes() == expected
    second[...] = -7.0
    third = session.process(frame)
    assert third.tobytes() == expected
    assert not np.shares_memory(second, third)


@pytest.mark.parametrize("event", ["reset", "close", "raise"])
def test_cached_output_is_dropped(compiled_mobilenet, event):
    """After reset(), close() or a frame that raised, the next frame (in a new
    session after close) recomputes every branch and runs the suffix."""
    session = compiled_mobilenet.open_stream()
    frame, moved = _frame(), _frame(index=1)
    session.process(frame)
    if event == "reset":
        session.reset()
    elif event == "close":
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.process(frame)
        assert session._output is None
        session = compiled_mobilenet.open_stream()
    else:
        original = session.executor.run_suffix
        session.executor.run_suffix = lambda x, stitched: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            with pytest.raises(RuntimeError, match="boom"):
                session.process(moved)
        finally:
            session.executor.run_suffix = original
    with _spied(session.executor) as calls:
        out = session.process(frame)
    assert calls == {"compute_tiles": 1, "run_suffix": 1}
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert out.tobytes() == compiled_mobilenet.infer(frame[None])[0].tobytes()


def test_suffix_reading_the_input_still_runs():
    executor = PatchExecutor(build_patch_plan(input_skip_graph(), "stem_act", 2))
    assert executor._suffix_reads_input
    session = StreamSession(executor)
    frame = np.random.default_rng(3).standard_normal((1, 3, 16, 16)).astype(np.float32)
    session.process(frame)
    with _spied(executor) as calls:
        out = session.process(frame.copy())
    assert session.last_frame.executed_branches == 0
    assert calls["run_suffix"] == 1
    assert out.tobytes() == executor.forward(frame).tobytes()
