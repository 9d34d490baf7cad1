"""Bit-identity across the backend policy matrix.

The execution contract of the whole stack: every kernel backend (loop /
vectorized / multiprocess) must produce *identical bits* on both zoo
deployments, through both surfaces a pipeline serves —
:meth:`CompiledPipeline.infer` and a stream session.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.runtime import ExecutionPolicy
from repro.serving import compile_pipeline

from fixtures import quantize_zoo_model

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["loop", "vectorized"] + (["multiprocess"] if HAVE_FORK else [])

MODELS = [
    pytest.param(dict(model_name="mobilenetv2", resolution=32), id="mobilenetv2@32"),
    pytest.param(dict(model_name="mcunet", resolution=48), id="mcunet@48"),
]


@pytest.fixture(scope="module", params=MODELS)
def deployment(request):
    spec, pipeline, result = quantize_zoo_model(**request.param)
    compiled = compile_pipeline(pipeline, result, spec=spec)
    rng = np.random.default_rng(17)
    shape = (3, spec.resolution, spec.resolution)
    frames = [rng.standard_normal(shape).astype(np.float32)]
    for _ in range(2):
        nxt = frames[-1].copy()
        # Perturb one tile-sized region so streaming has dirty + clean tiles.
        nxt[:, : shape[1] // 2, : shape[2] // 2] += rng.standard_normal(
            (3, shape[1] // 2, shape[2] // 2)
        ).astype(np.float32)
        frames.append(nxt)
    yield compiled, frames
    compiled.close()


def _matrix_cells():
    # Every cell runs on this host; the ``local-`` prefix keeps the cells'
    # reported names stable.
    return [pytest.param(backend, id=f"local-{backend}") for backend in BACKENDS]


class TestExactTier:
    @pytest.mark.parametrize("backend", _matrix_cells())
    def test_cell_matches_reference(self, deployment, backend):
        compiled, frames = deployment
        x = frames[0][None]
        reference = compiled.infer(x, policy=ExecutionPolicy(backend="loop"))
        policy = ExecutionPolicy(backend=backend)
        np.testing.assert_array_equal(compiled.infer(x, policy=policy), reference)


class TestStream:
    @pytest.mark.parametrize("backend", _matrix_cells())
    def test_cell_matches_reference(self, deployment, backend):
        compiled, frames = deployment

        def run(policy):
            session = compiled.open_stream(policy=policy)
            try:
                return [session.process(frame).tobytes() for frame in frames]
            finally:
                session.close()

        reference = run(ExecutionPolicy(backend="loop"))
        policy = ExecutionPolicy(backend=backend)
        assert run(policy) == reference
        for frame, ref in zip(frames, reference):
            assert compiled.infer(frame[None], policy=policy)[0].tobytes() == ref

