"""Bit-identity across the backend matrix.

The execution contract of the whole stack: every kernel backend (loop /
vectorized / multiprocess) must produce *identical bits* on both zoo
deployments, through both surfaces a pipeline serves —
:meth:`CompiledPipeline.infer` and a stream session.  One quantized
deployment is served by one pipeline per backend, each named at
construction.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.serving import CompiledPipeline, compile_pipeline

from fixtures import quantize_zoo_model

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["loop", "vectorized"] + (["multiprocess"] if HAVE_FORK else [])

MODELS = [
    pytest.param(dict(model_name="mobilenetv2", resolution=32), id="mobilenetv2@32"),
    pytest.param(dict(model_name="mcunet", resolution=48), id="mcunet@48"),
]


def _on_backend(compiled: CompiledPipeline, backend: str) -> CompiledPipeline:
    """The same deployment served by a pipeline built on ``backend``."""
    return CompiledPipeline(
        compiled.graph, compiled.plan, compiled.state, compiled.spec, backend=backend
    )


@pytest.fixture(scope="module", params=MODELS)
def deployment(request):
    spec, pipeline, result = quantize_zoo_model(**request.param)
    compiled = compile_pipeline(pipeline, result, spec=spec)
    pipelines = {backend: _on_backend(compiled, backend) for backend in BACKENDS}
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
    yield compiled, pipelines, frames
    for served in pipelines.values():
        served.close()
    compiled.close()


def _matrix_cells():
    # Every cell runs on this host; the ``local-`` prefix keeps the cells'
    # reported names stable.
    return [pytest.param(backend, id=f"local-{backend}") for backend in BACKENDS]


class TestExactTier:
    @pytest.mark.parametrize("backend", _matrix_cells())
    def test_cell_matches_reference(self, deployment, backend):
        _, pipelines, frames = deployment
        x = frames[0][None]
        reference = pipelines["loop"].infer(x)
        assert pipelines[backend].infer(x).tobytes() == reference.tobytes()


class TestStream:
    @pytest.mark.parametrize("backend", _matrix_cells())
    def test_cell_matches_reference(self, deployment, backend):
        _, pipelines, frames = deployment

        def run(served):
            session = served.open_stream()
            try:
                return [session.process(frame).tobytes() for frame in frames]
            finally:
                session.close()

        reference = run(pipelines["loop"])
        assert run(pipelines[backend]) == reference
        for frame, ref in zip(frames, reference):
            assert pipelines[backend].infer(frame[None])[0].tobytes() == ref


class TestPipelineBackend:
    def test_backend_validated(self, deployment):
        # An unknown name fails while the pipeline is built, before any request.
        compiled, _, _ = deployment
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            _on_backend(compiled, "cuda")
