"""Pluggable compute backends for the patch stage.

``repro.backend`` separates *what* patch-based inference computes (owned by
:class:`repro.patch.executor.PatchExecutor`: the plan, the quantization
hooks, the suffix) from *how* the dataflow branches are executed:

``loop``
    The serial per-branch reference — the bit-exactness oracle.
``vectorized``
    The requested branches as a cover of rectangle runs per program, each a
    bounding box of tiles without halo recompute or a single branch; one
    kernel call per feature map per run over compact per-call values (one
    GEMM per convolution, one fused requantization epilogue).  The default.
``multiprocess``
    Forked worker processes over shared memory, for GIL-free patch stages.

All backends are bit-identical by contract (and by test).  An executor holds
one, chosen by name when it is built: ``PatchExecutor(plan, backend="loop")``.
A :class:`~repro.serving.CompiledPipeline` holds one executor and passes it
the name it was built with (``CompiledPipeline.from_result(...,
backend=...)``); an unknown name raises ``ValueError`` listing the known ones.
"""

from .base import (
    DEFAULT_BACKEND,
    Backend,
    BackendUnavailable,
    make_backend,
)
from .loop import LoopBackend
from .multiprocess import MultiprocessBackend
from .vectorized import VectorizedBackend

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "BackendUnavailable",
    "LoopBackend",
    "MultiprocessBackend",
    "VectorizedBackend",
    "make_backend",
]
