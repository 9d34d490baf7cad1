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

All backends are bit-identical by contract (and by test).  Select one with
``PatchExecutor(..., backend="loop")``, per pipeline via
``CompiledPipeline.from_result(..., backend=...)``, or globally through the
``REPRO_BACKEND`` environment variable.
"""

from .base import (
    DEFAULT_BACKEND,
    Backend,
    BackendUnavailable,
    available_backends,
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
    "available_backends",
    "make_backend",
]
