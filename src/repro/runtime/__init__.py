"""One execution policy + one shared resource runtime for the whole stack.

``repro.runtime`` is the architectural seam separating *what* to execute
(plans, pipelines, hooks) from *how* (placement, backend, freshness) and
*with which resources* (pools, fork workers, shared memory):

* :class:`ExecutionPolicy` — a single validated, immutable description of
  how to execute: placement (:func:`local` | :func:`cluster`), kernel
  backend, freshness tier.
* :class:`Runtime` — a shared, thread-safe resource registry owning thread
  pools, fork pools and shared-memory segments, handing out leased handles
  so executors stop privately constructing pools.  Two engines given one
  runtime share one pool set; one :meth:`Runtime.close` releases everything.

Consumers: ``InferenceEngine(policy=..., runtime=...)``,
``CompiledPipeline.executor/infer/open_stream(policy=..., runtime=...)``,
and every executor's ``runtime=`` parameter.
"""

from .policy import (
    FRESHNESS_TIERS,
    PLACEMENT_KINDS,
    ExecutionPolicy,
    Placement,
    cluster,
    local,
)
from .resources import Runtime, RuntimeClosed, RuntimeStats, ThreadPoolLease, attach_segment

__all__ = [
    "ExecutionPolicy",
    "FRESHNESS_TIERS",
    "PLACEMENT_KINDS",
    "Placement",
    "Runtime",
    "RuntimeClosed",
    "RuntimeStats",
    "ThreadPoolLease",
    "attach_segment",
    "cluster",
    "local",
]
