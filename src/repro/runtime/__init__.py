"""One execution policy + one shared resource runtime for the whole stack.

``repro.runtime`` is the architectural seam separating *what* to execute
(plans, pipelines, hooks) from *how* (the kernel backend) and *with which
resources* (fork workers, shared memory):

* :class:`ExecutionPolicy` — a single validated, immutable description of
  how to execute: the kernel backend.
* :class:`Runtime` — a shared, thread-safe resource registry owning fork
  pools and shared-memory segments.  Two engines given one runtime share one
  registry; one :meth:`Runtime.close` releases everything.

Consumers: ``InferenceEngine(policy=..., runtime=...)``,
``CompiledPipeline.executor/infer/open_stream(policy=..., runtime=...)``,
and every executor's ``runtime=`` parameter.
"""

from .policy import ExecutionPolicy
from .resources import Runtime, RuntimeClosed, RuntimeStats, attach_segment

__all__ = [
    "ExecutionPolicy",
    "Runtime",
    "RuntimeClosed",
    "RuntimeStats",
    "attach_segment",
]
