"""One execution policy for the whole stack.

``repro.runtime`` separates *what* to execute (plans, pipelines, hooks) from
*how*: :class:`ExecutionPolicy`, a single validated, immutable description
of the kernel backend.  It is the one ``policy=`` argument of
``InferenceEngine``, ``CompiledPipeline.executor/infer/open_stream`` and
their stream sessions.  Process-level resources are not configured here: the
multiprocess backend forks its own pool and creates its own shared-memory
segments, and ``close()`` on its executor releases them.
"""

from .policy import ExecutionPolicy

__all__ = ["ExecutionPolicy"]
