"""The Executor protocol: how the session facade talks to any backend.

A backend is anything that can turn query text into an *unstarted*
Query Execution Tree plus static output metadata.  The protocol is
deliberately tiny — one method, one return type — so the optimizer and
QET internals stay out of callers:

``prepare(text, allow_tag_route=True) -> PreparedQuery``
    Parse, plan, (for distributed backends) split and route, and build
    the execution tree **without starting any thread**.  The session
    layer owns the lifecycle from there: admission through the machine
    scheduler, thread start, streaming, cancellation.

``kind``
    A short backend label (``"local"``, ``"distributed"``, ...) used in
    reporting.

Optionally, ``supports_mydb`` (the backend can overlay per-user MyDB
stores and run ``SELECT ... INTO``) and ``generations_for(sources,
extra_stores=None)`` (store generation snapshots that validate result
cache entries).

The executors are the two engines,
:class:`~repro.query.engine.QueryEngine` (single store) and
:class:`~repro.distributed.engine.DistributedQueryEngine`
(scatter-gather), plus the network clients
:class:`~repro.net.client.RemoteExecutor` and
:class:`~repro.net.cluster.RemotePartitionedExecutor`.
"""

from __future__ import annotations

from repro.query.engine import PreparedQuery

__all__ = ["PreparedQuery", "Executor"]


class Executor:
    """Protocol base class (subclassing is optional; duck-typing with a
    ``prepare`` method and a ``kind`` attribute is enough)."""

    kind = "abstract"

    def prepare(self, text, allow_tag_route=True):
        raise NotImplementedError
