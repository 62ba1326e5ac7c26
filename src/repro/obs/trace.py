"""Lightweight per-query trace spans and deterministic trace IDs.

A span brackets one logical operation (a range query, an EM query, a
whole experiment) and records its wall-clock duration plus free-form
attributes into the registry: the duration feeds a ``span.<name>.us``
histogram and the most recent :data:`~repro.obs.registry.SPAN_BUFFER`
spans are retained verbatim for snapshots.

When metrics are disabled, :func:`repro.obs.span` hands out one shared
no-op context manager — no allocation, no clock read — so tracing a hot
query path costs a single function call on the off-path.

Spans never consume randomness, so tracing cannot perturb seeded sample
streams (the IQS outputs are a pure function of the seed either way).
The same holds for trace IDs: :func:`trace_id_for` is a *stateless* hash
of ``(seed, index)`` (SplitMix64 via
:func:`repro.substrates.rng.derive_seed`), so assigning every request in
a batch a trace ID draws nothing from any generator and sample streams
stay byte-identical with tracing on or off.

The **current trace** is a :class:`contextvars.ContextVar` scoped to the
executing request: the engine (and the process-backend worker) set it
around each request's execution, and every span opened underneath —
shard fan-outs, shared-memory attaches, worker execution spans —
auto-attaches it as a ``trace`` attribute. That is what lets
:func:`repro.obs.timeline` reassemble one request's spans and flight
records across every placement and execution backend.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

#: Domain-separation salt folded into the seed before deriving a trace
#: ID, so trace IDs never collide with the per-request *seed* stream
#: (``derive_seed(seed, i)``) spawned from the same master seed.
TRACE_SALT = 0x7ACE_1D5A_17ED_0B5E

#: The trace ID of the request currently executing on this thread/task.
_CURRENT_TRACE: ContextVar[Optional[str]] = ContextVar(
    "repro_current_trace", default=None
)


def trace_id_for(seed: int, index: int) -> str:
    """The deterministic trace ID of request ``index`` under ``seed``.

    A 16-hex-digit string, a pure function of its arguments — no
    randomness is consumed, so metrics-on and metrics-off runs of the
    same batch assign identical IDs *and* identical sample streams.
    """
    from repro.substrates.rng import derive_seed

    return format(derive_seed(seed ^ TRACE_SALT, index), "016x")


def current_trace() -> Optional[str]:
    """The trace ID of the request executing in this context, if any."""
    return _CURRENT_TRACE.get()


def set_current_trace(trace_id: Optional[str]):
    """Set the current trace ID; returns the token for :func:`reset_current_trace`."""
    return _CURRENT_TRACE.set(trace_id)


def reset_current_trace(token) -> None:
    """Restore the current-trace context to the state before ``token``."""
    _CURRENT_TRACE.reset(token)


class NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (matching :meth:`SpanTimer.set`)."""


#: The singleton handed out whenever metrics are disabled.
NULL_SPAN = NullSpan()


class SpanTimer:
    """Context manager measuring one operation into the registry."""

    __slots__ = ("name", "attrs", "_registry", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, attrs: dict):
        self._registry = registry
        self.name = name
        self.attrs = attrs
        if "trace" not in attrs:
            trace = _CURRENT_TRACE.get()
            if trace is not None:
                attrs["trace"] = trace
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-operation (e.g. result size)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "SpanTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_us = (perf_counter() - self._start) * 1e6
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._registry.record_span(self.name, duration_us, self.attrs)
        return False


__all__ = [
    "NullSpan",
    "NULL_SPAN",
    "SpanTimer",
    "TRACE_SALT",
    "current_trace",
    "reset_current_trace",
    "set_current_trace",
    "trace_id_for",
]
