"""Structured tracing for the CBMA pipeline: spans, counters, gauges.

Every hot path in the repo (receiver stages, the round loop, the epoch
loop) accepts an optional :class:`Tracer`.  When one is supplied, the
code records

- **spans** -- wall-clock timed sections (``with tracer.span(S.DECODE)``),
  nested arbitrarily deep;
- **counters** -- monotonically increasing event counts
  (frames detected, CRC failures, SIC cancellations);
- **gauges** -- sampled scalar measurements (per-tag SNR,
  correlation-peak margins, residual energy after cancellation).

When *no* tracer is supplied the instrumentation collapses onto
:data:`NULL_TRACER`, a shared singleton whose every method is a no-op
and whose spans are one reusable object -- no allocation, no branching
beyond a single attribute lookup, so the traced pipeline stays within
noise of the untraced one.

Every name is a typed value from :mod:`repro.obs.taxonomy`: the
enabled tracer raises ``TypeError`` on a bare ``str`` or on a name of
the wrong kind, so an undeclared metric cannot open a bucket nothing
reads.  The canonical stage names of the receive pipeline are listed in
:data:`PIPELINE_STAGES`; use them so profiles from different receivers
aggregate cleanly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NoReturn, Optional

from repro.obs.taxonomy import CounterName, GaugeName, S, SpanName

__all__ = [
    "PIPELINE_STAGES",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
]

#: Canonical span names of the receive pipeline, in execution order.
PIPELINE_STAGES = (S.FRAME_SYNC, S.DETECT, S.DECODE, S.CRC, S.SIC)


def _reject(name: object, kind: type) -> NoReturn:
    raise TypeError(
        f"expected a {kind.__name__} from repro.obs.taxonomy, "
        f"got {type(name).__name__} {name!r}"
    )


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    start_s: float
    """Start time on the tracer's clock (perf_counter seconds)."""
    duration_s: float
    depth: int
    """Nesting depth at entry (0 = top level)."""
    index: int
    """Monotone completion index (export/replay ordering)."""
    attrs: Dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording one timed section."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._depth = len(self._tracer._stack)
        self._tracer._stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.records.append(
            SpanRecord(
                name=self._name,
                start_s=self._t0 - tracer._epoch,
                duration_s=t1 - self._t0,
                depth=self._depth,
                index=len(tracer.records),
                attrs=self._attrs,
            )
        )


class Tracer:
    """Collects spans, counters and gauges from an instrumented run.

    A tracer is cheap enough to leave on for whole experiments: span
    entry/exit is two ``perf_counter`` calls plus one small object, and
    counters/gauges are dict updates.  All state is in-memory; export
    it with :func:`repro.obs.export.write_jsonl` or summarise it with
    :meth:`profile`.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, List[float]] = {}
        self._stack: List[str] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------

    def span(self, name: SpanName, **attrs: Any) -> _Span:
        """Timed section: ``with tracer.span(S.FRAME_SYNC): ...``."""
        if type(name) is not SpanName:
            _reject(name, SpanName)
        return _Span(self, name, attrs)

    def count(self, name: CounterName, n: float = 1) -> None:
        """Increment counter *name* by *n*."""
        if type(name) is not CounterName:
            _reject(name, CounterName)
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: GaugeName, value: float) -> None:
        """Record one sample of measurement *name*."""
        if type(name) is not GaugeName:
            _reject(name, GaugeName)
        self.gauges.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------------

    @property
    def current_depth(self) -> int:
        """Nesting depth of the innermost open span."""
        return len(self._stack)

    def clear(self) -> None:
        """Drop all recorded state (open spans stay open)."""
        self.records.clear()
        self.counters.clear()
        self.gauges.clear()
        self._epoch = time.perf_counter()

    def profile(self, wall_time_s: Optional[float] = None):
        """Aggregate everything recorded so far into a
        :class:`~repro.obs.profile.RunProfile`."""
        from repro.obs.profile import RunProfile

        return RunProfile.from_tracer(self, wall_time_s=wall_time_s)

    def jsonl_lines(self) -> Iterator[str]:
        """The recorded events as JSONL (see :mod:`repro.obs.export`)."""
        from repro.obs.export import jsonl_lines

        return jsonl_lines(self)


class _NullSpan:
    """Reusable no-op span (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the disabled path of every instrumentation hook.

    All methods return immediately; :meth:`span` hands back one shared
    context manager so the ``with`` statement costs only its own
    bytecode.  Use the module singleton :data:`NULL_TRACER` rather than
    constructing new instances.
    """

    enabled = False
    records: List[SpanRecord] = []
    counters: Dict[str, float] = {}
    gauges: Dict[str, List[float]] = {}

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    @property
    def current_depth(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def profile(self, wall_time_s: Optional[float] = None):
        from repro.obs.profile import RunProfile

        return RunProfile.from_tracer(self, wall_time_s=wall_time_s)

    def jsonl_lines(self) -> Iterator[str]:
        return iter(())


#: The shared disabled tracer every un-traced code path collapses onto.
NULL_TRACER = NullTracer()


def as_tracer(tracer) -> Tracer:
    """Normalise an optional tracer argument (``None`` -> NULL_TRACER)."""
    return tracer if tracer is not None else NULL_TRACER
