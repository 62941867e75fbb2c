"""Observability for the CBMA pipeline: tracing, profiling, results.

The paper pipeline is only as fast (and as debuggable) as what can be
*measured* about it.  This package is that substrate:

``repro.obs.tracer``
    Zero-cost-when-disabled :class:`Tracer` -- span timing
    (``with tracer.span(S.FRAME_SYNC)``), counters and gauges --
    threaded through the receiver stages, the round loop and the epoch
    loop.  Without a tracer every hook collapses onto the shared
    :data:`NULL_TRACER` no-op singleton.

``repro.obs.taxonomy``
    Every metric name as a typed value: :class:`CounterName`,
    :class:`GaugeName` and :class:`SpanName` constants on ``C``, ``G``
    and ``S`` plus checked constructors for the parameterised
    families.  The enabled tracer rejects any other name.

``repro.obs.profile``
    :class:`RunProfile`: p50/p95 stage latencies, final counters,
    gauge distributions, and the stage-attributed error budget
    (detect vs decode vs wrong-payload losses).

``repro.obs.export``
    JSONL event log -- archive traces next to benchmark artefacts and
    diff them across optimisation PRs.

``repro.obs.dashboard``
    ASCII stage-breakdown view for ``repro profile``.

``repro.obs.result``
    :class:`ExperimentResult`, the unified return type of every
    ``repro.sim.experiments`` driver (params, metrics, profile, seed,
    wall time).

Quickstart::

    from repro import CbmaConfig, CbmaNetwork, Deployment
    from repro.obs import Tracer

    tracer = Tracer()
    net = CbmaNetwork(CbmaConfig(n_tags=4, seed=7),
                      Deployment.linear(4, tag_to_rx=1.0), tracer=tracer)
    net.run_rounds(20)
    print(tracer.profile().format_table())
"""

from repro.obs.dashboard import render_dashboard
from repro.obs.export import jsonl_lines, read_jsonl, write_jsonl
from repro.obs.profile import GaugeStats, RunProfile, StageStats
from repro.obs.result import ExperimentResult
from repro.obs.taxonomy import (
    C,
    CounterName,
    G,
    GaugeName,
    S,
    SpanName,
    decode_outcome,
    fault_loss,
    pipeline_failure,
    session_transition,
)
from repro.obs.tracer import (
    NULL_TRACER,
    PIPELINE_STAGES,
    NullTracer,
    SpanRecord,
    Tracer,
    as_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "PIPELINE_STAGES",
    "as_tracer",
    "RunProfile",
    "StageStats",
    "GaugeStats",
    "ExperimentResult",
    "jsonl_lines",
    "write_jsonl",
    "read_jsonl",
    "render_dashboard",
    "CounterName",
    "GaugeName",
    "SpanName",
    "pipeline_failure",
    "fault_loss",
    "decode_outcome",
    "session_transition",
    "C",
    "G",
    "S",
]
