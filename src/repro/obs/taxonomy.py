"""The metric-name taxonomy: every counter, gauge and span, declared once.

Observability only stays trustworthy while the names stay coherent: a
typo'd ``errors.pipline.decode.exception`` silently opens a new bucket
and the error budget stops adding up.  So a metric name is not a bare
string but a typed value this module builds:

- :class:`CounterName`, :class:`GaugeName` and :class:`SpanName` are
  ``str`` subclasses (they hash, compare, export and print as the plain
  dotted name);
- fixed names are the constants on :class:`C`, :class:`G` and
  :class:`S`, each declared once with its meaning as a comment;
- parameterised names come from the checked constructors below
  (:func:`pipeline_failure`, :func:`decode_outcome`, ...), which raise
  ``ValueError`` on a slug the taxonomy does not know.

An enabled :class:`~repro.obs.tracer.Tracer` raises ``TypeError`` on
any name of the wrong type -- a bare ``str``, or a gauge name passed to
``count`` -- so an undeclared name fails at its first traced emission.
Adding a metric means adding one constant or one constructor here.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterable, Tuple

__all__ = [
    "CounterName",
    "GaugeName",
    "SpanName",
    "CONTAINMENT_STAGES",
    "PIPELINE_FAILURE_REASONS",
    "DECODE_REASONS",
    "FAULT_KINDS",
    "SESSION_STATES",
    "GATEWAY_STATES",
    "pipeline_failure",
    "fault_loss",
    "fault_injection",
    "decode_outcome",
    "session_transition",
    "gateway_transition",
    "bench_reps",
    "bench_op_s",
    "C",
    "G",
    "S",
]


class CounterName(str):
    """A declared counter name (what ``Tracer.count`` accepts)."""

    __slots__ = ()


class GaugeName(str):
    """A declared gauge name (what ``Tracer.gauge`` accepts)."""

    __slots__ = ()


class SpanName(str):
    """A declared span name (what ``Tracer.span`` accepts)."""

    __slots__ = ()


#: Pipeline stages a contained failure may attribute itself to
#: (:class:`repro.receiver.failures.DecodeFailure.stage`).
CONTAINMENT_STAGES: FrozenSet[str] = frozenset(
    {"input", "frame_sync", "user_detection", "decode", "crc", "sic", "ack"}
)

#: Reason slugs of contained pipeline failures
#: (``errors.pipeline.<stage>.<reason>``).
PIPELINE_FAILURE_REASONS: FrozenSet[str] = frozenset(
    {"exception", "non_finite", "not_1d", "uninterpretable", "ghost_suppression"}
)

#: Outcome slugs of one frame decode (``decode.<reason>`` counters and
#: :class:`~repro.receiver.decoder.DecodedFrame.reason`).
DECODE_REASONS: FrozenSet[str] = frozenset(
    {"ok", "length", "truncated", "crc", "exception", "ghost"}
)

#: Fault kinds, in loss-attribution priority order (the order
#: :data:`repro.faults.models.FAULT_REASONS` derives from).  ``errors.fault.<kind>``
#: attributes a lost frame to an injected fault; ``faults.<kind>`` counts
#: the injection itself.
FAULT_KINDS: Tuple[str, ...] = (
    "dropout",
    "brownout",
    "clock_drift",
    "adc_clip",
    "interference",
    "ack_loss",
)

#: Health states of a supervised streaming session
#: (:class:`repro.receiver.session.HealthState` values; the
#: ``session.transition.<state>`` counter family).
SESSION_STATES: FrozenSet[str] = frozenset({"healthy", "degraded", "resync", "failed"})

#: Degradation-ladder rungs of the async ingestion gateway
#: (:class:`repro.gateway.ladder.GatewayState` values; the
#: ``gateway.transition.<state>`` counter family).
GATEWAY_STATES: FrozenSet[str] = frozenset({"full", "throttled", "shed", "draining"})

_SLUG = re.compile(r"^[a-z][a-z0-9_]*$")


def _checked(what: str, slug: str, allowed: Iterable[str]) -> str:
    if slug not in allowed:
        raise ValueError(f"unknown {what} {slug!r} (allowed: {', '.join(sorted(allowed))})")
    return slug


def _strip_fault(kind: str) -> str:
    """Accept a bare kind (``"dropout"``) or the prefixed slug a
    :class:`~repro.faults.plan.RoundFaults` reports (``"fault.dropout"``)."""
    return kind[len("fault."):] if kind.startswith("fault.") else kind


# ----------------------------------------------------------------------
# Checked constructors for the parameterised families
# ----------------------------------------------------------------------


def pipeline_failure(stage: str, reason: str) -> CounterName:
    """``errors.pipeline.<stage>.<reason>``: a contained pipeline failure."""
    _checked("pipeline stage", stage, CONTAINMENT_STAGES)
    _checked("failure reason", reason, PIPELINE_FAILURE_REASONS)
    return CounterName(f"errors.pipeline.{stage}.{reason}")


def fault_loss(kind: str) -> CounterName:
    """``errors.fault.<kind>``: a lost frame attributed to an injected fault."""
    return CounterName(f"errors.fault.{_checked('fault kind', _strip_fault(kind), FAULT_KINDS)}")


def fault_injection(kind: str) -> CounterName:
    """``faults.<kind>``: one fault injection (not a loss)."""
    slug = _checked("fault kind", _strip_fault(kind), (*FAULT_KINDS, "ack_lost"))
    return CounterName(f"faults.{slug}")


def decode_outcome(reason: str) -> CounterName:
    """``decode.<reason>``: one frame decode outcome."""
    return CounterName(f"decode.{_checked('decode reason', reason, DECODE_REASONS)}")


def session_transition(state: str) -> CounterName:
    """``session.transition.<state>``: a health transition by destination."""
    return CounterName(f"session.transition.{_checked('session state', state, SESSION_STATES)}")


def gateway_transition(state: str) -> CounterName:
    """``gateway.transition.<state>``: a ladder transition by destination rung."""
    return CounterName(f"gateway.transition.{_checked('gateway state', state, GATEWAY_STATES)}")


def _bench_op(op: str) -> str:
    if not _SLUG.match(op):
        raise ValueError(f"benchmark op {op!r} is not a slug")
    return op


def bench_reps(op: str) -> CounterName:
    """``bench.<op>.reps``: timed repetitions of one benchmark operation."""
    return CounterName(f"bench.{_bench_op(op)}.reps")


def bench_op_s(op: str) -> GaugeName:
    """``bench.<op>.op_s``: per-repetition latency of one benchmark operation."""
    return GaugeName(f"bench.{_bench_op(op)}.op_s")


class C:
    """Counter names."""

    ROUND_ROUNDS = CounterName("round.rounds")  # collision rounds simulated
    ROUND_FRAMES_SENT = CounterName("round.frames_sent")  # frames offered by active tags
    ROUND_FRAMES_CORRECT = CounterName("round.frames_correct")  # frames delivered payload-exact
    EPOCH_EPOCHS = CounterName("epoch.epochs")  # system epochs completed
    EPOCH_POWER_CONTROL_RUNS = CounterName("epoch.power_control_runs")  # Algorithm 1 invocations
    UNSLOTTED_OFFERED = CounterName("unslotted.offered")  # unslotted transmissions offered
    UNSLOTTED_DELIVERED = CounterName("unslotted.delivered")  # unslotted transmissions decoded
    # --- receiver stages
    FRAME_SYNC_DETECTIONS = CounterName("frame_sync.detections")  # declared frame starts
    FRAME_SYNC_CROSSINGS = CounterName("frame_sync.crossings")  # raw threshold crossings
    FRAME_SYNC_MISSES = CounterName("frame_sync.misses")  # buffers with no energy detection
    DETECT_USERS = CounterName("detect.users")  # user detections across rounds
    DECODE_GHOST = decode_outcome("ghost")  # decodes suppressed as another user's frame
    CRC_OK = CounterName("crc.ok")  # CRC checks passed
    CRC_FAIL = CounterName("crc.fail")  # CRC checks failed
    SIC_PASSES = CounterName("sic.passes")  # SIC detect-decode-cancel passes
    SIC_CANCELLATIONS = CounterName("sic.cancellations")  # frames subtracted by SIC
    # --- loss attribution (the error budget) and fault injections
    ERRORS_NOT_DETECTED = CounterName("errors.not_detected")  # losses at detection
    ERRORS_NOT_DECODED = CounterName("errors.not_decoded")  # losses at decode
    ERRORS_WRONG_PAYLOAD = CounterName("errors.wrong_payload")  # CRC-passing wrong payloads
    FAULTS_ACK_LOST = fault_injection("ack_lost")  # downlink ACKs lost to an injected fault
    # --- stop-and-wait ARQ events
    ARQ_OFFERED = CounterName("arq.offered")  # messages offered to the tag queues
    ARQ_DELIVERED = CounterName("arq.delivered")  # messages delivered (sequence-deduped)
    ARQ_DROPPED = CounterName("arq.dropped")  # messages dropped at a full queue or the retry limit
    ARQ_DUPLICATES = CounterName("arq.duplicates")  # redeliveries after a lost ACK
    ARQ_ACKS_LOST = CounterName("arq.acks_lost")  # downlink ACKs that never reached their tag
    ARQ_TRANSMISSIONS = CounterName("arq.transmissions")  # transmission attempts, retries included
    # --- supervised streaming sessions (repro.receiver.session)
    SESSION_WINDOWS = CounterName("session.windows")  # windows walked by the supervisor
    SESSION_WINDOWS_LIVE = CounterName("session.windows_live")  # windows past the pre-gate (full decode)
    SESSION_WINDOWS_SKIPPED = CounterName("session.windows_skipped")  # dark windows skipped by the pre-gate
    SESSION_WINDOWS_SHED = CounterName("session.windows_shed")  # oldest windows dropped by backlog shedding
    SESSION_FRAMES = CounterName("session.frames")  # stream frames emitted by the session
    SESSION_DUPLICATES = CounterName("session.duplicates")  # cross-window duplicate decodes suppressed
    SESSION_DEDUP_EVICTIONS = CounterName("session.dedup_evictions")  # dedup entries evicted past the horizon
    SESSION_RESYNCS = CounterName("session.resyncs")  # re-synchronisation passes entered
    SESSION_WATCHDOG_TRIPS = CounterName("session.watchdog_trips")  # per-window latency watchdog trips
    SESSION_QUARANTINED = CounterName("session.quarantined")  # ingested chunks needing sanitisation
    SESSION_CHECKPOINTS = CounterName("session.checkpoints")  # session checkpoints written
    SESSION_RESTORES = CounterName("session.restores")  # sessions restored from a checkpoint
    # --- parallel decode farm (repro.farm)
    FARM_CHUNKS = CounterName("farm.chunks")  # sample chunks fanned out to workers
    FARM_FRAMES = CounterName("farm.frames")  # stream frames collected from workers
    FARM_SESSIONS_OPENED = CounterName("farm.sessions_opened")  # sessions placed on a worker
    FARM_SESSIONS_CLOSED = CounterName("farm.sessions_closed")  # sessions finished or drained away
    FARM_MIGRATIONS = CounterName("farm.migrations")  # sessions drained and resumed on another worker
    FARM_BATCHED_WINDOWS = CounterName("farm.batched_windows")  # windows pre-gated through a cross-session batch
    FARM_SLOT_WAITS = CounterName("farm.slot_waits")  # feeds that blocked for a free ring slot
    # --- async ingestion gateway (repro.gateway)
    GATEWAY_STREAMS_OPENED = CounterName("gateway.streams_opened")  # capture streams admitted by the gateway
    GATEWAY_STREAMS_CLOSED = CounterName("gateway.streams_closed")  # capture streams finished or evicted
    GATEWAY_ADMITTED = CounterName("gateway.admitted")  # chunks accepted into a stream intake queue
    GATEWAY_REJECTED = CounterName("gateway.rejected")  # chunks (or streams) refused at admission
    GATEWAY_SHED = CounterName("gateway.shed")  # admitted chunks dropped by load shedding
    GATEWAY_RETRIES = CounterName("gateway.retries")  # admission retries after jittered backoff
    GATEWAY_DEADLINE_MISSES = CounterName("gateway.deadline_misses")  # requests abandoned at their deadline
    GATEWAY_CHUNKS = CounterName("gateway.chunks")  # chunks fed through to the decode farm
    GATEWAY_FRAMES = CounterName("gateway.frames")  # stream frames delivered to gateway clients
    GATEWAY_MIGRATIONS = CounterName("gateway.migrations")  # sessions drained/resumed for elasticity
    # --- macro tier (repro.macro: event-driven fleet simulator)
    MACRO_OFFERED = CounterName("macro.offered")  # messages offered to the macro engine
    MACRO_DELIVERED = CounterName("macro.delivered")  # messages delivered (deduped) by the macro engine
    MACRO_DROPPED = CounterName("macro.dropped")  # messages dropped at retry limit or queue tail
    MACRO_DUPLICATES = CounterName("macro.duplicates")  # redeliveries after a lost ACK (deduped)
    MACRO_ACKS_LOST = CounterName("macro.acks_lost")  # downlink ACKs that never reached their tag
    MACRO_TRANSMISSIONS = CounterName("macro.transmissions")  # transmission attempts simulated
    MACRO_COLLISIONS = CounterName("macro.collisions")  # attempts lost to concurrent-access FER
    MACRO_WINDOWS = CounterName("macro.windows")  # arrival windows advanced by the engine
    MACRO_CALIBRATION_ROUNDS = CounterName("macro.calibration_rounds")  # PHY rounds run by the calibration sweep
    MACRO_SURFACE_CACHE_HITS = CounterName("macro.surface_cache_hits")  # calibration artifacts reused from cache


class G:
    """Gauge names."""

    TAG_SNR_DB = GaugeName("tag.snr_db")  # per-tag SNR at the receiver
    FRAME_SYNC_LEAD_DB = GaugeName("frame_sync.lead_db")  # detection margin over threshold
    DETECT_SCORE = GaugeName("detect.score")  # normalised correlation of detections
    DETECT_PEAK_MARGIN = GaugeName("detect.peak_margin")  # peak margin over runner-up
    ROUND_N_SAMPLES = GaugeName("round.n_samples")  # synthesized buffer length
    SESSION_BACKLOG_WINDOWS = GaugeName("session.backlog_windows")  # pending windows after each feed
    SESSION_DEDUP_SIZE = GaugeName("session.dedup_size")  # dedup table size after each window
    SESSION_WINDOW_LATENCY_S = GaugeName("session.window_latency_s")  # wall-clock latency per live window
    FARM_SESSIONS_LIVE = GaugeName("farm.sessions_live")  # sessions currently resident on workers
    FARM_QUEUE_DEPTH = GaugeName("farm.queue_depth")  # commands in flight to workers
    FARM_WORKER_UTILIZATION = GaugeName("farm.worker_utilization")  # busy fraction per worker over its lifetime
    FARM_RING_OCCUPANCY = GaugeName("farm.ring_occupancy")  # occupied shared-memory ring slots after each feed
    GATEWAY_QUEUE_DEPTH = GaugeName("gateway.queue_depth")  # aggregate intake chunks queued across streams
    GATEWAY_TOKENS = GaugeName("gateway.tokens")  # admission tokens left in the bucket
    GATEWAY_RTF = GaugeName("gateway.rtf")  # decode wall seconds per stream second (smoothed)
    GATEWAY_STREAMS_LIVE = GaugeName("gateway.streams_live")  # capture streams currently open
    GATEWAY_RETAINED_SAMPLES = GaugeName("gateway.retained_samples")  # samples retained for migration re-feed
    MACRO_BACKLOG = GaugeName("macro.backlog")  # queued messages across the fleet after each window
    MACRO_EVENTS_PER_SEC = GaugeName("macro.events_per_sec")  # engine event throughput of one run
    MACRO_FER = GaugeName("macro.fer")  # frame error rate the link surface returned


class S:
    """Span names.  The first five are the receive pipeline's stages
    (:data:`repro.obs.tracer.PIPELINE_STAGES`, in execution order)."""

    FRAME_SYNC = SpanName("frame_sync")  # energy frame synchronisation
    DETECT = SpanName("detect")  # correlation user detection
    DECODE = SpanName("decode")  # one user's chip decode
    CRC = SpanName("crc")  # CRC check of one decoded frame
    SIC = SpanName("sic")  # one SIC detect-decode-cancel pass
    ROUND = SpanName("round")  # one collision round of the network loop
    EPOCH = SpanName("epoch")  # one system epoch
    SYNTHESIZE = SpanName("synthesize")  # waveform synthesis of a capture
    STREAM_DECODE = SpanName("stream_decode")  # one window walk over a stream
    SESSION_WINDOW = SpanName("session_window")  # one window of a supervised session
    GATEWAY_STEP = SpanName("gateway_step")  # one gateway dispatch cycle
    MACRO_RUN = SpanName("macro_run")  # one macro-engine run
    MACRO_CALIBRATION = SpanName("macro_calibration")  # one FER-surface calibration sweep
    BENCH = SpanName("bench")  # one timed benchmark repetition
