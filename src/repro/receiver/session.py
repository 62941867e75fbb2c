"""Supervised long-run streaming sessions.

:class:`~repro.receiver.streaming.StreamingReceiver` is a one-shot
batch walk: hand it a complete capture, get the frames back.  A
deployed receiver instead listens for hours -- samples arrive in
chunks, the decoder occasionally falls behind, tags drift off the chip
grid, and the process hosting the receiver gets killed and restarted.
:class:`SessionSupervisor` wraps the streaming walk with the
operational machinery such a deployment needs:

- **Chunked ingestion with a bounded backlog.**  ``feed(chunk)``
  accepts arbitrarily sized sample chunks; complete windows are
  processed as they become available.  When processing is
  rate-limited (``max_windows_per_feed``) and the backlog exceeds
  ``max_backlog_windows``, the *oldest* pending windows are shed --
  an explicit, counted policy (``session.windows_shed``) instead of
  unbounded buffering.

- **A health state machine** (:class:`HealthState`)::

      HEALTHY ⇄ DEGRADED        (decode-failure rate, latency watchdog)
         │          │
         └────┬─────┘  sustained live-but-undecodable streak
              ▼
           RESYNC ──(recovers)──▶ HEALTHY
              │
              └──(fail_after_resyncs exhausted)──▶ FAILED

  Transitions are driven by the decode-failure rate over recent
  *attempts* (windows where a user detection scored strongly -- see
  ``SessionConfig.attempt_score``) and a per-window latency watchdog.
  The watchdog uses wall-clock time and therefore only ever influences
  the HEALTHY/DEGRADED distinction -- never which frames are decoded --
  so session output stays bit-deterministic.

- **Automatic re-synchronisation.**  A sustained run of windows where
  a user detects strongly but nothing decodes (the signature of
  accumulated timing drift) enters RESYNC: the next acquisition re-runs the
  :class:`~repro.receiver.user_detection.UserDetector` over a window
  widened by ``resync_widen_factor`` so the correlation search covers
  offsets far beyond the normal hop.  Corrupt ingest (NaN/Inf samples,
  wrong rank) is quarantined at the boundary through
  :func:`repro.receiver.failures.sanitize_buffer` and counted.

- **Checkpoint/restore.**  :meth:`checkpoint` serialises the full
  session state -- stream position, bounded dedup table, health
  machine, pending frames, counters -- as JSONL behind a validated
  header line (the same header-validated resume format
  :mod:`repro.sim.sweep` uses for sweep checkpoints).
  :meth:`restore` refuses a checkpoint whose geometry does not match
  the receiver it is being attached to.  A killed session restored
  from its checkpoint and re-fed from ``position`` emits exactly the
  frames the uninterrupted run would have.

Frames are emitted in globally non-decreasing ``start_sample`` order:
a decoded frame is held in a small reorder buffer until the walk
position has passed it, at which point no later window can decode an
earlier frame.  The chaos-soak harness
(:mod:`repro.sim.experiments.soak`) checks that ordering -- along with
duplicate-freedom, bounded memory and shed/quarantine accounting -- as
machine-verifiable invariants over multi-thousand-window fault
campaigns.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.taxonomy import C, CounterName, G, S, session_transition
from repro.obs.tracer import as_tracer
from repro.receiver.failures import sanitize_buffer
from repro.receiver.streaming import StreamFrame, StreamingReceiver

__all__ = ["HealthState", "SessionConfig", "SessionSupervisor", "CHECKPOINT_FORMAT"]

#: ``format`` field of the checkpoint header line.
CHECKPOINT_FORMAT = "cbma-session"
#: Version 2 added the buffer dtype to the geometry header (the
#: complex64 fast path must not resume onto a complex128 stack).
_CHECKPOINT_VERSION = 2
#: ``stats`` keys are the ``session.<key>`` counter names' suffixes.
_STATS_KEY_AT = len("session.")


# The checkpoint schema: one frozen dataclass per record type, written
# as ``{"type": name, **fields}`` in declaration order and parsed back
# through :func:`_parse_record`, which requires exactly these fields.

@dataclass(frozen=True)
class _HeaderRecord:
    """First record: format, version and the receiver geometry."""

    format: str
    version: int
    window_samples: int
    hop_samples: int
    max_frame_bits: int
    n_users: int
    dtype: str


@dataclass(frozen=True)
class _StateRecord:
    """Walk position, health machine and counters (exactly one)."""

    pos: int
    window_index: int
    samples_fed: int
    health: str
    recent: List[bool]
    nodecode_streak: int
    resync_attempts: int
    stats: Dict[str, int]
    peak_dedup: int
    dedup_evictions: int
    peak_backlog_windows: int


@dataclass(frozen=True)
class _FrameRecord:
    """One frame: a live dedup entry or a frame held for ordered emission."""

    user: int
    payload: str  # hex
    start: int

    def frame(self) -> StreamFrame:
        return StreamFrame(
            user_id=int(self.user),
            payload=bytes.fromhex(self.payload),
            start_sample=int(self.start),
        )


@dataclass(frozen=True)
class _HistoryRecord:
    """One health transition (the writer always emits at least one)."""

    window: int
    state: str


_RECORD_TYPES = {
    "header": _HeaderRecord,
    "state": _StateRecord,
    "dedup": _FrameRecord,
    "pending": _FrameRecord,
    "history": _HistoryRecord,
}


def _parse_record(rec: dict, source: str) -> object:
    """*rec* as its declared record type, or a :class:`ValueError`
    naming the missing field, unknown field or unknown type."""
    kind = rec.get("type", "untyped")
    cls = _RECORD_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"{source} has an unknown {kind!r} record; refusing to restore")
    names = [f.name for f in fields(cls)]
    for key in names:
        if key not in rec:
            raise ValueError(
                f"{source} {kind} record is missing field {key!r}; refusing to restore"
            )
    for key in rec:
        if key != "type" and key not in names:
            raise ValueError(
                f"{source} {kind} record has unknown field {key!r}; refusing to restore"
            )
    return cls(**{key: rec[key] for key in names})


class HealthState(Enum):
    """Operational state of a supervised session."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RESYNC = "resync"
    FAILED = "failed"


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs of a :class:`SessionSupervisor`.

    Attributes
    ----------
    max_backlog_windows:
        Pending (complete, unprocessed) windows tolerated before the
        shedding policy drops the oldest.
    max_windows_per_feed:
        Windows processed per :meth:`SessionSupervisor.feed` call
        (``None`` = drain everything available).  Modelling a
        real-time budget; anything beyond it accumulates as backlog.
    health_window:
        Sliding window (in decode *attempts*, not raw windows -- soak
        traffic is sparse, and a window-indexed rate would never
        accumulate a sample) over which the failure rate is estimated.
    attempt_score:
        Detection score above which a window counts as an *attempt*: a
        user looked strongly present, so decoding nothing is a decode
        failure.  Deliberately above the detector's acceptance
        threshold -- short templates false-alarm on pure noise just
        over the threshold, and a health machine keyed to those would
        spiral on silence.
    min_attempts:
        Attempts required in the sliding window before rate-based
        transitions fire (avoids flapping on tiny samples).
    degrade_failure_rate / recover_failure_rate:
        Fraction of recent attempts decoding nothing above which
        HEALTHY degrades, and at-or-below which DEGRADED heals.
    resync_after:
        Consecutive failed attempts (strong detection, no decode --
        the signature of accumulated timing drift) that trigger RESYNC.
    fail_after_resyncs:
        RESYNC acquisitions allowed (without a successful decode)
        before the session declares FAILED.
    resync_widen_factor:
        Window-length multiplier for the widened RESYNC acquisition.
    watchdog_budget_s:
        Per-window wall-clock latency budget; a live window exceeding
        it trips the watchdog (``session.watchdog_trips``) and
        degrades health, but never alters decode output.
    """

    max_backlog_windows: int = 64
    max_windows_per_feed: Optional[int] = None
    health_window: int = 16
    attempt_score: float = 0.3
    min_attempts: int = 4
    degrade_failure_rate: float = 0.5
    recover_failure_rate: float = 0.25
    resync_after: int = 3
    fail_after_resyncs: int = 3
    resync_widen_factor: int = 2
    watchdog_budget_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_backlog_windows < 1:
            raise ValueError("max_backlog_windows must be >= 1")
        if self.max_windows_per_feed is not None and self.max_windows_per_feed < 1:
            raise ValueError("max_windows_per_feed must be >= 1 (or None)")
        if not 0.0 < self.attempt_score <= 1.0:
            raise ValueError("attempt_score must be in (0, 1]")
        if self.health_window < 1 or self.min_attempts < 1:
            raise ValueError("health_window and min_attempts must be >= 1")
        if not 0.0 <= self.recover_failure_rate <= self.degrade_failure_rate <= 1.0:
            raise ValueError(
                "need 0 <= recover_failure_rate <= degrade_failure_rate <= 1"
            )
        if self.resync_after < 1 or self.fail_after_resyncs < 1:
            raise ValueError("resync_after and fail_after_resyncs must be >= 1")
        if self.resync_widen_factor < 1:
            raise ValueError("resync_widen_factor must be >= 1")
        if self.watchdog_budget_s <= 0:
            raise ValueError("watchdog_budget_s must be positive")


#: One entry per decode attempt in the sliding health window: did it
#: yield a successful decode?
_Outcome = bool


class SessionSupervisor:
    """Long-run supervisor around a :class:`StreamingReceiver`.

    Parameters
    ----------
    streaming:
        The window-sliding receiver to supervise.
    config:
        Supervision policy (:class:`SessionConfig`).
    tracer:
        Optional :class:`repro.obs.Tracer`; session counters and
        gauges land under the ``session.*`` taxonomy family.
    clock:
        Monotonic time source for the latency watchdog (injectable for
        tests; defaults to :func:`time.perf_counter`).
    """

    def __init__(
        self,
        streaming: StreamingReceiver,
        config: Optional[SessionConfig] = None,
        tracer=None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.streaming = streaming
        self.config = config or SessionConfig()
        self.tracer = as_tracer(tracer)
        self.clock = clock

        # The ingest buffer follows the streaming stack's dtype (the
        # complex64 fast path must not silently widen here); stand-in
        # streams without a dtype attribute get the default.
        self._dtype = np.dtype(getattr(streaming, "dtype", np.complex128))
        self._buf = np.zeros(0, dtype=self._dtype)
        self._base = 0  # absolute sample index of _buf[0]
        self._pos = 0  # absolute sample index of the next window
        self._fed = 0  # absolute samples ingested so far
        self._finished = False
        #: ``(live, plane)`` pre-supplied by :meth:`prime_gate` for the
        #: next window only.
        self._primed: Optional[Tuple[bool, Optional[np.ndarray]]] = None

        self.dedup = streaming.make_dedup()
        self._pending: List[StreamFrame] = []
        self._window_index = 0

        self._state = HealthState.HEALTHY
        self._recent: Deque[_Outcome] = deque(maxlen=self.config.health_window)
        self._nodecode_streak = 0
        self._resync_attempts = 0
        self.health_history: List[Tuple[int, str]] = [(0, HealthState.HEALTHY.value)]

        #: Session accounting, independent of the tracer (the soak
        #: invariants reconcile against these even with tracing off).
        self.stats: Dict[str, int] = {
            "windows": 0,
            "windows_live": 0,
            "windows_skipped": 0,
            "windows_shed": 0,
            "frames": 0,
            "duplicates": 0,
            "dedup_evictions": 0,
            "resyncs": 0,
            "watchdog_trips": 0,
            "quarantined": 0,
        }
        self.peak_backlog_windows = 0

    @classmethod
    def from_config(
        cls,
        config,
        *,
        codes=None,
        session: Optional[SessionConfig] = None,
        window_frames: float = 2.0,
        dtype=np.complex128,
        tracer=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "SessionSupervisor":
        """Build a supervised session from one :class:`~repro.sim.network.CbmaConfig`.

        The full construction chain -- ``CbmaConfig`` ->
        :meth:`CbmaReceiver.from_config` ->
        :meth:`StreamingReceiver.from_config` -> supervisor -- in one
        call.  *session* is the supervision policy
        (:class:`SessionConfig`), *dtype* the ingest-buffer dtype
        (``complex64`` opts into the fast path).
        """
        streaming = StreamingReceiver.from_config(
            config,
            codes=codes,
            window_frames=window_frames,
            dtype=dtype,
            tracer=tracer,
        )
        return cls(streaming, config=session, tracer=tracer, clock=clock)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> HealthState:
        return self._state

    @property
    def position(self) -> int:
        """Absolute sample index of the next window to process.

        After :meth:`restore`, re-feed the capture from this index.
        """
        return self._pos

    @property
    def samples_fed(self) -> int:
        return self._fed

    @property
    def backlog_windows(self) -> int:
        """Complete windows buffered but not yet processed."""
        available = self._base + self._buf.size - self._pos
        if available < self.streaming.window_samples:
            return 0
        return 1 + (available - self.streaming.window_samples) // self.streaming.hop_samples

    @property
    def pending_frames(self) -> int:
        """Decoded frames held back for ordered emission."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def feed(self, chunk) -> List[StreamFrame]:
        """Ingest *chunk* and return the frames whose order is final.

        Corrupt chunks (NaN/Inf, wrong rank, uninterpretable) are
        quarantined through :func:`sanitize_buffer` -- repaired where
        possible, counted under ``session.quarantined`` -- so poisoned
        samples can never silently dark out the pre-gate.  In FAILED
        state the session stops decoding: everything fed is shed (and
        counted), never silently buffered.

        ``feed`` is exactly :meth:`ingest` followed by a full
        :meth:`pump`; the farm worker calls the two halves separately
        so it can co-schedule the window walk across sessions.
        """
        self.ingest(chunk)
        return self.pump()

    def ingest(self, chunk) -> int:
        """Sanitise and buffer *chunk* without processing any windows.

        Returns the number of samples accepted.  The chunk is always
        **copied** into the session's own buffer (never aliased), so
        callers may hand in views of shared or reused memory -- the
        farm's shared-memory ring slots -- and recycle them as soon as
        this returns.
        """
        if self._finished:
            raise RuntimeError("session is finished; create a new supervisor")
        x, failures = sanitize_buffer(chunk, dtype=self._dtype)
        if failures:
            self._count(C.SESSION_QUARANTINED)
        self._buf = np.concatenate([self._buf, x])
        self._fed += x.size
        return int(x.size)

    def pump(
        self,
        max_windows: Optional[int] = None,
        drain_tail: bool = False,
        housekeep: bool = True,
    ) -> List[StreamFrame]:
        """Process buffered windows; return frames whose order is final.

        *max_windows* caps this call (``None`` defers to
        ``config.max_windows_per_feed``; ``0`` processes nothing, which
        with *housekeep* runs only shedding/trim/gauges).  *housekeep*
        =False skips backlog shedding and buffer trimming -- the farm's
        co-schedule loop pumps one window at a time across sessions and
        runs a single housekeeping pass per cycle, which is equivalent
        because shedding only looks at the backlog after the walk has
        drained every window it is allowed to.
        """
        if self._state is HealthState.FAILED:
            return self._shed_all() if housekeep else []
        emitted = self._process_available(drain_tail=drain_tail, limit=max_windows)
        if housekeep:
            self._shed_backlog()
            self._trim_buffer()
            if self.tracer.enabled:
                self.tracer.gauge(G.SESSION_BACKLOG_WINDOWS, self.backlog_windows)
            if self.backlog_windows > self.peak_backlog_windows:
                self.peak_backlog_windows = self.backlog_windows
        return emitted

    def peek_window(self) -> Optional[np.ndarray]:
        """The next complete window the walk would process, or ``None``.

        A view into the internal buffer (do not mutate), exactly the
        slice :meth:`pump` would hand the pre-gate next.  ``None`` when
        the session is finished, FAILED, or lacks a complete window --
        the farm uses this to stack gate-ready windows across sessions.
        """
        if self._finished or self._state is HealthState.FAILED:
            return None
        available = self._base + self._buf.size - self._pos
        if available < self._required_samples():
            return None
        lo = self._pos - self._base
        return self._buf[lo : lo + self._required_samples()]

    def prime_gate(self, live: bool, corr: Optional[np.ndarray] = None) -> None:
        """Pre-supply the next window's pre-gate decision and plane.

        The next window processed consumes *live* instead of calling
        ``streaming.window_is_live``, and hands *corr* (the gate's
        correlation plane of a live window, see
        :meth:`StreamingReceiver.windows_are_live`) to
        ``streaming.decode_window`` so the detector does not correlate
        the window again.  One-shot: both are cleared on use, live or
        not, so a plane is held only from its gate to its window's
        decode.  Only correct when the caller computed both over
        exactly the window :meth:`peek_window` returned (the farm's
        batched gate is bit-identical per row, so priming never changes
        output).
        """
        self._primed = (bool(live), corr if live else None)

    def finish(self) -> List[StreamFrame]:
        """End of capture: process the truncated tail window (if any)
        and flush every frame still held for ordering."""
        if self._finished:
            return []
        self._finished = True
        emitted: List[StreamFrame] = []
        if self._state is not HealthState.FAILED:
            emitted.extend(self._process_available(drain_tail=True))
        remaining = sorted(self._pending, key=lambda f: (f.start_sample, f.user_id))
        self._pending.clear()
        return emitted + remaining

    # ------------------------------------------------------------------
    # The window walk
    # ------------------------------------------------------------------

    def _required_samples(self) -> int:
        """Samples the next acquisition wants available past ``_pos``.

        RESYNC widens the window so the correlation search covers
        offsets far beyond one hop.  Making the walk wait for the full
        span (instead of processing whatever happens to be buffered)
        keeps decode output independent of chunking cadence -- the
        property checkpoint/restore equality rests on.
        """
        widen = self.config.resync_widen_factor if self._state is HealthState.RESYNC else 1
        return self.streaming.window_samples * widen

    def _process_available(
        self, drain_tail: bool, limit: Optional[int] = None
    ) -> List[StreamFrame]:
        emitted: List[StreamFrame] = []
        processed = 0
        if limit is None:
            limit = self.config.max_windows_per_feed
        while self._state is not HealthState.FAILED:
            if limit is not None and processed >= limit:
                break
            available = self._base + self._buf.size - self._pos
            if available < self._required_samples() and not drain_tail:
                break
            if available <= 0:
                break
            self._process_one_window()
            processed += 1
            emitted.extend(self._release_ordered())
        return emitted

    def _process_one_window(self) -> None:
        lo = self._pos - self._base
        window = self._buf[lo : lo + self._required_samples()]
        self._count(C.SESSION_WINDOWS)
        t0 = self.clock()
        if self._primed is not None:
            live, corr = self._primed
            self._primed = None
        else:
            planes: List[Optional[np.ndarray]] = []
            live = self.streaming.window_is_live(window, planes=planes)
            corr = planes[0] if planes else None
        decoded_any = False
        attempted = False
        if live:
            self._count(C.SESSION_WINDOWS_LIVE)
            with self.tracer.span(S.SESSION_WINDOW, index=self._window_index):
                new_frames, report = self.streaming.decode_window(
                    window, self._pos, self.dedup, corr=corr
                )
            # Health judges the *pipeline*, not emission novelty: a
            # window that re-decodes a frame already emitted through
            # the previous (overlapping) window decoded fine -- the
            # dedup suppressing it is correct operation, not failure.
            decoded_any = any(f.success for f in report.frames)
            # And it only counts as a decode *attempt* when some user
            # looked strongly present (short templates false-alarm on
            # noise just above the acceptance threshold), at an offset
            # whose frame fits inside the window (a frame straddling
            # the trailing edge is the next window's job), and without
            # a just-decoded frame of the same user still overlapping
            # this window -- whose payload correlation images would
            # otherwise read as failures on every healthy decode.
            fs = self.streaming.frame_samples
            attempted = any(
                d.score >= self.config.attempt_score
                and d.offset + fs <= window.size
                and not self.dedup.user_active_since(d.user_id, self._pos - fs)
                for d in report.detections
            )
            duplicates = sum(1 for f in report.frames if f.success) - len(new_frames)
            if duplicates > 0:
                self._count(C.SESSION_DUPLICATES, duplicates)
            if new_frames:
                self._count(C.SESSION_FRAMES, len(new_frames))
                self._pending.extend(new_frames)
        else:
            self._count(C.SESSION_WINDOWS_SKIPPED)
        latency = self.clock() - t0
        watchdog_tripped = live and latency > self.config.watchdog_budget_s
        if watchdog_tripped:
            self._count(C.SESSION_WATCHDOG_TRIPS)
        if self.tracer.enabled:
            if live:
                self.tracer.gauge(G.SESSION_WINDOW_LATENCY_S, latency)
            self.tracer.gauge(G.SESSION_DEDUP_SIZE, len(self.dedup))

        self._advance()
        self._update_health(attempted, decoded_any, watchdog_tripped)

    def _advance(self) -> None:
        self._pos += self.streaming.hop_samples
        self._window_index += 1
        evicted = self.dedup.evict_before(self._pos - self.streaming.window_samples)
        if evicted:
            self._count(C.SESSION_DEDUP_EVICTIONS, evicted)

    def _release_ordered(self) -> List[StreamFrame]:
        """Frames whose global order is now final (start < ``_pos``).

        Every future decode starts at or after ``_pos``, so releasing
        the pending frames below it -- sorted -- yields a globally
        non-decreasing ``start_sample`` emission order.
        """
        ready = [f for f in self._pending if f.start_sample < self._pos]
        if not ready:
            return []
        self._pending = [f for f in self._pending if f.start_sample >= self._pos]
        ready.sort(key=lambda f: (f.start_sample, f.user_id))
        return ready

    # ------------------------------------------------------------------
    # Backlog shedding
    # ------------------------------------------------------------------

    def _shed_backlog(self) -> None:
        while self.backlog_windows > self.config.max_backlog_windows:
            self._pos += self.streaming.hop_samples
            self._window_index += 1
            self._count(C.SESSION_WINDOWS_SHED)
            self.dedup.evict_before(self._pos - self.streaming.window_samples)

    def _shed_all(self) -> List[StreamFrame]:
        """FAILED state: count every pending window as shed, keep nothing."""
        while self.backlog_windows > 0:
            self._pos += self.streaming.hop_samples
            self._window_index += 1
            self._count(C.SESSION_WINDOWS_SHED)
        self._trim_buffer()
        return []

    def _trim_buffer(self) -> None:
        """Drop samples before ``_pos`` (never needed again)."""
        cut = self._pos - self._base
        if cut > 0:
            self._buf = self._buf[cut:]
            self._base = self._pos

    # ------------------------------------------------------------------
    # Health state machine
    # ------------------------------------------------------------------

    def _update_health(self, attempted: bool, decoded_any: bool, watchdog_tripped: bool) -> None:
        if attempted or decoded_any:
            self._recent.append(decoded_any)
        if attempted and not decoded_any:
            self._nodecode_streak += 1
        elif decoded_any:
            self._nodecode_streak = 0

        state = self._state
        if state is HealthState.FAILED:
            return

        if state is HealthState.RESYNC:
            if decoded_any:
                self._resync_attempts = 0
                self._transition(HealthState.HEALTHY)
            elif attempted:
                self._resync_attempts += 1
                if self._resync_attempts >= self.config.fail_after_resyncs:
                    self._transition(HealthState.FAILED)
            return

        if self._nodecode_streak >= self.config.resync_after:
            self._resync_attempts = 0
            self._count(C.SESSION_RESYNCS)
            self._transition(HealthState.RESYNC)
            return

        n_attempts = len(self._recent)
        failure_rate = (
            sum(1 for ok in self._recent if not ok) / n_attempts if n_attempts else 0.0
        )
        if watchdog_tripped or (
            n_attempts >= self.config.min_attempts
            and failure_rate >= self.config.degrade_failure_rate
        ):
            if state is HealthState.HEALTHY:
                self._transition(HealthState.DEGRADED)
        elif (
            state is HealthState.DEGRADED
            and n_attempts >= self.config.min_attempts
            and failure_rate <= self.config.recover_failure_rate
        ):
            self._transition(HealthState.HEALTHY)

    def _transition(self, to: HealthState) -> None:
        if to is self._state:
            return
        self._state = to
        self.health_history.append((self._window_index, to.value))
        if self.tracer.enabled:
            self.tracer.count(session_transition(to.value))

    def _count(self, counter: CounterName, n: int = 1) -> None:
        """Bump ``session.<key>`` on the tracer and ``stats[<key>]``."""
        self.stats[counter[_STATS_KEY_AT:]] += n
        if self.tracer.enabled:
            self.tracer.count(counter, n)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _header(self) -> _HeaderRecord:
        return _HeaderRecord(
            format=CHECKPOINT_FORMAT,
            version=_CHECKPOINT_VERSION,
            window_samples=self.streaming.window_samples,
            hop_samples=self.streaming.hop_samples,
            max_frame_bits=self.streaming.max_frame_bits,
            n_users=len(self.streaming.receiver.codes),
            dtype=self._dtype.name,
        )

    def checkpoint_records(self) -> List[dict]:
        """The full session state as JSON-serialisable records.

        One ``header``, one ``state``, a ``dedup`` record per live dedup
        entry, a ``pending`` record per frame held for ordered emission
        and a ``history`` record per health transition -- the record
        dataclasses at the top of this module are the schema.  This is
        the farm's migration payload: records travel over a queue and
        rebuild bit-identically on another worker through
        :meth:`from_checkpoint_records` without touching disk;
        :meth:`checkpoint` is the same records written to a file.
        """
        records = [
            ("header", self._header()),
            (
                "state",
                _StateRecord(
                    pos=self._pos,
                    window_index=self._window_index,
                    samples_fed=self._fed,
                    health=self._state.value,
                    recent=[bool(v) for v in self._recent],
                    nodecode_streak=self._nodecode_streak,
                    resync_attempts=self._resync_attempts,
                    stats=dict(self.stats),
                    peak_dedup=self.dedup.peak_size,
                    dedup_evictions=self.dedup.evictions,
                    peak_backlog_windows=self.peak_backlog_windows,
                ),
            ),
        ]
        records.extend(
            ("dedup", _FrameRecord(user, payload.hex(), start))
            for (user, payload), start in sorted(self.dedup.entries.items())
        )
        records.extend(
            ("pending", _FrameRecord(f.user_id, f.payload.hex(), f.start_sample))
            for f in self._pending
        )
        records.extend(
            ("history", _HistoryRecord(*entry)) for entry in self.health_history
        )
        if self.tracer.enabled:
            self.tracer.count(C.SESSION_CHECKPOINTS)
        return [{"type": kind, **vars(rec)} for kind, rec in records]

    def checkpoint(self, path) -> Path:
        """Write :meth:`checkpoint_records` as header-validated JSONL.

        The write is atomic and durable: the temp file is fsynced
        before the rename and the directory after it, so neither a
        kill nor a power loss mid-checkpoint leaves anything but the
        previous checkpoint or the complete new one.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as fh:
            for rec in self.checkpoint_records():
                fh.write(json.dumps(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return path

    @classmethod
    def from_checkpoint_records(
        cls,
        records: List[dict],
        streaming: StreamingReceiver,
        config: Optional[SessionConfig] = None,
        tracer=None,
        clock: Callable[[], float] = time.perf_counter,
        source: str = "checkpoint records",
    ) -> "SessionSupervisor":
        """Rebuild a supervisor from :meth:`checkpoint_records` output.

        The header is validated against *streaming*'s geometry --
        restoring onto a receiver with a different window/hop/code-book
        shape (or buffer dtype) is a :class:`ValueError`, exactly like
        resuming a mismatched sweep checkpoint.  Resume by re-feeding
        the capture from :attr:`position`.  Records are parsed against
        the record dataclasses: a missing or unknown field, an unknown
        record type, ``stats`` counters that differ from this session's
        or a checkpoint without ``history`` is a :class:`ValueError`
        naming the culprit and *source*, never a silent default.
        """
        if not records or records[0].get("type") != "header":
            raise ValueError(f"{source} has no header line; refusing to restore")
        header = records[0]
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{source} is not a session checkpoint "
                f"(format={header.get('format')!r})"
            )
        if header.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(
                f"{source} has version {header.get('version')}, "
                f"expected {_CHECKPOINT_VERSION}"
            )
        by_type: Dict[str, list] = {kind: [] for kind in _RECORD_TYPES}
        for rec in records:
            parsed = _parse_record(rec, source)
            by_type[rec["type"]].append(parsed)
        for kind in ("header", "state"):
            if len(by_type[kind]) != 1:
                raise ValueError(
                    f"{source} has {len(by_type[kind])} {kind} records, expected 1"
                )
        if not by_type["history"]:
            raise ValueError(f"{source} has no history records; refusing to restore")

        session = cls(streaming, config=config, tracer=tracer, clock=clock)
        expected = vars(session._header())
        for key, got in vars(by_type["header"][0]).items():
            if got != expected[key]:
                raise ValueError(
                    f"{source} belongs to a different session geometry "
                    f"({key}={got}, this receiver has {key}={expected[key]})"
                )

        state: _StateRecord = by_type["state"][0]
        odd = sorted(set(state.stats) ^ set(session.stats))
        if odd:
            problem = "is missing" if odd[0] in session.stats else "has unknown"
            raise ValueError(
                f"{source} state record stats {problem} counter {odd[0]!r}; "
                "refusing to restore"
            )
        session._pos = int(state.pos)
        session._base = session._pos
        session._fed = int(state.samples_fed)
        session._window_index = int(state.window_index)
        session._state = HealthState(state.health)
        session._recent = deque(
            (bool(v) for v in state.recent), maxlen=session.config.health_window
        )
        session._nodecode_streak = int(state.nodecode_streak)
        session._resync_attempts = int(state.resync_attempts)
        session.stats = {key: int(state.stats[key]) for key in session.stats}
        session.peak_backlog_windows = int(state.peak_backlog_windows)

        dedup = session.dedup
        for rec in by_type["dedup"]:
            f = rec.frame()
            dedup.entries[(f.user_id, f.payload)] = f.start_sample
        dedup.evictions = int(state.dedup_evictions)
        dedup.peak_size = int(state.peak_dedup)
        session._pending = [rec.frame() for rec in by_type["pending"]]
        session.health_history = [
            (int(rec.window), str(rec.state)) for rec in by_type["history"]
        ]
        tr = session.tracer
        if tr.enabled:
            tr.count(C.SESSION_RESTORES)
        return session

    @classmethod
    def restore(
        cls,
        path,
        streaming: StreamingReceiver,
        config: Optional[SessionConfig] = None,
        tracer=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "SessionSupervisor":
        """Rebuild a supervisor from a :meth:`checkpoint` file."""
        path = Path(path)
        records = []
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"checkpoint {path} line {lineno} is not a JSON record "
                        f"(torn or corrupt write: {exc.msg}); refusing to restore"
                    ) from None
        return cls.from_checkpoint_records(
            records,
            streaming,
            config=config,
            tracer=tracer,
            clock=clock,
            source=f"checkpoint {path}",
        )
