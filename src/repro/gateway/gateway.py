"""The async ingestion gateway: many streams in, one decode farm out.

:class:`Gateway` is the production service shape around the decode
stack: concurrent capture streams submit IQ chunks through admission
control (token bucket + bounded per-stream intake queues), a
cooperative :meth:`Gateway.step` cycle fans the queued work out to a
:class:`~repro.farm.farm.DecodeFarm`, and decoded
:class:`~repro.receiver.streaming.StreamFrame` batches flow back per
stream.  Load feedback closes the loop end to end:

- the token bucket slows (THROTTLED) or queued intake is dropped,
  counted, from the lowest-priority streams (SHED) as the
  :mod:`degradation ladder <repro.gateway.ladder>` climbs on queue
  depth / real-time-factor watermarks;
- every refusal is observable -- ``submit`` returns ``False`` and the
  ``gateway.rejected`` / ``gateway.shed`` / ``gateway.deadline_misses``
  counters attribute it -- so nothing is ever dropped silently;
- checkpoint/restore is the elasticity primitive:
  :meth:`Gateway.drain_worker` migrates every session off a worker
  and re-feeds the fed-but-unprocessed gap from the gateway's
  retention buffers, bit-identical under live load, and every
  :meth:`Gateway.step` moves sessions the same way from the busiest
  live worker to the idlest until their loads differ by at most one.

Everything load-bearing takes an injectable clock, so a soak driven
by a virtual clock (:mod:`repro.gateway.soak`) admits, sheds and
climbs the ladder identically on every run.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.farm.config import FarmConfig, SessionSpec
from repro.farm.farm import DecodeFarm, WorkerCrash, build_code_families
from repro.gateway.admission import RetryPolicy, TokenBucket
from repro.gateway.config import GatewayConfig
from repro.gateway.ladder import DegradationLadder, GatewayState
from repro.obs.taxonomy import C, CounterName, G, GaugeName, S, gateway_transition
from repro.obs.tracer import as_tracer
from repro.receiver.streaming import StreamFrame

__all__ = ["AdmissionRefused", "Gateway", "StreamReport"]


class AdmissionRefused(RuntimeError):
    """A stream-level admission refusal (gateway full or draining)."""


@dataclass
class _StreamState:
    """Parent-side bookkeeping for one open stream."""

    stream_id: int
    priority: int
    intake: Deque[np.ndarray] = field(default_factory=deque)
    frames: List[StreamFrame] = field(default_factory=list)
    admitted: int = 0
    fed: int = 0
    shed: int = 0
    rejected: int = 0
    samples_fed: int = 0
    #: Set when the stream's farm worker died: admission refuses it
    #: and dispatch never feeds it again.
    lost: bool = False
    #: ``(absolute_offset, chunk)`` of recently fed chunks, oldest
    #: first -- the migration re-feed source.
    retained: Deque[Tuple[int, np.ndarray]] = field(default_factory=deque)
    #: Samples held in :attr:`retained`, kept as chunks enter and leave.
    retained_samples: int = 0

    @property
    def intake_depth(self) -> int:
        return len(self.intake)


@dataclass(frozen=True)
class StreamReport:
    """What :meth:`Gateway.close_stream` hands back."""

    stream_id: int
    frames: List[StreamFrame]
    stats: Dict[str, int]
    admitted: int
    fed: int
    shed: int
    rejected: int


class Gateway:
    """Async front-end fanning concurrent capture streams to a farm.

    Parameters
    ----------
    phy_config:
        Default :class:`~repro.sim.network.CbmaConfig` each stream's
        session decodes with (:meth:`open_stream` may override).
    gateway:
        :class:`~repro.gateway.config.GatewayConfig` policy
        (``None`` = defaults).
    farm / session:
        Pool shape and session policy forwarded to the underlying
        :class:`~repro.farm.farm.DecodeFarm` /
        :class:`~repro.receiver.session.SessionSupervisor`.
    backend:
        Farm backend (``"process"`` or ``"inline"``).
    clock:
        Monotonic-seconds callable used for the token bucket, retry
        deadlines and the real-time factor; ``None`` = wall clock.
        Injecting a virtual clock makes every admission decision a
        pure function of the submitted traffic.
    sleep:
        Async sleep used for retry backoff; ``None`` =
        :func:`asyncio.sleep`.  A virtual-clock driver injects one
        that advances its clock instead of waiting.
    seed:
        Seed of the retry-jitter generator.
    """

    def __init__(
        self,
        phy_config,
        gateway: Optional[GatewayConfig] = None,
        farm: Optional[FarmConfig] = None,
        session=None,
        tracer=None,
        backend: str = "process",
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        seed: int = 0,
    ) -> None:
        self.config = gateway or GatewayConfig()
        self.phy_config = phy_config
        self.farm_config = farm or FarmConfig()
        self.session_config = session
        self.backend = backend
        self.tracer = as_tracer(tracer)
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self.bucket = TokenBucket(
            self.config.token_rate, self.config.token_burst, clock=self._clock
        )
        self.retry = RetryPolicy(
            backoff=self.config.backoff,
            slot_s=self.config.slot_s,
            max_retries=self.config.max_retries,
            seed=seed,
        )
        self.ladder = DegradationLadder(
            self.config.queue_high,
            self.config.queue_low,
            self.config.rtf_high,
            self.config.rtf_low,
            patience=self.config.patience,
        )
        self.farm: Optional[DecodeFarm] = None
        self._streams: Dict[int, _StreamState] = {}
        self._next_sid = 0
        self._closed = False
        self._emitted_transitions = 0

        #: Lifetime totals, mirrored into the ``gateway.*`` taxonomy.
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.retries = 0
        self.deadline_misses = 0
        self.chunks_dispatched = 0
        self.frames_delivered = 0
        self.migrations = 0
        self.peak_queue_depth = 0
        self.peak_retained_samples = 0
        self.rtf = 0.0
        """EWMA real-time factor: decode wall seconds per stream second."""

    @classmethod
    def from_config(
        cls,
        config,
        *,
        gateway: Optional[GatewayConfig] = None,
        farm: Optional[FarmConfig] = None,
        session=None,
        tracer=None,
        backend: str = "process",
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        seed: int = 0,
    ) -> "Gateway":
        """Build a gateway whose streams decode with *config*.

        The one construction path from PHY config to service: streams
        opened without an explicit config share *config* (hence one
        memoised template bank per worker, so the farm's cross-session
        batched gate engages across streams).  *config*'s code family
        is built here, before the farm forks any worker, so the workers
        inherit it even when the first stream opens with another
        config.
        """
        build_code_families([config])
        return cls(
            config,
            gateway=gateway,
            farm=farm,
            session=session,
            tracer=tracer,
            backend=backend,
            clock=clock,
            sleep=sleep,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stream_ids(self) -> List[int]:
        return sorted(self._streams)

    @property
    def queue_depth(self) -> int:
        """Aggregate queued-but-undispatched chunks across streams."""
        return sum(st.intake_depth for st in self._streams.values())

    @property
    def state(self) -> GatewayState:
        return self.ladder.state

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    async def open_stream(self, config=None, priority: int = 0) -> int:
        """Admit a new capture stream; returns its stream id.

        Refused -- :class:`AdmissionRefused`, counted under
        ``gateway.rejected`` -- while DRAINING or at ``max_streams``.
        The stream id doubles as the farm session id.
        """
        self._check_open()
        if self.ladder.state is GatewayState.DRAINING:
            self.rejected += 1
            self._count(C.GATEWAY_REJECTED)
            raise AdmissionRefused("gateway is draining; not accepting streams")
        if len(self._streams) >= self.config.max_streams:
            self.rejected += 1
            self._count(C.GATEWAY_REJECTED)
            raise AdmissionRefused(
                f"gateway is at max_streams={self.config.max_streams}"
            )
        sid = self._next_sid
        self._next_sid += 1
        spec = SessionSpec(
            session_id=sid,
            config=config if config is not None else self.phy_config,
            session=self.session_config,
        )
        if self.farm is None:
            self.farm = DecodeFarm(
                [spec],
                farm=self.farm_config,
                tracer=self.tracer,
                backend=self.backend,
            )
        else:
            self.farm.add_session(spec)
        self._streams[sid] = _StreamState(stream_id=sid, priority=priority)
        self._count(C.GATEWAY_STREAMS_OPENED)
        self._gauge(G.GATEWAY_STREAMS_LIVE, len(self._streams))
        return sid

    async def submit(
        self,
        stream_id: int,
        chunk: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> bool:
        """Offer one IQ chunk; ``True`` iff admitted to the intake.

        Admission needs a bucket token and a free intake slot.  On
        refusal the submit retries up to ``max_retries`` times with
        jittered exponential backoff, abandoning early -- a counted
        deadline miss -- once the next retry could not complete before
        the deadline (default ``deadline_s`` from the config).  A
        ``False`` return is always counted under ``gateway.rejected``:
        the caller knows, and the accounting knows.
        """
        self._check_open()
        st = self._streams[stream_id]
        if st.lost:
            st.rejected += 1
            self.rejected += 1
            self._count(C.GATEWAY_REJECTED)
            return False
        budget = deadline_s if deadline_s is not None else self.config.deadline_s
        deadline = self._clock() + budget
        x = np.asarray(chunk)
        delays = self.retry.delays()
        while True:
            if self._try_admit(st, x):
                return True
            delay = next(delays, None)
            if delay is None:
                break
            if self._clock() + delay > deadline:
                self.deadline_misses += 1
                self._count(C.GATEWAY_DEADLINE_MISSES)
                break
            self.retries += 1
            self._count(C.GATEWAY_RETRIES)
            await self._sleep(delay)
        st.rejected += 1
        self.rejected += 1
        self._count(C.GATEWAY_REJECTED)
        return False

    def _try_admit(self, st: _StreamState, chunk: np.ndarray) -> bool:
        if self.ladder.state is GatewayState.DRAINING:
            return False
        if st.intake_depth >= self.config.max_intake_chunks:
            return False
        if not self.bucket.try_acquire():
            return False
        st.intake.append(chunk)
        st.admitted += 1
        self.admitted += 1
        self._count(C.GATEWAY_ADMITTED)
        return True

    async def close_stream(self, stream_id: int, flush: bool = True) -> StreamReport:
        """Finish one stream and return its frames and accounting.

        With ``flush`` (default) queued intake is dispatched first so
        every admitted chunk reaches the decoder; otherwise the
        leftovers are counted as shed.  The per-stream invariant
        either way: ``admitted == fed + shed``.
        """
        self._check_open()
        st = self._streams[stream_id]
        if flush:
            while st.intake:
                await self.step()
        else:
            self._shed_intake(st)
        stats: Dict[str, int] = {}
        if self.farm is not None and stream_id in self.farm.session_ids:
            tail = self.farm.finish_session(stream_id)
            self._deliver(stream_id, tail)
            stats = dict(self.farm.session_stats.get(stream_id, {}))
        del self._streams[stream_id]
        self._count(C.GATEWAY_STREAMS_CLOSED)
        self._gauge(G.GATEWAY_STREAMS_LIVE, len(self._streams))
        return StreamReport(
            stream_id=stream_id,
            frames=st.frames,
            stats=stats,
            admitted=st.admitted,
            fed=st.fed,
            shed=st.shed,
            rejected=st.rejected,
        )

    def poll_frames(self, stream_id: int) -> List[StreamFrame]:
        """Take the frames delivered to *stream_id* since the last poll."""
        st = self._streams[stream_id]
        out = st.frames
        st.frames = []
        return out

    # ------------------------------------------------------------------
    # The dispatch cycle
    # ------------------------------------------------------------------

    async def step(self, budget: Optional[int] = None) -> int:
        """One cooperative dispatch cycle; returns chunks dispatched.

        In order: observe the ladder (watermarks on queue depth and
        real-time factor), shed if the ladder says so, move up to
        *budget* chunks (default ``dispatch_chunks``) from the intake
        queues -- highest priority first -- into the farm, run one
        co-scheduled pump, route the decoded frames back to their
        streams, rebalance the workers (unless DRAINING) and refresh
        every gauge.

        A farm worker death propagates as
        :class:`~repro.farm.WorkerCrash` after its streams are marked
        lost and their queued intake is counted as shed; the other
        streams keep their intake and decode on the next step.
        """
        self._check_open()
        try:
            return self._step(budget)
        except WorkerCrash as crash:
            self._lose_streams(crash.sessions)
            raise

    def _step(self, budget: Optional[int]) -> int:
        with self.tracer.span(S.GATEWAY_STEP):
            depth = self.queue_depth
            self.peak_queue_depth = max(self.peak_queue_depth, depth)
            self.ladder.observe(depth, self.rtf)
            self._sync_ladder()
            if self.ladder.state is GatewayState.SHED:
                self._shed_to_watermark()
            limit = budget if budget is not None else self.config.dispatch_chunks
            dispatched = 0
            dispatched_samples = 0
            order = sorted(
                self._streams.values(), key=lambda s: (-s.priority, s.stream_id)
            )
            for st in order:
                while st.intake and dispatched < limit:
                    chunk = st.intake[0]
                    self.farm.feed(st.stream_id, chunk)
                    st.intake.popleft()
                    st.retained.append((st.samples_fed, chunk))
                    st.retained_samples += chunk.size
                    while len(st.retained) > self.config.retain_chunks:
                        st.retained_samples -= st.retained.popleft()[1].size
                    st.samples_fed += chunk.size
                    st.fed += 1
                    dispatched += 1
                    dispatched_samples += chunk.size
                    self.chunks_dispatched += 1
                    self._count(C.GATEWAY_CHUNKS)
                if dispatched >= limit:
                    break
            if dispatched:
                t0 = self._clock()
                fresh = self.farm.pump(wait=True)
                dt = self._clock() - t0
                stream_s = dispatched_samples / self.config.sample_rate
                if stream_s > 0.0:
                    a = self.config.rtf_alpha
                    self.rtf = (1.0 - a) * self.rtf + a * (dt / stream_s)
            elif self.farm is not None:
                fresh = self.farm.poll()
            else:
                fresh = {}
            for sid, frames in fresh.items():
                self._deliver(sid, frames)
            if self.ladder.state is not GatewayState.DRAINING:
                self._rebalance()
            retained = sum(st.retained_samples for st in self._streams.values())
            self.peak_retained_samples = max(self.peak_retained_samples, retained)
            self._gauge(G.GATEWAY_QUEUE_DEPTH, self.queue_depth)
            self._gauge(G.GATEWAY_TOKENS, self.bucket.tokens)
            self._gauge(G.GATEWAY_RTF, self.rtf)
            self._gauge(G.GATEWAY_RETAINED_SAMPLES, retained)
            return dispatched

    def _shed_to_watermark(self) -> None:
        """Drop queued intake, lowest priority first, down to the low
        watermark.  Every dropped chunk is counted (``gateway.shed``
        and the stream's own ledger): shed work is lost, never lost
        track of."""
        order = sorted(
            (st for st in self._streams.values() if st.intake),
            key=lambda s: (s.priority, -s.stream_id),
        )
        depth = self.queue_depth
        for st in order:
            if depth <= self.config.queue_low:
                break
            n = min(st.intake_depth, depth - self.config.queue_low)
            for _ in range(n):
                st.intake.popleft()
            st.shed += n
            self.shed += n
            depth -= n
            self._count(C.GATEWAY_SHED, n)

    def _lose_streams(self, stream_ids: List[int]) -> None:
        """Retire the streams of a dead worker: their queued intake is
        shed (counted) and admission refuses them from now on, so each
        keeps ``admitted == fed + shed`` up to :meth:`close_stream`."""
        for sid in stream_ids:
            st = self._streams.get(sid)
            if st is not None:
                st.lost = True
                self._shed_intake(st)

    def _shed_intake(self, st: _StreamState) -> None:
        """Drop all of *st*'s queued intake, counted as shed."""
        n = st.intake_depth
        if n:
            st.intake.clear()
            st.shed += n
            self.shed += n
            self._count(C.GATEWAY_SHED, n)

    def _deliver(self, stream_id: int, frames: List[StreamFrame]) -> None:
        if not frames:
            return
        st = self._streams.get(stream_id)
        if st is None:
            return
        st.frames.extend(frames)
        self.frames_delivered += len(frames)
        self._count(C.GATEWAY_FRAMES, len(frames))

    # ------------------------------------------------------------------
    # Elasticity: drain a worker under live load
    # ------------------------------------------------------------------

    async def drain_worker(self, worker: int) -> List[int]:
        """Migrate every session off *worker*; returns the moved ids.

        The ladder is forced to DRAINING for the duration (admission
        pauses; nothing already admitted is touched), each resident
        session moves to the least-loaded other worker through
        :meth:`DecodeFarm.migrate`, and its fed-but-unprocessed sample
        gap is re-fed from the gateway's retention buffers, so
        continuation is bit-identical to never having moved.  The
        drained worker stays live: new streams land on it, and the
        next :meth:`step` moves sessions back until the loads even out.
        """
        self._check_open()
        if self.farm is None:
            return []
        if not 0 <= worker < self.farm_config.n_workers:
            raise ValueError(f"worker {worker} out of range")
        prior = self.ladder.state
        self.ladder.force(GatewayState.DRAINING)
        self._sync_ladder()
        try:
            for sid, frames in self.farm.pump(wait=True).items():
                self._deliver(sid, frames)
            moved = [
                sid
                for sid in self.farm.session_ids
                if self.farm.worker_of(sid) == worker
            ]
            for sid in moved:
                loads = self.farm.worker_loads
                loads.pop(worker, None)
                if not loads:
                    raise RuntimeError("no other live worker to migrate to")
                self._migrate(sid, min(loads, key=lambda w: (loads[w], w)))
            return moved
        finally:
            self.ladder.release(prior)
            self._sync_ladder()

    def _rebalance(self) -> None:
        """Move sessions from the busiest live worker to the idlest
        until their loads differ by at most one (highest id first)."""
        if self.farm is None:
            return
        while True:
            loads = self.farm.worker_loads
            if len(loads) < 2:
                return
            busiest = max(loads, key=lambda w: (loads[w], -w))
            idlest = min(loads, key=lambda w: (loads[w], w))
            if loads[busiest] - loads[idlest] <= 1:
                return
            sid = max(s for s in self.farm.session_ids if self.farm.worker_of(s) == busiest)
            self._migrate(sid, idlest)

    def _migrate(self, stream_id: int, worker: int) -> None:
        """Move one session to *worker* and re-feed its retained gap."""
        records = self.farm.migrate(stream_id, worker)
        gap = self._retained_gap(stream_id, records)
        if gap.size:
            self.farm.feed(stream_id, gap)
        self.migrations += 1
        self._count(C.GATEWAY_MIGRATIONS)

    def _retained_gap(self, stream_id: int, records: List[Dict]) -> np.ndarray:
        """Samples in ``[checkpoint pos, samples fed)`` from retention."""
        state = next(r for r in records if r["type"] == "state")
        pos, fed = int(state["pos"]), int(state["samples_fed"])
        if pos >= fed:
            return np.empty(0, dtype=np.complex128)
        st = self._streams[stream_id]
        if not st.retained or st.retained[0][0] > pos:
            raise RuntimeError(
                f"stream {stream_id}: retention window starts past checkpoint "
                f"position {pos}; raise GatewayConfig.retain_chunks"
            )
        pieces = []
        for off, chunk in st.retained:
            lo, hi = max(pos, off), min(fed, off + chunk.size)
            if lo < hi:
                pieces.append(chunk[lo - off : hi - off])
        gap = np.concatenate(pieces) if pieces else np.empty(0)
        if gap.size != fed - pos:
            raise RuntimeError(
                f"stream {stream_id}: retention covers {gap.size} of the "
                f"{fed - pos}-sample migration gap"
            )
        return gap

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down without finishing streams (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.farm is not None:
            self.farm.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("gateway is closed; create a new Gateway")

    def _sync_ladder(self) -> None:
        """Emit pending transition counters; retune the bucket."""
        pending = self.ladder.transitions[self._emitted_transitions :]
        self._emitted_transitions = len(self.ladder.transitions)
        for _frm, to, _forced in pending:
            self._count(gateway_transition(to.value))
        self.bucket.throttle = (
            1.0 if self.ladder.state is GatewayState.FULL
            else self.config.throttle_factor
        )

    def _count(self, counter: CounterName, n: int = 1) -> None:
        if self.tracer.enabled:
            self.tracer.count(counter, n)

    def _gauge(self, gauge: GaugeName, value: float) -> None:
        if self.tracer.enabled:
            self.tracer.gauge(gauge, value)
