"""DecodeFarm: shard supervised sessions across a process pool.

The farm is the orchestration layer above
:class:`~repro.receiver.session.SessionSupervisor`: N sessions are
placed round-robin on W workers, IQ chunks travel through per-worker
rings (:mod:`repro.farm.ring`), the window walk is co-scheduled so
sessions sharing a template bank gate through one stacked FFT
(:mod:`repro.farm.worker`), and results flow back as ordered
:class:`~repro.receiver.streaming.StreamFrame` batches with per-session
stats.  Checkpoint/restore is the rebalance primitive:
:meth:`DecodeFarm.drain` lifts a session off its worker as checkpoint
records and :meth:`DecodeFarm.restore` resumes it -- bit-identically
-- on another.

One protocol, two transports.  Every operation sends the same commands
to :meth:`~repro.farm.worker.WorkerCore.handle` and dispatches the same
replies; the backend only decides where a command goes:

- ``"process"`` -- one OS process per worker, fed through a
  shared-memory :class:`~repro.farm.ring.ShmRing`, the real thing;
- ``"inline"`` -- each command runs in the parent, and a
  :class:`~repro.farm.ring.RefRing` holds the fed pieces by reference:
  the equivalence oracle, and the choice on a single-core host.

The feed protocol is cycle-based: :meth:`feed` only *buffers* (it puts
the chunk in ring slots, split at the slot size, and queues them for
its worker; nothing decodes), and :meth:`pump` runs one co-scheduled
decode cycle on every worker with dirty sessions.  Per session the
cadence is therefore ingest-then-pump per piece -- exactly
``SessionSupervisor.feed`` -- which is why farm output and stats are
byte-identical to a sequential run over the same pieces.

Every answered command to a worker carries that worker's queued
feeds, which it ingests before running the command, and the command's
reply hands the ring slots back in bulk: a pump cycle costs one message
each way per worker, however many chunks it dispatched.  A feed never
waits on a worker: a full shared-memory ring grows by one segment
instead (``farm.slot_waits``).
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.codes.registry import make_codes
from repro.farm.config import FarmConfig, SessionSpec
from repro.farm.ring import RefRing, ShmRing
from repro.farm.worker import (
    HealthHistory,
    InlineWorker,
    Record,
    ReplyPipes,
    poll_get,
    worker_main,
)
from repro.obs.taxonomy import C, CounterName, G, GaugeName
from repro.obs.tracer import as_tracer
from repro.receiver.streaming import StreamFrame
from repro.sim.network import CbmaConfig

__all__ = ["DecodeFarm", "WorkerCrash"]

_BACKENDS = ("process", "inline")

#: An idle farm whose worker takes longer than this to answer is
#: declared dead rather than hanging the parent forever.
_HARVEST_TIMEOUT_S = 120.0


def build_code_families(configs: Iterable[CbmaConfig]) -> None:
    """Build the code family of each distinct config in this process.

    A 2NC family the packaged code book lacks is searched here, and a
    worker forked afterwards inherits the memo
    (:func:`repro.codes.twonc._search_family`), so a farm searches an
    unbooked family once, not once per worker.
    """
    for family in {(c.code_family, c.n_tags, c.code_length) for c in configs}:
        make_codes(*family)


class WorkerCrash(RuntimeError):
    """A farm worker process died without reporting ``stopped``.

    Raised from the parent's harvest loop, or from a feed that found
    the dead worker's ring full.  By the time it propagates
    the farm has already reclaimed the dead worker's in-flight ring
    slots (they would otherwise stay claimed forever) and evicted its
    sessions from the placement map.

    Attributes
    ----------
    worker:
        Index of the dead worker.
    sessions:
        Session ids that were resident on it (now unplaced; their
        frames so far remain in :attr:`DecodeFarm.frames`).
    released_slots:
        Ring slots that were in flight to the worker and have been
        returned to the free list.
    exitcode:
        The process exit code (negative = killed by that signal).
    """

    def __init__(
        self,
        worker: int,
        sessions: Sequence[int],
        released_slots: Sequence[int],
        exitcode: Optional[int],
    ) -> None:
        self.worker = worker
        self.sessions = list(sessions)
        self.released_slots = list(released_slots)
        self.exitcode = exitcode
        super().__init__(
            f"farm worker {worker} died (exitcode={exitcode}); "
            f"released {len(self.released_slots)} in-flight ring slot(s), "
            f"lost sessions {self.sessions}"
        )


class DecodeFarm:
    """N supervised sessions sharded over W workers.

    Parameters
    ----------
    specs:
        The sessions to place (:class:`~repro.farm.config.SessionSpec`),
        distributed round-robin in session-id order.
    farm:
        :class:`~repro.farm.config.FarmConfig` (``None`` = defaults).
    tracer:
        Optional tracer; farm-level counters/gauges land under the
        ``farm.*`` taxonomy families.
    backend:
        ``"process"`` (default) or ``"inline"`` (the same commands,
        run in this process -- the equivalence oracle).
    """

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        farm: Optional[FarmConfig] = None,
        tracer=None,
        backend: str = "process",
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown farm backend {backend!r} (allowed: {_BACKENDS})")
        specs = sorted(specs, key=lambda s: s.session_id)
        sids = [s.session_id for s in specs]
        if len(set(sids)) != len(sids):
            raise ValueError("session ids must be unique")
        if not specs:
            raise ValueError("a farm needs at least one session")
        self.config = farm or FarmConfig()
        self.backend = backend
        self.tracer = as_tracer(tracer)
        self._specs: Dict[int, SessionSpec] = {s.session_id: s for s in specs}
        self._placement: Dict[int, int] = {
            s.session_id: i % self.config.n_workers for i, s in enumerate(specs)
        }
        self._dirty_workers: Set[int] = set()
        #: Per worker, ``(sid, slot, n)`` of ring slots written since
        #: its last command; the next command carries them.
        self._feeds: Dict[int, List[Tuple[int, int, int]]] = {
            w: [] for w in range(self.config.n_workers)
        }
        self._pump_seq = 0
        self._outstanding_pumps: Dict[int, int] = {
            w: 0 for w in range(self.config.n_workers)
        }
        self._closed = False

        #: Full per-session frame streams, in emission order.
        self.frames: Dict[int, List[StreamFrame]] = {sid: [] for sid in sids}
        #: Per-session stats dicts (populated by :meth:`finish`).
        self.session_stats: Dict[int, Dict[str, int]] = {}
        #: Per-session health histories (populated by :meth:`finish`).
        self.session_health: Dict[int, HealthHistory] = {}
        #: Per-worker busy fraction (populated when workers stop).
        self.worker_utilization: Dict[int, float] = {}
        #: Windows gated through a cross-session batch (lifetime).
        self.batched_windows = 0
        #: Feeds that found their worker's ring full and grew it
        #: (mirrors ``farm.slot_waits``).
        self.slot_waits = 0
        self._fresh: Dict[int, List[StreamFrame]] = {}
        self._drained: Dict[int, List[Record]] = {}
        self._stopped_workers: Set[int] = set()
        self._dead_workers: Set[int] = set()
        #: ``session id -> "finish" | "drain"`` sent and not yet answered.
        self._awaiting: Dict[int, str] = {}
        #: Per worker, ``time.monotonic()`` of its last reply (or start).
        self._last_reply: Dict[int, float] = {}
        self._replies_seen = 0

        build_code_families(spec.config for spec in specs)
        self._rings: List[Union[ShmRing, RefRing]] = []
        #: Per worker, where its commands go: a worker process's queue,
        #: or an :class:`InlineWorker` that runs them in this process.
        self._cmd_queues: List[
            Union["multiprocessing.queues.Queue[Tuple[object, ...]]", InlineWorker]
        ] = []
        self._procs: List["multiprocessing.process.BaseProcess"] = []
        self._replies = ReplyPipes()
        try:
            for w in range(self.config.n_workers):
                if backend == "inline":
                    ring = RefRing(self.config.ring_slot_samples)
                    self._rings.append(ring)
                    self._cmd_queues.append(InlineWorker(w, ring, self._replies))
                else:
                    self._start_process(w)
            for spec in specs:
                self._send(self._placement[spec.session_id], "add", spec)
        except Exception:
            self.close()
            raise
        self._count(C.FARM_SESSIONS_OPENED, len(specs))
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))

    @classmethod
    def from_config(
        cls,
        config,
        *,
        n_sessions: int,
        farm: Optional[FarmConfig] = None,
        session=None,
        tracer=None,
        backend: str = "process",
    ) -> "DecodeFarm":
        """Build a farm of *n_sessions* identical sessions from one
        :class:`~repro.sim.network.CbmaConfig`.

        The one construction path from PHY config to farm: each
        session gets the same config (ids ``0..n_sessions-1``), so all
        sessions on a worker share one memoised template bank and the
        cross-session batched gate engages.  *session* is the shared
        :class:`~repro.receiver.session.SessionConfig` policy.
        """
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        specs = [
            SessionSpec(session_id=i, config=config, session=session)
            for i in range(n_sessions)
        ]
        return cls(specs, farm=farm, tracer=tracer, backend=backend)

    def _start_process(self, worker: int) -> None:
        """Fork *worker*, with its shared-memory ring and reply pipe."""
        ctx = multiprocessing.get_context("fork")
        ring = ShmRing(self.config.ring_slots, self.config.ring_slot_samples)
        self._rings.append(ring)
        cmd_q = ctx.Queue()
        self._cmd_queues.append(cmd_q)
        reader, writer = ctx.Pipe(duplex=False)
        self._replies.add(reader)
        proc = ctx.Process(
            target=worker_main,
            args=(worker, cmd_q, writer, ring.name, ring.segment_slots, ring.slot_samples),
            daemon=True,
        )
        proc.start()
        self._last_reply[worker] = time.monotonic()
        # Only the worker may hold the write end: a dead worker's pipe
        # then reads as EOF, never blocks.
        writer.close()
        self._procs.append(proc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def session_ids(self) -> List[int]:
        """Sessions currently resident on a worker (sorted)."""
        return sorted(self._placement)

    def worker_of(self, session_id: int) -> int:
        return self._placement[session_id]

    @property
    def live_workers(self) -> List[int]:
        """Workers that have not died (sorted)."""
        return [w for w in range(self.config.n_workers) if w not in self._dead_workers]

    @property
    def worker_loads(self) -> Dict[int, int]:
        """Sessions resident on each live worker."""
        loads = {w: 0 for w in self.live_workers}
        for placed in self._placement.values():
            if placed in loads:
                loads[placed] += 1
        return loads

    def _pick_worker(self) -> int:
        """Least-loaded live worker (lowest index on ties)."""
        loads = self.worker_loads
        if not loads:
            raise RuntimeError("no live workers left in the farm")
        return min(loads, key=lambda w: (loads[w], w))

    # ------------------------------------------------------------------
    # Dynamic membership (the gateway's attach/detach surface)
    # ------------------------------------------------------------------

    def add_session(self, spec: SessionSpec, worker: Optional[int] = None) -> int:
        """Place a new session on a live farm; returns its worker.

        Unlike construction-time placement this is incremental:
        *worker* defaults to the least-loaded live worker, so streams
        arriving one at a time still spread evenly.
        """
        self._check_open()
        worker = self._place(spec.session_id, worker, "add", spec)
        self._specs[spec.session_id] = spec
        return worker

    def finish_session(self, session_id: int) -> List[StreamFrame]:
        """Finish one session without stopping the farm.

        Flushes outstanding cycles first (so the tail sees every fed
        chunk), ends the session on its worker, records its stats and
        health history, and returns the frames finalised since the
        last harvest -- the per-session analogue of :meth:`finish`.
        """
        self._check_open()
        if session_id not in self._placement:
            raise KeyError(f"session {session_id} is not live")
        if self._dirty_workers:
            for sid, frames in self.pump(wait=True).items():
                self._fresh.setdefault(sid, []).extend(frames)
        self._lift("finish", [session_id])
        return self._fresh.pop(session_id, [])

    # ------------------------------------------------------------------
    # The data path
    # ------------------------------------------------------------------

    def feed(self, session_id: int, chunk: np.ndarray) -> None:
        """Ship *chunk* to *session_id*'s worker (buffering only).

        The chunk is put in its worker's ring -- split across slots
        when larger than one -- and its slots are queued for the
        worker's next command, which ingests them into the session's
        buffer first.  No windows are decoded until :meth:`pump`.
        Never waits on the worker: when every slot of a shared-memory
        ring is taken, the ring grows (``farm.slot_waits``), once the
        worker is known to be alive -- a dead one raises
        :class:`WorkerCrash` here, its claimed slots reclaimed.

        The process transport has copied *chunk* when this returns; the
        inline one holds it by reference until the worker ingests it.
        So write into *chunk* again only after the next :meth:`pump`,
        :meth:`finish_session` or :meth:`finish` returns.
        """
        self._check_open()
        worker = self._placement[session_id]
        x = np.asarray(chunk)
        if x.ndim != 1:
            raise ValueError(f"farm feed requires 1-D sample chunks, got ndim={x.ndim}")
        self._count(C.FARM_CHUNKS)
        ring = self._rings[worker]
        for lo in range(0, x.size, ring.slot_samples) or [0]:
            piece = x[lo : lo + ring.slot_samples]
            if ring.full:
                self.slot_waits += 1
                self._count(C.FARM_SLOT_WAITS)
                self._workers_alive()
            slot = ring.put(piece)
            self._feeds[worker].append((session_id, slot, piece.size))
        self._gauge(G.FARM_RING_OCCUPANCY, ring.occupancy)
        self._dirty_workers.add(worker)

    def pump(self, wait: bool = True) -> Dict[int, List[StreamFrame]]:
        """Run one co-scheduled decode cycle on every dirty worker.

        With ``wait=True`` (default) blocks until every outstanding
        cycle -- including earlier ``wait=False`` ones -- has reported,
        and returns the newly finalised frames per session.  With
        ``wait=False`` the cycle runs in the background; harvest its
        frames later via :meth:`poll`, a waiting :meth:`pump`, or
        :meth:`finish`.
        """
        self._check_open()
        dirty = sorted(self._dirty_workers - self._dead_workers)
        self._dirty_workers.clear()
        for worker in dirty:
            self._pump_seq += 1
            self._send(worker, "pump", self._pump_seq)
            self._outstanding_pumps[worker] += 1
        self._gauge(
            G.FARM_QUEUE_DEPTH, sum(self._outstanding_pumps.values())
        )
        if wait:
            while any(self._outstanding_pumps.values()):
                self._harvest("pump replies")
        else:
            self._harvest_available()
        return self._take_fresh()

    def poll(self) -> Dict[int, List[StreamFrame]]:
        """Harvest whatever workers have reported without blocking."""
        self._check_open()
        self._harvest_available()
        return self._take_fresh()

    def finish(self) -> Dict[int, List[StreamFrame]]:
        """Finish every session, stop the workers, return tail frames.

        Flushes outstanding cycles first (worker queues are FIFO), then
        ends each session -- its truncated tail windows -- and collects
        its final stats and health history into :attr:`session_stats` /
        :attr:`session_health`.
        The farm is closed afterwards; full streams stay in
        :attr:`frames`.
        """
        self._check_open()
        if self._dirty_workers:
            self.pump(wait=True)
        pending = self.session_ids
        self._lift("finish", pending)
        tails = {sid: self._fresh.pop(sid, []) for sid in pending}
        self._shutdown_workers()
        self.close()
        return tails

    # ------------------------------------------------------------------
    # Rebalancing (checkpoint/restore as the primitive)
    # ------------------------------------------------------------------

    def drain(self, session_id: int) -> List[Record]:
        """Lift a session off its worker as checkpoint records.

        The session is checkpointed (position, health machine, the
        previous window's frames) and removed.  Resume it with
        :meth:`restore` and re-feed the sample stream from the checkpoint's
        ``position`` -- buffered-but-unprocessed samples are *not*
        part of the records, exactly like an on-disk checkpoint.
        """
        self._check_open()
        self._lift("drain", [session_id])
        return self._drained.pop(session_id)

    def restore(
        self, session_id: int, records: List[Record], worker: Optional[int] = None
    ) -> None:
        """Resume a drained session on *worker* (default: the least-loaded)."""
        self._check_open()
        self._place(session_id, worker, "restore", self._specs[session_id], records)

    def migrate(self, session_id: int, worker: int) -> List[Record]:
        """Drain a session and resume it on another worker.

        Returns the checkpoint records (the caller re-feeds the stream
        from their ``position``).  Bit-identical continuation is the
        checkpoint/restore guarantee, so rebalancing never changes
        decode output: each window owns the frames that start in its
        first hop, and the records carry the previous window's frames,
        the only ones the resumed walk can decode again.
        """
        records = self.drain(session_id)
        self.restore(session_id, records, worker=worker)
        self._count(C.FARM_MIGRATIONS)
        return records

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear the farm down without finishing sessions (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w, proc in enumerate(self._procs):
            if w not in self._stopped_workers and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for ring in self._rings:
            ring.close()
        self._replies.close()

    def __enter__(self) -> "DecodeFarm":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Result harvesting
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("farm is closed; create a new DecodeFarm")

    def _collect(self, session_id: int, frames: List[StreamFrame]) -> None:
        if not frames:
            return
        self.frames[session_id].extend(frames)
        self._fresh.setdefault(session_id, []).extend(frames)
        self._count(C.FARM_FRAMES, len(frames))

    def _take_fresh(self) -> Dict[int, List[StreamFrame]]:
        fresh, self._fresh = self._fresh, {}
        return fresh

    def _harvest_available(self) -> None:
        while True:
            try:
                msg = self._replies.get_nowait()
            except queue.Empty:
                return
            self._dispatch(msg)

    def _send(self, worker: int, op: str, *args: object) -> None:
        """Queue one command for *worker*.  A command that gets a reply
        carries the worker's queued feeds; ``add`` and ``restore`` get
        none, so they leave the feeds queued for the next command."""
        feeds: List[Tuple[int, int, int]] = []
        if op not in ("add", "restore"):
            feeds, self._feeds[worker] = self._feeds[worker], []
        self._cmd_queues[worker].put((op, feeds, *args))

    def _place(self, sid: int, worker: Optional[int], op: str, *args: object) -> int:
        """Send ``"add"`` or ``"restore"`` for session *sid* to *worker*
        (default: the least-loaded live one) and place it there."""
        if sid in self._placement:
            raise ValueError(f"session {sid} is already live")
        if worker is None:
            worker = self._pick_worker()
        if not 0 <= worker < self.config.n_workers:
            raise ValueError(f"worker {worker} out of range")
        if worker in self._dead_workers:
            raise ValueError(f"worker {worker} is dead")
        self._send(worker, op, *args)
        self._placement[sid] = worker
        self.frames.setdefault(sid, [])
        self._count(C.FARM_SESSIONS_OPENED)
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
        return worker

    def _lift(self, op: str, sids: List[int]) -> None:
        """Send ``"finish"`` or ``"drain"`` for each of *sids*, harvest
        until every one is answered, and unplace them."""
        for sid in sids:
            self._send(self._placement[sid], op, sid)
            self._awaiting[sid] = op
        while any(sid in self._awaiting for sid in sids):
            self._harvest(f"the {op} of sessions {sids}")
        for sid in sids:
            del self._placement[sid]
        self._count(C.FARM_SESSIONS_CLOSED, len(sids))
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))

    def _harvest(self, waiting_for: str) -> None:
        """Block until one worker reply arrives, then dispatch it.

        *waiting_for* names the loop that waits, for the errors: a
        harvest with no running worker left raises at the next poll
        instead of waiting out :data:`_HARVEST_TIMEOUT_S` -- unless the
        liveness check itself dispatched a reply (an exiting worker's
        ``stopped``).
        """
        seen = self._replies_seen
        msg = poll_get(
            self._replies,
            self._workers_alive,
            _HARVEST_TIMEOUT_S,
            lambda: self._describe_wait(waiting_for),
        )
        if msg is None:
            if self._replies_seen != seen:
                return
            raise RuntimeError(
                f"farm harvest waiting for {waiting_for}, but no worker is running "
                f"(stopped {sorted(self._stopped_workers)}, "
                f"dead {sorted(self._dead_workers)})"
            )
        self._dispatch(msg)

    def _describe_wait(self, waiting_for: str) -> str:
        """What each running worker owes the parent, for a harvest timeout."""
        now = time.monotonic()
        parts = []
        for w, proc in enumerate(self._procs):
            if w in self._stopped_workers or w in self._dead_workers:
                continue
            ring = self._rings[w]
            assert isinstance(ring, ShmRing)  # only process workers are listed
            owed = sorted(sid for sid in self._awaiting if self._placement.get(sid) == w)
            finish = [sid for sid in owed if self._awaiting[sid] == "finish"]
            drain = [sid for sid in owed if self._awaiting[sid] == "drain"]
            parts.append(
                f"worker {w} (process {'alive' if proc.is_alive() else 'dead'}, "
                f"{self._outstanding_pumps[w]} outstanding pump(s), "
                f"{len(self._feeds[w])} queued feed(s), "
                f"sessions awaiting finish {finish} and drain {drain}, "
                f"ring {ring.free_slots}/{ring.capacity} slots free, "
                f"last reply {now - self._last_reply[w]:.1f}s ago)"
            )
        return f"waiting for {waiting_for} on " + "; ".join(parts)

    def _workers_alive(self) -> bool:
        """Surface dead workers as :class:`WorkerCrash` (slots reclaimed).

        Consulted before a feed grows a full ring, and by a harvest once
        the reply pipes have drained empty.  A worker that exited
        normally has had its ``stopped`` reply dispatched (it is written
        before the worker exits, and a final drain reads it) and is
        skipped here.  Returns ``True`` when every running worker
        is alive, and ``False`` when no worker is running at all:
        nothing can answer the harvest that asked.
        """
        for w, proc in enumerate(self._procs):
            if w in self._stopped_workers or w in self._dead_workers:
                continue
            if proc.is_alive():
                continue
            # A final drain in case the exit raced the Empty poll.
            self._harvest_available()
            if w in self._stopped_workers:
                continue
            self._recover_worker(w, proc.exitcode)
        return len(self._stopped_workers | self._dead_workers) < len(self._procs)

    def _recover_worker(self, worker: int, exitcode: Optional[int]) -> None:
        ring = self._rings[worker]
        assert isinstance(ring, ShmRing)  # only a process worker dies
        leaked = ring.reclaim()
        lost = sorted(
            sid for sid, placed in self._placement.items() if placed == worker
        )
        for sid in lost:
            del self._placement[sid]
        self._outstanding_pumps[worker] = 0
        self._feeds[worker] = []
        self._dirty_workers.discard(worker)
        self._dead_workers.add(worker)
        self._count(C.FARM_SESSIONS_CLOSED, len(lost))
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
        self._gauge(G.FARM_RING_OCCUPANCY, ring.occupancy)
        raise WorkerCrash(worker, lost, leaked, exitcode)

    def _dispatch(self, msg: Tuple[object, ...]) -> None:
        worker, tag, freed = msg[0], msg[1], msg[2]
        self._last_reply[worker] = time.monotonic()
        self._replies_seen += 1
        ring = self._rings[worker]
        for slot in freed:
            ring.release(slot)
        if tag == "pumped":
            _seq, results, batched = msg[3], msg[4], msg[5]
            self._outstanding_pumps[worker] -= 1
            for sid, frames in results:
                self._collect(sid, frames)
            if batched:
                self.batched_windows += batched
                self._count(C.FARM_BATCHED_WINDOWS, batched)
        elif tag == "finished":
            sid, frames, stats, history = msg[3], msg[4], msg[5], msg[6]
            self._collect(sid, frames)
            self.session_stats[sid] = stats
            self.session_health[sid] = history
            self._awaiting.pop(sid, None)
        elif tag == "drained":
            self._drained[msg[3]] = msg[4]
            self._awaiting.pop(msg[3], None)
        elif tag == "stopped":
            busy, wall = msg[3], msg[4]
            util = busy / wall if wall > 0 else 0.0
            self.worker_utilization[worker] = util
            self._stopped_workers.add(worker)
            self._gauge(G.FARM_WORKER_UTILIZATION, util)
        elif tag == "error":
            raise RuntimeError(f"farm worker {worker} failed: {msg[3]}")
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown farm worker reply {tag!r}")

    def _shutdown_workers(self) -> None:
        """Stop every live worker and harvest its ``stopped`` reply."""
        for w in range(len(self._cmd_queues)):
            if w not in self._dead_workers:
                self._send(w, "stop")
        expected = len(self._cmd_queues) - len(self._dead_workers)
        while len(self._stopped_workers) < expected:
            self._harvest("stop replies")

    def _count(self, counter: CounterName, n: int = 1) -> None:
        if self.tracer.enabled:
            self.tracer.count(counter, n)

    def _gauge(self, gauge: GaugeName, value: float) -> None:
        if self.tracer.enabled:
            self.tracer.gauge(gauge, value)
