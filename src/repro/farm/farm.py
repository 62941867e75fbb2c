"""DecodeFarm: shard supervised sessions across a process pool.

The farm is the orchestration layer above
:class:`~repro.receiver.session.SessionSupervisor`: N sessions are
placed round-robin on W workers, IQ chunks travel through per-worker
shared-memory rings (:mod:`repro.farm.ring`), the window walk is
co-scheduled so sessions sharing a template bank gate through one
stacked FFT (:mod:`repro.farm.worker`), and results flow back as
ordered :class:`~repro.receiver.streaming.StreamFrame` batches with
per-session stats.  Checkpoint/restore is the rebalance primitive:
:meth:`DecodeFarm.drain` lifts a session off its worker as checkpoint
records and :meth:`DecodeFarm.restore` resumes it -- bit-identically
-- on another.

Two backends share every line of scheduling logic
(:class:`~repro.farm.worker.WorkerCore`):

- ``"process"`` -- one OS process per worker, shared-memory ingest,
  the real thing;
- ``"inline"`` -- the same worker cores driven synchronously in the
  parent: the equivalence oracle for tests, and the sensible choice on
  a single-core host.

The feed protocol is cycle-based: :meth:`feed` only *buffers* (the
worker ingests the chunk and frees the ring slot; nothing decodes),
and :meth:`pump` runs one co-scheduled decode cycle on every worker
with dirty sessions.  Per session the cadence is therefore
ingest-then-pump per chunk -- exactly ``SessionSupervisor.feed`` --
which is why farm output and stats are byte-identical to a sequential
run over the same chunks.
"""

from __future__ import annotations

import multiprocessing
import queue
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.registry import make_codes
from repro.farm.config import FarmConfig, SessionSpec
from repro.farm.ring import ShmRing
from repro.farm.worker import (
    HealthHistory,
    Record,
    ReplyPipes,
    WorkerCore,
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

    A worker forked afterwards inherits the memoised 2NC search
    (:func:`repro.codes.twonc._search_family`) and builds its sessions
    without repeating it, so a farm searches once, not once per worker.
    """
    for family in {(c.code_family, c.n_tags, c.code_length) for c in configs}:
        make_codes(*family)


class WorkerCrash(RuntimeError):
    """A farm worker process died without reporting ``stopped``.

    Raised from the parent's harvest loop.  By the time it propagates
    the farm has already reclaimed the dead worker's in-flight ring
    slots (they would otherwise stay claimed forever and strangle
    ingest) and evicted its sessions from the placement map.

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
        ``"process"`` (default) or ``"inline"`` (same scheduling, no
        processes -- the equivalence oracle).
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
        self._pump_seq = 0
        self._outstanding_pumps: Dict[int, int] = {
            w: 0 for w in range(self.config.n_workers)
        }
        self._closed = False
        self._finished: Dict[int, bool] = {}

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
        #: Feeds that blocked on a full ring (the backpressure signal
        #: consumers such as the gateway watch; mirrors
        #: ``farm.slot_waits``).
        self.slot_waits = 0
        self._fresh: Dict[int, List[StreamFrame]] = {}
        self._drained: Dict[int, List[Record]] = {}
        self._stopped_workers: Set[int] = set()
        self._dead_workers: Set[int] = set()

        if backend == "inline":
            self._cores = [
                WorkerCore(self.config.numpy_dtype, coschedule=self.config.coschedule)
                for _ in range(self.config.n_workers)
            ]
            for spec in specs:
                self._cores[self._placement[spec.session_id]].add(spec)
        else:
            build_code_families(spec.config for spec in specs)
            ctx = multiprocessing.get_context("fork")
            self._rings: List[ShmRing] = []
            self._cmd_queues = []
            self._replies = ReplyPipes()
            self._procs = []
            try:
                for w in range(self.config.n_workers):
                    ring = ShmRing(
                        self.config.ring_slots,
                        self.config.ring_slot_samples,
                        self.config.numpy_dtype,
                    )
                    self._rings.append(ring)
                    cmd_q = ctx.Queue()
                    self._cmd_queues.append(cmd_q)
                    reader, writer = ctx.Pipe(duplex=False)
                    self._replies.add(reader)
                    proc = ctx.Process(
                        target=worker_main,
                        args=(
                            w,
                            cmd_q,
                            writer,
                            ring.name,
                            self.config.ring_slots,
                            self.config.ring_slot_samples,
                            self.config.dtype,
                            self.config.coschedule,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    # Only the worker may hold the write end: a dead
                    # worker's pipe then reads as EOF, never blocks.
                    writer.close()
                    self._procs.append(proc)
                for spec in specs:
                    self._cmd_queues[self._placement[spec.session_id]].put(("add", spec))
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
        window_frames: float = 2.0,
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
            SessionSpec(
                session_id=i,
                config=config,
                session=session,
                window_frames=window_frames,
            )
            for i in range(n_sessions)
        ]
        return cls(specs, farm=farm, tracer=tracer, backend=backend)

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

    def _pick_worker(self) -> int:
        """Least-loaded live worker (lowest index on ties)."""
        live = self.live_workers
        if not live:
            raise RuntimeError("no live workers left in the farm")
        loads = {w: 0 for w in live}
        for placed in self._placement.values():
            if placed in loads:
                loads[placed] += 1
        return min(live, key=lambda w: (loads[w], w))

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
        sid = spec.session_id
        if sid in self._placement:
            raise ValueError(f"session {sid} is already live")
        if worker is None:
            worker = self._pick_worker()
        if not 0 <= worker < self.config.n_workers:
            raise ValueError(f"worker {worker} out of range")
        if worker in self._dead_workers:
            raise ValueError(f"worker {worker} is dead")
        self._specs[sid] = spec
        if self.backend == "inline":
            self._cores[worker].add(spec)
        else:
            self._cmd_queues[worker].put(("add", spec))
        self._placement[sid] = worker
        self.frames.setdefault(sid, [])
        self._count(C.FARM_SESSIONS_OPENED)
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
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
        worker = self._placement[session_id]
        if self.backend == "inline":
            frames, stats, history = self._cores[worker].finish(session_id)
            self._collect(session_id, frames)
            self.session_stats[session_id] = stats
            self.session_health[session_id] = history
        else:
            self._cmd_queues[worker].put(("finish", session_id))
            while not self._finished.get(session_id):
                self._harvest()
        del self._placement[session_id]
        self._count(C.FARM_SESSIONS_CLOSED)
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
        return self._fresh.pop(session_id, [])

    # ------------------------------------------------------------------
    # The data path
    # ------------------------------------------------------------------

    def feed(self, session_id: int, chunk: np.ndarray) -> None:
        """Ship *chunk* to *session_id*'s worker (buffering only).

        The chunk is written into the worker's shared-memory ring --
        split across slots when larger than one -- and the worker
        ingests it into the session's buffer.  No windows are decoded
        until :meth:`pump`.  Blocks only when every ring slot is in
        flight (``farm.slot_waits``).
        """
        self._check_open()
        worker = self._placement[session_id]
        x = np.asarray(chunk)
        if x.ndim != 1:
            raise ValueError(f"farm feed requires 1-D sample chunks, got ndim={x.ndim}")
        self._count(C.FARM_CHUNKS)
        if self.backend == "inline":
            self._cores[worker].ingest(session_id, x)
        else:
            ring = self._rings[worker]
            for lo in range(0, x.size, ring.slot_samples) or [0]:
                piece = x[lo : lo + ring.slot_samples]
                while ring.free_slots == 0:
                    self.slot_waits += 1
                    self._count(C.FARM_SLOT_WAITS)
                    self._harvest()
                slot = ring.put(piece)
                self._cmd_queues[worker].put(("feed", session_id, slot, piece.size))
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
        if self.backend == "inline":
            for worker in dirty:
                core = self._cores[worker]
                before = core.batched_windows
                for sid, frames in core.pump():
                    self._collect(sid, frames)
                self._record_batched(core.batched_windows - before)
            return self._take_fresh()
        for worker in dirty:
            self._pump_seq += 1
            self._cmd_queues[worker].put(("pump", self._pump_seq))
            self._outstanding_pumps[worker] += 1
        self._gauge(
            G.FARM_QUEUE_DEPTH, sum(self._outstanding_pumps.values())
        )
        if wait:
            while any(self._outstanding_pumps.values()):
                self._harvest()
        else:
            self._harvest_available()
        return self._take_fresh()

    def poll(self) -> Dict[int, List[StreamFrame]]:
        """Harvest whatever workers have reported without blocking."""
        self._check_open()
        if self.backend == "process":
            self._harvest_available()
        return self._take_fresh()

    def finish(self) -> Dict[int, List[StreamFrame]]:
        """Finish every session, stop the workers, return tail frames.

        Flushes outstanding cycles first (worker queues are FIFO), then
        ends each session -- the truncated tail window plus the ordered
        flush of held-back frames -- and collects its final stats and
        health history into :attr:`session_stats` / :attr:`session_health`.
        The farm is closed afterwards; full streams stay in
        :attr:`frames`.
        """
        self._check_open()
        if self._dirty_workers:
            self.pump(wait=True)
        tails: Dict[int, List[StreamFrame]] = {}
        if self.backend == "inline":
            for sid in self.session_ids:
                frames, stats, history = self._cores[self._placement[sid]].finish(sid)
                self._collect(sid, frames)
                self.session_stats[sid] = stats
                self.session_health[sid] = history
                tails[sid] = frames
            for w, core in enumerate(self._cores):
                self.worker_utilization[w] = 1.0
            self._count(C.FARM_SESSIONS_CLOSED, len(tails))
            self._gauge(G.FARM_SESSIONS_LIVE, 0)
            self._placement.clear()
            self._closed = True
            return tails
        pending = list(self.session_ids)
        for sid in pending:
            self._cmd_queues[self._placement[sid]].put(("finish", sid))
        while not all(self._finished.get(sid) for sid in pending):
            self._harvest()
        for sid in pending:
            tails[sid] = self._fresh.pop(sid, [])
            del self._placement[sid]
        self._count(C.FARM_SESSIONS_CLOSED, len(pending))
        self._gauge(G.FARM_SESSIONS_LIVE, 0)
        self._shutdown_workers()
        self._closed = True
        return tails

    # ------------------------------------------------------------------
    # Rebalancing (checkpoint/restore as the primitive)
    # ------------------------------------------------------------------

    def drain(self, session_id: int) -> List[Record]:
        """Lift a session off its worker as checkpoint records.

        The session is checkpointed (position, dedup, health machine,
        pending frames) and removed.  Resume it with :meth:`restore`
        and re-feed the sample stream from the checkpoint's
        ``position`` -- buffered-but-unprocessed samples are *not*
        part of the records, exactly like an on-disk checkpoint.
        """
        self._check_open()
        worker = self._placement[session_id]
        if self.backend == "inline":
            records = self._cores[worker].drain(session_id)
        else:
            self._cmd_queues[worker].put(("drain", session_id))
            while session_id not in self._drained:
                self._harvest()
            records = self._drained.pop(session_id)
        del self._placement[session_id]
        self._count(C.FARM_SESSIONS_CLOSED)
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
        return records

    def restore(
        self, session_id: int, records: List[Record], worker: Optional[int] = None
    ) -> None:
        """Resume a drained session on *worker* (default: round-robin)."""
        self._check_open()
        if session_id in self._placement:
            raise ValueError(f"session {session_id} is already live")
        spec = self._specs[session_id]
        if worker is None:
            worker = self._pick_worker()
        if not 0 <= worker < self.config.n_workers:
            raise ValueError(f"worker {worker} out of range")
        if worker in self._dead_workers:
            raise ValueError(f"worker {worker} is dead")
        if self.backend == "inline":
            self._cores[worker].restore(spec, records)
        else:
            self._cmd_queues[worker].put(("restore", spec, records))
        self._placement[session_id] = worker
        self.frames.setdefault(session_id, [])
        self._count(C.FARM_SESSIONS_OPENED)
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))

    def migrate(self, session_id: int, worker: int) -> List[Record]:
        """Drain a session and resume it on another worker.

        Returns the checkpoint records (the caller re-feeds the stream
        from their ``position``).  Bit-identical continuation is the
        checkpoint/restore guarantee, so rebalancing never changes
        decode output.
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
        if self.backend == "process":
            for proc in getattr(self, "_procs", []):
                if proc.is_alive():
                    proc.terminate()
            for proc in getattr(self, "_procs", []):
                proc.join(timeout=5.0)
            for ring in getattr(self, "_rings", []):
                ring.close()
            self._replies.close()

    def __enter__(self) -> "DecodeFarm":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Result harvesting (process backend)
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
        fresh = {sid: frames for sid, frames in self._fresh.items() if frames}
        self._fresh = {}
        return fresh

    def _record_batched(self, n: int) -> None:
        if n:
            self.batched_windows += n
            self._count(C.FARM_BATCHED_WINDOWS, n)

    def _harvest_available(self) -> None:
        while True:
            try:
                msg = self._replies.get_nowait()
            except queue.Empty:
                return
            self._dispatch(msg)

    def _harvest(self) -> None:
        """Block until one worker reply arrives, then dispatch it."""
        msg = poll_get(self._replies, self._workers_alive, _HARVEST_TIMEOUT_S)
        assert msg is not None  # a dead worker raises WorkerCrash instead
        self._dispatch(msg)

    def _workers_alive(self) -> bool:
        """Surface dead workers as :class:`WorkerCrash` (slots reclaimed).

        Only consulted once the reply pipes have drained empty, so a
        worker that exited normally has had its ``stopped`` reply
        dispatched (it is written before the worker exits) and is
        skipped here.  Returns ``True`` when every running worker
        is alive.
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
        return True

    def _recover_worker(self, worker: int, exitcode: Optional[int]) -> None:
        ring = self._rings[worker]
        leaked = ring.reclaim()
        lost = sorted(
            sid for sid, placed in self._placement.items() if placed == worker
        )
        for sid in lost:
            del self._placement[sid]
        self._outstanding_pumps[worker] = 0
        self._dirty_workers.discard(worker)
        self._dead_workers.add(worker)
        self._count(C.FARM_SESSIONS_CLOSED, len(lost))
        self._gauge(G.FARM_SESSIONS_LIVE, len(self._placement))
        self._gauge(G.FARM_RING_OCCUPANCY, ring.occupancy)
        raise WorkerCrash(worker, lost, leaked, exitcode)

    def _dispatch(self, msg: Tuple[object, ...]) -> None:
        worker, tag = msg[0], msg[1]
        if tag == "free":
            self._rings[worker].release(msg[2])
        elif tag == "pumped":
            _seq, results, batched = msg[2], msg[3], msg[4]
            self._outstanding_pumps[worker] -= 1
            for sid, frames in results:
                self._collect(sid, frames)
            self._record_batched(batched)
        elif tag == "finished":
            sid, frames, stats, history = msg[2], msg[3], msg[4], msg[5]
            self._collect(sid, frames)
            self.session_stats[sid] = stats
            self.session_health[sid] = history
            self._finished[sid] = True
        elif tag == "drained":
            self._drained[msg[2]] = msg[3]
        elif tag == "stopped":
            busy, wall = msg[2], msg[3]
            util = busy / wall if wall > 0 else 0.0
            self.worker_utilization[worker] = util
            self._stopped_workers.add(worker)
            self._gauge(G.FARM_WORKER_UTILIZATION, util)
        elif tag == "error":
            raise RuntimeError(f"farm worker {worker} failed: {msg[2]}")
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown farm worker reply {tag!r}")

    def _shutdown_workers(self) -> None:
        for w, cmd_q in enumerate(self._cmd_queues):
            if w not in self._dead_workers:
                cmd_q.put(("stop",))
        expected = len(self._procs) - len(self._dead_workers)
        while len(self._stopped_workers) < expected:
            self._harvest()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for ring in self._rings:
            ring.close()
        self._replies.close()

    def _count(self, counter: CounterName, n: int = 1) -> None:
        if self.tracer.enabled:
            self.tracer.count(counter, n)

    def _gauge(self, gauge: GaugeName, value: float) -> None:
        if self.tracer.enabled:
            self.tracer.gauge(gauge, value)
