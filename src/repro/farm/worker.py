"""Farm worker: co-scheduled session execution on one process.

:class:`WorkerCore` is the scheduling logic and the farm's command
interpreter (:meth:`WorkerCore.handle`), free of any process
machinery.  One protocol, two transports: a worker process feeds it
from a command queue (:func:`worker_main`), and an
:class:`InlineWorker` -- the equivalence oracle and the 1-core fallback
-- runs each command in the parent.  Both put the replies where the
farm harvests them, so the backends cannot drift apart.

The co-scheduled pump is where cross-session batching happens.  Each
pump cycle:

1. every dirty session exposes its next complete window
   (:meth:`SessionSupervisor.peek_window`);
2. windows are grouped by (template bank, window length, detector
   threshold) -- sessions built from the same
   :class:`~repro.sim.network.CbmaConfig` share a memoised bank, so
   their groups merge;
3. each group of >= 2 windows is gated in one
   :meth:`StreamingReceiver.windows_are_live` call from its sessions'
   correlation pieces (:class:`~repro.receiver.streaming.GatePieces`):
   one stacked kernel call correlates the hop slices the group's
   sessions lack and one their seams, bit-identical per window to the
   session's own gate; each session's gate is then primed with its
   window's decision and, for a live window, its correlation plane,
   which the session's detector uses instead of correlating again;
4. sessions then pump exactly one window each, in session-id order,
   and the cycle repeats until no session has a complete window (or
   every session hit its ``max_windows_per_feed`` budget);
5. one housekeeping pump per session runs the backlog shedding, buffer
   trim and gauges -- equivalent to ``feed``'s ordering because
   shedding happens only after the walk drained everything it was
   allowed to.

Because sessions are independent and the batched gate decision is
bit-identical to the sequential one, the frames and stats each session
produces are byte-identical to running it alone through
``SessionSupervisor.feed`` with the same chunk cadence.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.farm.config import SessionSpec
from repro.farm.ring import RefRing, ShmRing
from repro.receiver.session import SessionSupervisor
from repro.receiver.streaming import StreamFrame, StreamingReceiver

__all__ = ["InlineWorker", "WorkerCore", "worker_main", "poll_get", "Record"]

#: One checkpoint record, as produced by
#: :meth:`SessionSupervisor.checkpoint_records` -- the migration
#: currency between farm and workers.
Record = Dict[str, object]

#: ``(window_index, health state)`` entries of a session's history.
HealthHistory = List[Tuple[int, str]]

#: Poll interval of every blocking farm wait (:func:`poll_get`): the
#: worker's command wait and the parent's reply wait.  Neither side
#: blocks longer than this without re-checking that its peer is alive,
#: so a crash on either end surfaces instead of hanging the other.
_POLL_S = 1.0


def poll_get(
    q: Union["multiprocessing.queues.Queue[Tuple[object, ...]]", "ReplyPipes"],
    peer_alive: Callable[[], bool],
    patience_s: Optional[float] = None,
    describe_wait: Optional[Callable[[], str]] = None,
) -> Optional[Tuple[object, ...]]:
    """Next message from *q*, re-checking the peer on every Empty.

    Waits in :data:`_POLL_S` slices; after each empty slice calls
    *peer_alive* (which may also raise) and returns ``None`` once it
    reports the peer gone.  With *patience_s*, a peer that stays alive
    but silent that long raises ``RuntimeError``, whose message ends
    with ``describe_wait()`` when given: what the caller waited for.
    """
    waited = 0.0
    while True:
        try:
            return q.get(timeout=_POLL_S)
        except queue.Empty:
            if not peer_alive():
                return None
            waited += _POLL_S
            if patience_s is not None and waited >= patience_s:
                detail = f"; {describe_wait()}" if describe_wait is not None else ""
                raise RuntimeError(f"farm peer sent nothing for {patience_s}s{detail}") from None


class ReplyPipes:
    """The parent's ends of the workers' replies, read as one queue.

    Each worker process writes its replies into a pipe of its own, so
    every pipe has one writer and needs no lock.  A shared
    ``multiprocessing.Queue`` would not do: a worker SIGKILLed in the
    middle of a reply could die holding the queue's writer lock and
    silence every other worker.  A pipe can only be torn by its own
    writer; it then reads as EOF and is dropped.  An inline worker hands
    its replies in through :meth:`put`.  :meth:`get` raises
    ``queue.Empty`` like ``Queue.get``, so :func:`poll_get` serves both
    ends of the farm.
    """

    def __init__(self) -> None:
        self._conns: List[Connection] = []
        self._inline: Deque[Tuple[object, ...]] = collections.deque()

    def add(self, conn: Connection) -> None:
        self._conns.append(conn)

    def put(self, msg: Tuple[object, ...]) -> None:
        self._inline.append(msg)

    def get(self, timeout: float = 0.0) -> Tuple[object, ...]:
        """Next reply from any worker, waiting up to *timeout* seconds."""
        if self._inline:
            return self._inline.popleft()
        ready = wait(self._conns, timeout)
        for conn in [c for c in self._conns if c in ready]:
            try:
                msg: Tuple[object, ...] = conn.recv()
                return msg
            except (EOFError, OSError):
                # The writer exited (a torn last reply is dropped with
                # it); liveness checks attribute the death.
                self._drop(conn)
        raise queue.Empty

    def get_nowait(self) -> Tuple[object, ...]:
        return self.get(0.0)

    def close(self) -> None:
        self._inline.clear()
        for conn in list(self._conns):
            self._drop(conn)

    def _drop(self, conn: Connection) -> None:
        conn.close()
        self._conns.remove(conn)


def _parent_alive() -> bool:
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


class WorkerCore:
    """Sessions resident on one worker, the co-scheduled pump, and the
    command interpreter (:meth:`handle`) that both transports drive."""

    def __init__(self) -> None:
        self.sessions: Dict[int, SessionSupervisor] = {}
        self._dirty: Set[int] = set()
        #: Windows gated through a cross-session batch (lifetime total).
        self.batched_windows = 0
        self._started = time.perf_counter()
        self._busy_s = 0.0

    def handle(
        self, cmd: Tuple[Any, ...], view: Callable[[int, int], np.ndarray]
    ) -> Optional[Tuple[object, ...]]:
        """Run one farm command; returns its reply, or ``None``.

        *cmd* is ``(op, feeds, *args)``: *feeds* is the ``(sid, slot,
        n)`` list of ring slots the parent wrote since its last command
        to this worker, read through ``view(slot, n)``.  They are
        ingested first, in order, so no command can overtake a feed,
        and the reply ``(tag, freed_slots, *payload)`` hands their
        slots back in bulk:

        - ``("add", [], spec)``, ``("restore", [], spec, records)``
          -> no reply, so these carry no feeds
        - ``("pump", feeds, seq)``   -> ``("pumped", seq, results, batched)``
        - ``("finish", feeds, sid)`` -> ``("finished", sid, frames, stats, history)``
        - ``("drain", feeds, sid)``  -> ``("drained", sid, checkpoint records)``
        - ``("stop", feeds)``        -> ``("stopped", busy_s, wall_s)``: seconds
          spent in :meth:`handle`, and since construction

        ``finish`` and ``drain`` remove the session from this worker.
        """
        t0 = time.perf_counter()
        op, feeds = cmd[0], cmd[1]
        for sid, slot, n in feeds:
            self.ingest(sid, view(slot, n))
        freed = [slot for _sid, slot, _n in feeds]
        out: Optional[Tuple[object, ...]] = None
        if op in ("add", "restore"):
            if freed:
                raise ValueError(f"a {op!r} command gets no reply, so it carries no feeds")
            spec: SessionSpec = cmd[2]
            if spec.session_id in self.sessions:
                raise ValueError(f"session {spec.session_id} already on this worker")
            if op == "add":
                session = SessionSupervisor.from_config(spec.config, session=spec.session)
            else:
                session = SessionSupervisor.from_checkpoint_records(
                    cmd[3], StreamingReceiver.from_config(spec.config), config=spec.session,
                    source=f"migration records for session {spec.session_id}",
                )
            self.sessions[spec.session_id] = session
        elif op == "pump":
            before = self.batched_windows
            results = self.pump()
            out = ("pumped", cmd[2], results, self.batched_windows - before)
        elif op in ("finish", "drain"):
            sid = cmd[2]
            session = self.sessions.pop(sid)
            self._dirty.discard(sid)
            if op == "finish":
                frames = session.finish()
                out = ("finished", sid, frames, dict(session.stats), list(session.health_history))
            else:
                out = ("drained", sid, session.checkpoint_records())
        elif op != "stop":
            raise ValueError(f"unknown farm worker command {op!r}")
        self._busy_s += time.perf_counter() - t0
        if op == "stop":
            out = ("stopped", self._busy_s, time.perf_counter() - self._started)
        return None if out is None else (out[0], freed, *out[1:])

    # --- the data path --------------------------------------------------

    def ingest(self, session_id: int, chunk: np.ndarray) -> None:
        """Buffer *chunk* into one session (no window processing)."""
        self.sessions[session_id].ingest(chunk)
        self._dirty.add(session_id)

    def pump(self) -> List[Tuple[int, List[StreamFrame]]]:
        """Co-scheduled pump of every dirty session.

        Returns ``(session_id, frames)`` pairs in session-id order;
        the dirty set is cleared.
        """
        sids = sorted(self._dirty)
        self._dirty.clear()
        emitted: Dict[int, List[StreamFrame]] = {sid: [] for sid in sids}
        counts = {sid: 0 for sid in sids}
        while True:
            ready: List[Tuple[int, np.ndarray]] = []
            for sid in sids:
                session = self.sessions[sid]
                limit = session.config.max_windows_per_feed
                if limit is not None and counts[sid] >= limit:
                    continue
                window = session.peek_window()
                if window is not None:
                    ready.append((sid, window))
            if not ready:
                break
            if len(ready) >= 2:
                self._prime_batched(ready)
            for sid, _window in ready:
                emitted[sid].extend(
                    self.sessions[sid].pump(max_windows=1, housekeep=False)
                )
                counts[sid] += 1
        for sid in sids:
            emitted[sid].extend(self.sessions[sid].pump(max_windows=0))
        return [(sid, emitted[sid]) for sid in sids]

    def _prime_batched(self, ready: List[Tuple[int, np.ndarray]]) -> None:
        """Gate groups of same-geometry windows from their sessions'
        pieces: one stacked kernel call for the group's missing hop
        slices and one for its missing seams."""
        groups: Dict[Tuple[int, int, float], List[Tuple[int, np.ndarray]]] = {}
        for sid, window in ready:
            detector = self.sessions[sid].streaming.receiver.user_detector
            key = (id(detector.bank), window.size, detector.threshold)
            groups.setdefault(key, []).append((sid, window))
        for group in groups.values():
            if len(group) < 2:
                continue
            sessions = [self.sessions[sid] for sid, _window in group]
            planes: List[Optional[np.ndarray]] = []
            live = sessions[0].streaming.windows_are_live(
                [window for _sid, window in group],
                planes=planes,
                positions=[session.position for session in sessions],
                pieces=[session.gate_pieces for session in sessions],
            )
            for session, decision, plane in zip(sessions, live, planes):
                session.prime_gate(bool(decision), plane)
            self.batched_windows += len(group)


def worker_main(
    worker_id: int,
    cmd_queue: "multiprocessing.queues.Queue[Tuple[object, ...]]",
    replies: Connection,
    ring_name: str,
    segment_slots: int,
    ring_slot_samples: int,
) -> None:
    """Process entry point: feed a :class:`WorkerCore` from a queue.

    Each command goes to :meth:`WorkerCore.handle`, which reads its
    feeds out of this worker's shared-memory ring (mapping each segment
    the parent grew it by when a feed first names one of its slots;
    *segment_slots* is the slots per segment), and each reply goes
    out on *replies*, the write end of this worker's own pipe
    (:class:`ReplyPipes`), as ``(worker_id, tag, freed_slots,
    *payload)``.  Any exception is reported as ``("error", repr)``
    before the worker exits -- a farm never hangs on a dead worker
    silently.  Commands are awaited through :func:`poll_get`, which
    re-checks the parent process on each idle tick, so a worker
    orphaned by a crashed farm shuts itself down instead of waiting on
    a queue nobody will ever fill again (the symmetric guarantee -- a
    dead farm never strands a live worker).
    """
    ring = ShmRing.attach(ring_name, segment_slots, ring_slot_samples)
    core = WorkerCore()
    try:
        while True:
            cmd = poll_get(cmd_queue, _parent_alive)
            if cmd is None:
                break  # orphaned: the farm died without sending "stop"
            reply = core.handle(cmd, ring.view)
            if reply is not None:
                replies.send((worker_id, *reply))
            if cmd[0] == "stop":
                break
    except Exception as exc:  # pragma: no cover - exercised via process backend
        replies.send((worker_id, "error", [], repr(exc)))
    finally:
        ring.close()


class InlineWorker:
    """The inline transport's end of one worker.

    :meth:`put` stands where a worker process's command queue stands:
    it runs the command on a :class:`WorkerCore` in this process,
    reading feeds from *ring*, and puts the reply on *replies*.
    """

    def __init__(self, worker_id: int, ring: RefRing, replies: ReplyPipes) -> None:
        self.core = WorkerCore()
        self._worker_id = worker_id
        self._ring = ring
        self._replies = replies

    def put(self, cmd: Tuple[object, ...]) -> None:
        reply = self.core.handle(cmd, self._ring.view)
        if reply is not None:
            self._replies.put((self._worker_id, *reply))
