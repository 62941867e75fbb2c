"""Regression: the worker command loop polls instead of blocking.

An unbounded ``cmd_queue.get()`` meant a worker orphaned by a crashed
farm waited forever on a queue nobody would fill.  Every blocking farm
wait now goes through :func:`repro.farm.worker.poll_get`, which polls
in :data:`repro.farm.worker._POLL_S` slices and re-checks the peer on
every Empty.  The thread tests drive :func:`worker_main` with a plain
command queue and a reply pipe -- in the test process
``multiprocessing.parent_process()`` is
``None``, exercising exactly the idle-timeout -> liveness-check ->
continue path; the process test kills a real parent.
"""

import multiprocessing
import os
import queue
import signal
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.farm import ShmRing
from repro.farm import worker as worker_mod
from repro.farm.worker import ReplyPipes, poll_get, worker_main


@pytest.fixture()
def ring():
    r = ShmRing(slots=4, slot_samples=16)
    yield r
    r.close()


def start_worker(ring, cmd_q):
    """Run a worker loop on a thread; returns it and its reply reader."""
    replies, writer = multiprocessing.Pipe(duplex=False)
    thread = threading.Thread(
        target=worker_main,
        args=(0, cmd_q, writer, ring.name, 4, 16),
        daemon=True,
    )
    thread.start()
    return thread, replies


def next_reply(replies, timeout=5.0):
    assert replies.poll(timeout), "worker sent no reply"
    return replies.recv()


def test_idle_polls_survive_until_stop(ring, monkeypatch):
    monkeypatch.setattr(worker_mod, "_POLL_S", 0.02)
    cmd_q = queue.Queue()
    thread, replies = start_worker(ring, cmd_q)
    # Let the loop hit queue.Empty several times before any command.
    deadline_polls = threading.Event()
    deadline_polls.wait(0.15)
    cmd_q.put(("stop", []))
    worker_id, tag, freed, busy, wall = next_reply(replies)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert (worker_id, tag, freed) == (0, "stopped", [])
    # Idle waiting is not billed as busy time.
    assert busy <= wall


def test_commands_after_idle_window_still_processed(ring, monkeypatch):
    monkeypatch.setattr(worker_mod, "_POLL_S", 0.02)
    cmd_q = queue.Queue()
    thread, replies = start_worker(ring, cmd_q)
    threading.Event().wait(0.1)  # several empty polls first
    chunk = np.arange(8, dtype=np.complex128)
    slot = ring.put(chunk)
    cmd_q.put(("pump", [(1, slot, 8)], 1))  # unknown session would raise KeyError...
    msg = next_reply(replies)
    # ...which the loop reports as an error instead of hanging.
    assert msg[1] == "error"
    cmd_q.put(("stop", []))
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_poll_interval_is_bounded():
    # The liveness re-check cadence: long enough to stay off the hot
    # path, short enough that an orphan exits promptly.
    assert 0 < worker_mod._POLL_S <= 5.0


def test_poll_get_returns_none_once_the_peer_is_gone(monkeypatch):
    monkeypatch.setattr(worker_mod, "_POLL_S", 0.01)
    checks = []

    def alive():
        checks.append(None)
        return len(checks) < 3

    assert poll_get(queue.Queue(), alive) is None
    assert len(checks) == 3  # one liveness check per empty poll


def test_poll_get_gives_up_on_a_silent_live_peer(monkeypatch):
    monkeypatch.setattr(worker_mod, "_POLL_S", 0.01)
    with pytest.raises(RuntimeError, match="sent nothing"):
        poll_get(queue.Queue(), lambda: True, patience_s=0.05)


# ----------------------------------------------------------------------
# Reply pipes: one writer each, so a torn reply silences nobody else
# ----------------------------------------------------------------------


def test_reply_pipes_drop_a_torn_pipe_and_keep_the_others():
    pipes = ReplyPipes()
    torn_reader, torn_writer = multiprocessing.Pipe(duplex=False)
    live_reader, live_writer = multiprocessing.Pipe(duplex=False)
    pipes.add(torn_reader)
    pipes.add(live_reader)
    # A writer killed mid-reply: a length header promising 1000 bytes,
    # 3 bytes of payload, then the write end closes.
    os.write(torn_writer.fileno(), (1000).to_bytes(4, "big") + b"abc")
    torn_writer.close()
    live_writer.send((1, "free", 2))
    replies = []
    for _ in range(3):
        try:
            replies.append(pipes.get(0.5))
        except queue.Empty:
            pass
    assert replies == [(1, "free", 2)]
    assert torn_reader.closed
    with pytest.raises(queue.Empty):
        pipes.get_nowait()
    pipes.close()
    assert live_reader.closed


def test_reply_pipes_deliver_the_last_reply_before_eof():
    pipes = ReplyPipes()
    reader, writer = multiprocessing.Pipe(duplex=False)
    pipes.add(reader)
    writer.send((0, "stopped", 0.0, 1.0))
    writer.close()
    assert pipes.get(1.0) == (0, "stopped", 0.0, 1.0)
    with pytest.raises(queue.Empty):
        pipes.get(0.05)
    assert reader.closed


# ----------------------------------------------------------------------
# A real orphan: the worker's parent process is SIGKILLed
# ----------------------------------------------------------------------


def _start_worker_then_idle(ring_name, report):
    """Forked stand-in for a farm: start one worker, prove its command
    loop answers, report the worker's pid, then wait to be killed."""
    ctx = multiprocessing.get_context("fork")
    cmd_q = ctx.Queue()
    replies, writer = ctx.Pipe(duplex=False)
    worker = ctx.Process(
        target=worker_main,
        args=(0, cmd_q, writer, ring_name, 4, 16),
    )
    worker.start()
    cmd_q.put(("pump", [], 1))
    assert replies.poll(30.0)
    reply = replies.recv()
    report.send((worker.pid, reply[1]))
    time.sleep(60.0)


def _exited(pid):
    """True once *pid* is gone or a zombie (its reaper may be lazy)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs fork and /proc")
def test_orphaned_worker_process_exits_and_ring_unlinks(monkeypatch):
    poll_s = 0.1
    monkeypatch.setattr(worker_mod, "_POLL_S", poll_s)  # inherited by the forks
    ctx = multiprocessing.get_context("fork")
    ring = ShmRing(slots=4, slot_samples=16)
    name = ring.name
    recv, send = ctx.Pipe(duplex=False)
    parent = ctx.Process(target=_start_worker_then_idle, args=(name, send))
    parent.start()
    worker_pid = None
    try:
        assert recv.poll(60.0), "the stand-in farm never reported its worker"
        worker_pid, tag = recv.recv()
        assert tag == "pumped"
        os.kill(parent.pid, signal.SIGKILL)
        parent.join(timeout=5.0)
        assert parent.exitcode == -signal.SIGKILL
        killed = time.monotonic()
        while not _exited(worker_pid) and time.monotonic() - killed < 30 * poll_s:
            time.sleep(poll_s / 10)
        elapsed = time.monotonic() - killed
        assert _exited(worker_pid), "orphaned worker is still running"
        assert elapsed < 10 * poll_s, f"orphan took {elapsed:.2f}s to exit"
    finally:
        if worker_pid is not None and not _exited(worker_pid):
            os.kill(worker_pid, signal.SIGKILL)
        if parent.is_alive():
            parent.kill()
            parent.join(timeout=5.0)
    ring.close()  # the owner can still remove the segment
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
