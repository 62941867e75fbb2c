"""Worker-death recovery: claimed ring slots must not leak.

A worker that dies mid-stream leaves its in-flight slots claimed; the
parent must notice on its next blocking harvest, return those slots
to the free list, evict the dead worker's sessions, and raise
:class:`WorkerCrash` instead of hanging until the harvest timeout.
"""

import os
import queue
import re
import signal
import time

import pytest

import repro.farm.farm as farm_mod
import repro.farm.worker as worker_mod
from repro.farm import DecodeFarm, FarmConfig, SessionSpec, WorkerCrash
from tests.farm.conftest import run_sequential


@pytest.fixture(autouse=True)
def fast_death_poll(monkeypatch):
    """Poll liveness every 50 ms so the tests stay quick."""
    monkeypatch.setattr(worker_mod, "_POLL_S", 0.05)


def _specs(net_config, n):
    return [SessionSpec(session_id=i, config=net_config) for i in range(n)]


class TestWorkerCrashRecovery:
    def test_dead_worker_releases_claimed_slots(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=2, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 4), farm=cfg)
        try:
            farm.feed(0, chunks[0])
            farm.pump()
            victim = farm.worker_of(0)
            farm._procs[victim].kill()
            farm._procs[victim].join(timeout=5.0)
            # Saturate the victim's ring: with the worker dead nothing
            # frees slots, so the third feed blocks and must surface
            # the crash rather than wait out the harvest timeout.
            with pytest.raises(WorkerCrash) as exc:
                for piece in chunks[1:4]:
                    farm.feed(0, piece)
            crash = exc.value
            assert crash.worker == victim
            assert crash.released_slots, "in-flight slots were not reclaimed"
            assert farm._rings[victim].free_slots == cfg.ring_slots
            assert farm._rings[victim].occupancy == 0
            assert farm.live_workers == [1 - victim]
            # The dead worker's sessions are gone; the others survive.
            assert all(farm.worker_of(sid) != victim for sid in farm.session_ids)
            assert crash.sessions == sorted(
                sid for sid in range(4) if sid % 2 == victim
            )
        finally:
            farm.close()

    def test_surviving_sessions_still_decode(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=2, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 2), farm=cfg)
        try:
            victim = farm.worker_of(0)
            survivor_sid = 1
            farm._procs[victim].kill()
            farm._procs[victim].join(timeout=5.0)
            with pytest.raises(WorkerCrash):
                for piece in chunks[:4]:
                    farm.feed(0, piece)
            for piece in chunks:
                farm.feed(survivor_sid, piece)
                farm.pump()
            tail = farm.finish_session(survivor_sid)
            assert farm.frames[survivor_sid], "survivor produced no frames"
            assert tail is not None
        finally:
            farm.close()

    def test_crash_is_not_raised_for_clean_stop(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 2), farm=cfg)
        try:
            for piece in chunks[:3]:
                for sid in farm.session_ids:
                    farm.feed(sid, piece)
                farm.pump()
            tails = farm.finish()
            assert set(tails) == {0, 1}
        finally:
            farm.close()


class TestHarvestTimeout:
    def test_timeout_names_what_each_worker_owes(self, net_config, soak_capture, monkeypatch):
        """A stopped worker is alive but silent: the harvest timeout
        names, per worker, its process state, outstanding pumps, the
        sessions awaiting finish or drain, its free ring slots and the
        time since its last reply."""
        monkeypatch.setattr(farm_mod, "_HARVEST_TIMEOUT_S", 0.5)
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 4), farm=cfg)
        victim = farm.worker_of(0)
        stopped = False
        try:
            for sid in farm.session_ids:
                farm.feed(sid, chunks[0])
            farm.pump()
            os.kill(farm._procs[victim].pid, signal.SIGSTOP)
            stopped = True
            farm.feed(0, chunks[1])
            farm.pump(wait=False)
            with pytest.raises(RuntimeError, match="sent nothing for 0.5s") as exc:
                farm.finish_session(2)
            message = str(exc.value)
            owed = re.search(rf"worker {victim} \((.*?)\)(;|$)", message)
            assert owed, message
            assert owed.group(1).startswith("process alive, 1 outstanding pump(s), ")
            assert "sessions awaiting finish [2] and drain []" in owed.group(1)
            assert re.search(r"ring \d/4 slots free, last reply \d+\.\ds ago", owed.group(1))
            assert f"worker {1 - victim} (process alive, 0 outstanding pump(s)" in message
        finally:
            if stopped:
                os.kill(farm._procs[victim].pid, signal.SIGCONT)
            farm.close()

    def test_timeout_counts_a_grown_ring(self, net_config, soak_capture, monkeypatch):
        """Three feeds grew a stopped worker's 2-slot ring to 4 slots;
        the timeout reads free slots off the grown ring."""
        monkeypatch.setattr(farm_mod, "_HARVEST_TIMEOUT_S", 0.5)
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=1, ring_slots=2, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 1), farm=cfg)
        stopped = False
        try:
            os.kill(farm._procs[0].pid, signal.SIGSTOP)
            stopped = True
            for piece in chunks[:3]:
                farm.feed(0, piece)
            assert farm.slot_waits == 1
            with pytest.raises(RuntimeError, match="sent nothing for 0.5s") as exc:
                farm.pump()
            assert "ring 1/4 slots free" in str(exc.value)
        finally:
            if stopped:
                os.kill(farm._procs[0].pid, signal.SIGCONT)
            farm.close()

    def test_harvest_with_no_running_worker_fails_fast(self, net_config):
        """Every worker has stopped but a pump reply is still owed: the
        harvest raises at its first empty poll and names the loop."""
        farm = DecodeFarm(_specs(net_config, 2), farm=FarmConfig(n_workers=2))
        try:
            farm._shutdown_workers()
            farm._outstanding_pumps[0] = 1  # a reply no worker will send
            t0 = time.monotonic()
            with pytest.raises(
                RuntimeError,
                match=r"waiting for pump replies, but no worker is running "
                r"\(stopped \[0, 1\], dead \[\]\)",
            ):
                farm.pump()
            assert time.monotonic() - t0 < 1.0  # one 0.05 s poll, not 120 s
        finally:
            farm.close()


    def test_stop_reply_read_by_the_liveness_check(self, net_config, monkeypatch):
        """Each worker's ``stopped`` reply is read only by the liveness
        check that finds the worker exited: the shutdown still ends
        cleanly instead of reporting that no worker is running."""
        farm = DecodeFarm(_specs(net_config, 2), farm=FarmConfig(n_workers=2))
        replies = farm._replies
        read = replies.get

        def blocked(timeout=0.0):
            if timeout:
                time.sleep(timeout)  # the harvest's own poll never sees a reply
                raise queue.Empty
            return read(0.0)

        monkeypatch.setattr(replies, "get", blocked)
        try:
            farm._shutdown_workers()
            assert farm._stopped_workers == {0, 1}
        finally:
            farm.close()


class TestDynamicMembership:
    def test_add_session_spreads_least_loaded(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 1), farm=cfg, backend="inline")
        try:
            assert farm.worker_of(0) == 0
            w1 = farm.add_session(SessionSpec(session_id=1, config=net_config))
            w2 = farm.add_session(SessionSpec(session_id=2, config=net_config))
            assert w1 == 1  # least-loaded
            assert w2 in (0, 1)
            with pytest.raises(ValueError, match="already live"):
                farm.add_session(SessionSpec(session_id=2, config=net_config))
        finally:
            farm.close()

    def test_finish_session_matches_sequential(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 2), farm=cfg, backend="inline")
        try:
            for piece in chunks:
                for sid in (0, 1):
                    farm.feed(sid, piece)
                farm.pump()
            farm.finish_session(0)
            assert 0 not in farm.session_ids
            assert farm.session_ids == [1]
            farm.finish_session(1)
            expected = run_sequential(net_config, chunks, 2)
            for sid in (0, 1):
                assert farm.frames[sid] == expected[sid][0]
                assert farm.session_stats[sid] == expected[sid][1]
            with pytest.raises(KeyError):
                farm.finish_session(0)
        finally:
            farm.close()

    def test_finish_session_process_backend(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 2), farm=cfg)
        try:
            for piece in chunks:
                for sid in (0, 1):
                    farm.feed(sid, piece)
                farm.pump()
            farm.finish_session(0)
            farm.finish_session(1)
            expected = run_sequential(net_config, chunks, 2)
            for sid in (0, 1):
                assert farm.frames[sid] == expected[sid][0]
                assert farm.session_stats[sid] == expected[sid][1]
        finally:
            farm.close()

    def test_slot_waits_counter_is_public(self, net_config, soak_capture):
        _, chunks, chunk_samples = soak_capture
        cfg = FarmConfig(n_workers=1, ring_slots=4, ring_slot_samples=chunk_samples)
        farm = DecodeFarm(_specs(net_config, 1), farm=cfg, backend="inline")
        try:
            assert farm.slot_waits == 0
        finally:
            farm.close()
