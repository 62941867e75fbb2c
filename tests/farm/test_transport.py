"""The farm's messages: one each way per worker per cycle.

Both transports carry the same commands and replies.  Feeds send no
message of their own.  Each command to a worker carries
the ring slots written for it since its previous command, and the
command's reply returns those slots in bulk.  A full shared-memory
ring grows instead of sending anything, so however many chunks a
worker is fed between two commands, the next command carries them all;
the inline transport's ring is never full.
"""

from collections import defaultdict

import pytest

from repro.farm import DecodeFarm, FarmConfig


@pytest.fixture()
def traffic():
    """Record every command put on a farm's queues and every reply it
    dispatches, per worker: ``(op, feeds)`` and ``(tag, freed slots)``."""

    def watch(farm):
        sent, received = defaultdict(list), defaultdict(list)
        for w, cmd_q in enumerate(farm._cmd_queues):
            def put(cmd, _put=cmd_q.put, _w=w):
                sent[_w].append((cmd[0], len(cmd[1])))
                _put(cmd)

            cmd_q.put = put
        dispatch = farm._dispatch

        def record(msg):
            received[msg[0]].append((msg[1], len(msg[2])))
            dispatch(msg)

        farm._dispatch = record
        return sent, received

    return watch


@pytest.mark.parametrize("backend", ["process", "inline"])
def test_one_command_and_one_reply_per_worker_per_cycle(
    net_config, soak_capture, traffic, backend
):
    _, chunks, chunk = soak_capture
    farm = DecodeFarm.from_config(
        net_config,
        n_sessions=4,
        farm=FarmConfig(n_workers=2, ring_slot_samples=chunk),
        backend=backend,
    )
    try:
        for sid in farm.session_ids:
            farm.feed(sid, chunks[0])
        farm.pump()
        sent, received = traffic(farm)
        for sid in farm.session_ids:  # two sessions, so two feeds, per worker
            farm.feed(sid, chunks[1])
        assert not sent and not received  # feeds only queue
        farm.pump()
        assert dict(sent) == {0: [("pump", 2)], 1: [("pump", 2)]}
        assert dict(received) == {0: [("pumped", 2)], 1: [("pumped", 2)]}
        assert farm.slot_waits == 0
        farm.finish()
    finally:
        farm.close()


def test_full_ring_grows_and_one_pump_carries_every_feed(
    net_config, soak_capture, traffic
):
    _, chunks, chunk = soak_capture
    farm = DecodeFarm.from_config(
        net_config,
        n_sessions=1,
        farm=FarmConfig(n_workers=1, ring_slots=2, ring_slot_samples=chunk),
    )
    try:
        sent, received = traffic(farm)
        for piece in chunks[:5]:
            farm.feed(0, piece)
        assert not sent and not received  # growing the ring sends nothing
        farm.pump()
        assert sent[0] == [("pump", 5)]
        assert received[0] == [("pumped", 5)]
        assert farm.slot_waits == 2  # 2 -> 4 -> 6 slots
        assert farm._rings[0].capacity == 6
        farm.finish()
    finally:
        farm.close()


def test_grown_rings_through_a_migration_match_inline(net_config, soak_capture):
    """Three chunks per session between pumps overfill every 2-slot
    ring, and session 1 moves to the other worker halfway: the process
    farm's frames, stats and health equal the inline farm's."""
    buffer, chunks, chunk = soak_capture
    per_pump = 3

    def run(backend):
        farm = DecodeFarm.from_config(
            net_config, n_sessions=4,
            farm=FarmConfig(n_workers=2, ring_slots=2, ring_slot_samples=chunk),
            backend=backend,
        )
        try:
            starts = range(0, len(chunks), per_pump)
            for k in starts:
                if k == starts[len(starts) // 2]:
                    records = farm.migrate(1, worker=1 - farm.worker_of(1))
                    state = next(r for r in records if r["type"] == "state")
                    farm.feed(1, buffer[state["pos"] : state["samples_fed"]])
                for sid in farm.session_ids:
                    for piece in chunks[k : k + per_pump]:
                        farm.feed(sid, piece)
                farm.pump()
            grown = farm.slot_waits
            farm.finish()
        finally:
            farm.close()
        return (farm.frames, farm.session_stats, farm.session_health), grown

    inline, _ = run("inline")
    assert any(inline[0].values())
    process, grown = run("process")
    assert grown > 0
    assert process == inline
