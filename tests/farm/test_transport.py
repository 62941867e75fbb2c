"""The farm's messages: one each way per worker per cycle.

Both transports carry the same commands and replies.  Feeds send no
message of their own.  Each command to a worker carries
the ring slots written for it since its previous command, and the
command's reply returns those slots in bulk.  Only a full
shared-memory ring sends its queued feeds alone, and one ``free`` reply
brings all of their slots back; the inline transport's ring is never
full.
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


def test_full_ring_sends_its_feeds_alone_and_frees_them_in_bulk(
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
        farm.pump()
        assert sent[0] == [("ingest", 2), ("ingest", 2), ("pump", 1)]
        assert received[0] == [("free", 2), ("free", 2), ("pumped", 1)]
        assert farm.slot_waits == 2
        farm.finish()
    finally:
        farm.close()
