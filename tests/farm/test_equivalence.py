"""The farm's core contract: byte-identical to the sequential run.

Every test compares a :class:`DecodeFarm` against the oracle in
``conftest.run_sequential`` -- the same chunks through a plain
:class:`SessionSupervisor`.  Frames (``StreamFrame`` streams in
emission order) and final stats dicts must be *equal*, not similar:
the farm is a scheduler, never a decoder variant.
"""

import numpy as np
import pytest

from repro.farm import DecodeFarm, FarmConfig
from tests.farm.conftest import run_farm, run_sequential

N_SESSIONS = 3


@pytest.fixture(scope="module")
def oracle(net_config, soak_capture):
    _buffer, chunks, _chunk = soak_capture
    out = run_sequential(net_config, chunks, N_SESSIONS)
    # The stimulus must actually decode something or equality is vacuous.
    assert any(frames for frames, _stats in out.values())
    return out


def make_farm(net_config, chunk, n_workers, backend):
    return DecodeFarm.from_config(
        net_config,
        n_sessions=N_SESSIONS,
        farm=FarmConfig(n_workers=n_workers, ring_slot_samples=chunk),
        backend=backend,
    )


class TestInlineBackend:
    def test_matches_sequential(self, net_config, soak_capture, oracle):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=2, backend="inline")
        assert run_farm(farm, chunks) == oracle

    def test_batched_gate_engages(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=1, backend="inline")
        run_farm(farm, chunks)
        # All sessions share one config (one memoised bank) on one
        # worker, so the stacked gate must have fired.
        assert farm.batched_windows > 0


class TestProcessBackend:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_sequential(
        self, net_config, soak_capture, oracle, n_workers
    ):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=n_workers, backend="process")
        assert run_farm(farm, chunks) == oracle

    def test_worker_utilization_reported(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=2, backend="process")
        run_farm(farm, chunks)
        assert set(farm.worker_utilization) == {0, 1}
        assert all(0.0 <= u <= 1.0 for u in farm.worker_utilization.values())


class TestBackendsAgree:
    def test_nan_chunks_split_across_slots_through_a_migration(self, net_config, soak_capture):
        """Each chunk spans two ring slots and every other one carries a
        NaN in each half, so ``session.quarantined`` counts the pieces
        each transport ingests; session 1 is drained and restored on
        the other worker halfway through."""
        buffer, _chunks, chunk = soak_capture
        slot = chunk // 2
        dirty = buffer.copy()
        for lo in range(0, dirty.size, 2 * chunk):
            dirty[lo + 7 : lo + chunk : slot] = np.nan

        def run(backend):
            farm = DecodeFarm.from_config(
                net_config, n_sessions=2,
                farm=FarmConfig(n_workers=2, ring_slot_samples=slot), backend=backend,
            )
            try:
                starts = range(0, dirty.size, chunk)
                for lo in starts:
                    if lo == starts[len(starts) // 2]:
                        records = farm.drain(1)
                        farm.restore(1, records, worker=0)
                        state = next(r for r in records if r["type"] == "state")
                        farm.feed(1, dirty[state["pos"] : state["samples_fed"]])
                    for sid in farm.session_ids:
                        farm.feed(sid, dirty[lo : lo + chunk])
                    farm.pump()
                farm.finish()
            finally:
                farm.close()
            return farm.frames, farm.session_stats, farm.session_health

        inline = run("inline")
        assert any(inline[0].values())
        assert all(stats["quarantined"] > 0 for stats in inline[1].values())
        assert inline == run("process")


class TestMigration:
    def test_mid_run_migrate_is_bit_identical(
        self, net_config, soak_capture, oracle
    ):
        buffer, chunks, chunk = soak_capture
        half = len(chunks) // 2
        farm = make_farm(net_config, chunk, n_workers=2, backend="process")
        try:
            for piece in chunks[:half]:
                for sid in farm.session_ids:
                    farm.feed(sid, piece)
                farm.pump()

            moved = 1
            assert farm.worker_of(moved) == 1
            records = farm.migrate(moved, worker=0)
            assert farm.worker_of(moved) == 0
            # Buffered-but-unprocessed samples are not in the records:
            # re-feed the gap [position, samples_fed) like any restore.
            state = next(r for r in records if r["type"] == "state")
            gap = buffer[state["pos"] : state["samples_fed"]]
            if gap.size:
                farm.feed(moved, gap)

            for piece in chunks[half:]:
                for sid in farm.session_ids:
                    farm.feed(sid, piece)
                farm.pump()
            farm.finish()
            got = {
                sid: (farm.frames[sid], farm.session_stats[sid])
                for sid in farm.frames
            }
        finally:
            farm.close()
        assert got == oracle

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_session_migrated_twice_is_bit_identical(
        self, net_config, soak_capture, oracle, n_workers
    ):
        """Each restore re-feeds ``[position, samples_fed)``; the second
        checkpoint must not count the first re-feed again."""
        buffer, chunks, chunk = soak_capture
        moves = {len(chunks) // 3, 2 * len(chunks) // 3}
        moved = 1
        farm = make_farm(net_config, chunk, n_workers=n_workers, backend="process")
        try:
            for k, piece in enumerate(chunks):
                if k in moves:
                    target = (farm.worker_of(moved) + 1) % n_workers
                    records = farm.migrate(moved, worker=target)
                    assert farm.worker_of(moved) == target
                    state = next(r for r in records if r["type"] == "state")
                    assert state["samples_fed"] == k * chunk
                    gap = buffer[state["pos"] : state["samples_fed"]]
                    if gap.size:
                        farm.feed(moved, gap)
                for sid in farm.session_ids:
                    farm.feed(sid, piece)
                farm.pump()
            farm.finish()
            got = {
                sid: (farm.frames[sid], farm.session_stats[sid])
                for sid in farm.frames
            }
        finally:
            farm.close()
        assert got == oracle

    def test_drain_removes_session(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=2, backend="inline")
        try:
            farm.feed(0, chunks[0])
            farm.pump()
            records = farm.drain(0)
            assert farm.session_ids == [1, 2]
            assert records[0]["type"] == "header"
            with pytest.raises(KeyError):
                farm.feed(0, chunks[0])
            farm.restore(0, records)
            assert farm.session_ids == [0, 1, 2]
        finally:
            farm.close()

    def test_restore_rejects_live_session(self, net_config, soak_capture):
        _buffer, _chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=2, backend="inline")
        try:
            records = farm.drain(2)
            farm.restore(2, records)
            with pytest.raises(ValueError, match="already live"):
                farm.restore(2, records)
        finally:
            farm.close()


class TestLifecycle:
    def test_closed_farm_refuses_work(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=1, backend="inline")
        farm.close()
        with pytest.raises(RuntimeError, match="closed"):
            farm.feed(0, chunks[0])

    def test_context_manager_closes(self, net_config, soak_capture):
        _buffer, _chunks, chunk = soak_capture
        with make_farm(net_config, chunk, n_workers=1, backend="inline") as farm:
            pass
        assert farm._closed

    def test_feed_rejects_2d(self, net_config, soak_capture):
        import numpy as np

        _buffer, _chunks, chunk = soak_capture
        farm = make_farm(net_config, chunk, n_workers=1, backend="inline")
        try:
            with pytest.raises(ValueError, match="1-D"):
                farm.feed(0, np.zeros((2, 4)))
        finally:
            farm.close()
