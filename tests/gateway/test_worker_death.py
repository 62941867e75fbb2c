"""A real worker death under the gateway.

One worker of a two-worker process-backend gateway is SIGKILLed in the
middle of a feed.  The next dispatch cycle must surface the death as
:class:`~repro.farm.WorkerCrash` naming the dead worker's streams
within a few liveness polls -- not hang -- and closing the gateway
must leave no worker process and no shared-memory ring behind.  The
surviving streams keep decoding, and every stream's ledger still
balances: admitted == fed + shed.
"""

import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.farm.worker as worker_mod
from repro.farm import FarmConfig, WorkerCrash
from repro.gateway import Gateway, GatewayConfig

from tests.gateway.conftest import drive

CHUNK = 256
POLL_S = 0.05


@pytest.fixture(autouse=True)
def fast_poll(monkeypatch):
    """Re-check worker liveness every 50 ms so the test stays quick."""
    monkeypatch.setattr(worker_mod, "_POLL_S", POLL_S)


def _chunk(rng):
    return (rng.standard_normal(CHUNK) + 1j * rng.standard_normal(CHUNK)) * 1e-3


def test_sigkilled_worker_surfaces_as_crash_and_leaves_nothing(phy_config):
    rng = np.random.default_rng(3)
    gw = Gateway(
        phy_config,
        gateway=GatewayConfig(token_rate=1e6, token_burst=1e6, max_intake_chunks=64),
        farm=FarmConfig(n_workers=2, ring_slots=4, ring_slot_samples=CHUNK),
        backend="process",
    )
    try:

        async def before_kill():
            sids = [await gw.open_stream() for _ in range(4)]
            for _ in range(2):
                for sid in sids:
                    assert await gw.submit(sid, _chunk(rng))
                await gw.step()
            return sids

        sids = drive(before_kill())
        farm = gw.farm
        procs = list(farm._procs)
        rings = [ring.name for ring in farm._rings]
        victim = farm.worker_of(sids[0])
        doomed = sorted(sid for sid in sids if farm.worker_of(sid) == victim)
        assert doomed and len(doomed) < len(sids)

        async def feed_then_kill():
            for sid in sids:
                assert await gw.submit(sid, _chunk(rng))
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].join(timeout=5.0)
            t0 = time.monotonic()
            with pytest.raises(WorkerCrash) as exc:
                await gw.step()
            return exc.value, time.monotonic() - t0

        crash, elapsed = drive(feed_then_kill())
        assert crash.worker == victim
        assert crash.sessions == doomed
        assert crash.exitcode == -signal.SIGKILL
        assert elapsed < 20 * POLL_S, f"crash surfaced after {elapsed:.2f}s"
        assert farm.live_workers == [1 - victim]

        async def after_crash():
            for sid in sids:
                admitted = await gw.submit(sid, _chunk(rng))
                assert admitted == (sid not in doomed)
            assert await gw.step() == len(sids) - len(doomed)
            return [await gw.close_stream(sid) for sid in sids]

        for report in drive(after_crash()):
            assert report.admitted == report.fed + report.shed
            assert bool(report.stats) == (report.stream_id not in doomed)
    finally:
        gw.close()

    assert not any(proc.is_alive() for proc in procs)
    live_pids = {child.pid for child in multiprocessing.active_children()}
    assert not live_pids & {proc.pid for proc in procs}
    for name in rings:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
