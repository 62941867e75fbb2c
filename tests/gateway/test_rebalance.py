"""Drain, rebalance and drain again: migration never changes frames.

Four streams decode one real capture on a two-worker inline gateway.
Every step ends by moving sessions from the busiest live worker to the
idlest until their loads differ by at most one, so a drained worker
gets sessions back on the next step, and a later drain moves sessions
that have already moved.  Each run must deliver exactly the frames and
stats of an undisturbed run.
"""

import pytest

from repro.farm.config import FarmConfig
from repro.gateway import Gateway, GatewayConfig
from repro.sim.experiments.soak import (
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    soak_phy_config,
)

from tests.gateway.conftest import VirtualClock, drive

N_STREAMS = 4
CAPTURE = SoakConfig(n_windows=30, n_tags=4, seed=11, traffic_rate=0.3)


@pytest.fixture(scope="module")
def capture():
    """``(chunks, chunk_samples)`` of one deterministic capture."""
    tags, stream = build_soak_stack(CAPTURE)
    buffer, _offered = build_soak_stream(CAPTURE, None, stream, tags)
    chunk = 3 * stream.hop_samples
    return [buffer[lo : lo + chunk] for lo in range(0, buffer.size, chunk)], chunk


def run(capture, after_step=None):
    """Feed every chunk to every stream, one step per chunk, awaiting
    ``after_step(round, gateway)`` after each step; returns each
    stream's ``(frames, stats)`` and the gateway's migration count."""
    chunks, chunk = capture

    async def body():
        clock = VirtualClock()
        gw = Gateway.from_config(
            soak_phy_config(CAPTURE),
            gateway=GatewayConfig(
                token_rate=1e6,
                token_burst=1e6,
                max_intake_chunks=8,
                queue_high=64,
                queue_low=1,
                max_retries=0,
            ),
            farm=FarmConfig(n_workers=2, ring_slot_samples=chunk),
            backend="inline",
            clock=clock,
            sleep=clock.sleep,
        )
        with gw:
            sids = [await gw.open_stream() for _ in range(N_STREAMS)]
            for r, piece in enumerate(chunks):
                for sid in sids:
                    assert await gw.submit(sid, piece)
                await gw.step()
                if after_step is not None:
                    await after_step(r, gw)
                clock.advance(0.1)
            reports = [await gw.close_stream(sid) for sid in sids]
            return {rep.stream_id: (rep.frames, rep.stats) for rep in reports}, gw.migrations

    return drive(body())


@pytest.fixture(scope="module")
def undisturbed(capture):
    out, migrations = run(capture)
    assert migrations == 0  # streams open balanced: nothing to move
    assert any(frames for frames, _stats in out.values())
    return out


def test_rebalance_after_drain_evens_loads(capture, undisturbed):
    loads_after = []

    async def after_step(r, gw):
        if r == 3:
            moved = await gw.drain_worker(0)
            assert moved == [0, 2]
            assert gw.farm.worker_loads == {0: 0, 1: N_STREAMS}
        elif r == 4:
            loads_after.append(gw.farm.worker_loads)

    out, migrations = run(capture, after_step)
    (loads,) = loads_after
    assert max(loads.values()) - min(loads.values()) <= 1
    assert migrations == 4  # two drained off worker 0, two moved back
    assert out == undisturbed


def test_double_drain_is_bit_identical(capture, undisturbed):
    """Sessions moved by the first drain and the rebalance move again:
    each restore re-feeds its gap without counting it a second time."""

    async def after_step(r, gw):
        if r == 3:
            await gw.drain_worker(0)
        elif r == 7:
            await gw.drain_worker(1)

    out, migrations = run(capture, after_step)
    assert migrations == 8
    assert out == undisturbed
