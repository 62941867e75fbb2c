"""Every entry layer emits the same frames from the same samples.

One window owns each frame: its detector ranks, and its decoder
tries, only candidates in its first hop, so the frames a window emits
depend only on the samples at fixed absolute positions and on the
previous window's frames.  This test feeds three captures -- dense,
sparse, and one whose oscillator drift drives a session into RESYNC
-- through the batch walk, a supervised session at two chunk cadences
with a checkpoint and restore onto a fresh stack mid-stream, and an
inline two-worker farm that migrates every session mid-stream.  Each
must emit the same ``(user, payload, start_sample)`` list, in
start order.

The drift capture (soak seed 32) is one on which the layers disagreed
before windows owned their frames: a RESYNC window searched a widened
window, ranked the collision differently from the batch walk and kept
another claimant.
"""

import pytest

from repro.faults.models import OscillatorDrift
from repro.faults.plan import FaultPlan
from repro.farm import DecodeFarm, FarmConfig
from repro.receiver.session import HealthState, SessionSupervisor
from repro.sim.experiments.soak import (
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    soak_phy_config,
)

DRIFT = FaultPlan(
    [OscillatorDrift(probability=1.0, drift_ppm=4000.0, start_round=10, end_round=14)],
    seed=5,
)

CAPTURES = {
    "dense": (SoakConfig(n_windows=40, n_tags=4, seed=31, traffic_rate=0.3), None),
    "sparse": (SoakConfig(n_windows=120, n_tags=4, seed=31, traffic_rate=0.02), None),
    "drift": (SoakConfig(n_windows=40, n_tags=4, seed=32, traffic_rate=0.3), DRIFT),
}


def _key(frames):
    return [(f.user_id, f.payload, f.start_sample) for f in frames]


@pytest.fixture(scope="module", params=sorted(CAPTURES))
def capture(request):
    cfg, plan = CAPTURES[request.param]
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, plan, stream, tags)
    return request.param, cfg, stream, buffer


def _session(cfg, buffer, chunk, path):
    """Feed *buffer* in *chunk*-sample pieces, checkpoint halfway,
    restore onto a fresh stack and resume from the checkpoint."""
    _tags, stream = build_soak_stack(cfg)
    session = SessionSupervisor(stream)
    cut = buffer.size // 2
    frames = []
    for lo in range(0, cut, chunk):
        frames += session.feed(buffer[lo : min(lo + chunk, cut)])
    session.checkpoint(path)
    _tags, fresh = build_soak_stack(cfg)
    session = SessionSupervisor.restore(path, fresh)
    for lo in range(session.position, buffer.size, chunk):
        frames += session.feed(buffer[lo : lo + chunk])
    return frames + session.finish(), session


def _farm(cfg, buffer, chunk):
    """Two copies of the stream on an inline two-worker farm; each
    session migrates to the other worker a third of the way in."""
    farm = DecodeFarm.from_config(
        soak_phy_config(cfg),
        n_sessions=2,
        farm=FarmConfig(n_workers=2, ring_slot_samples=chunk),
        backend="inline",
    )
    try:
        fed = {sid: 0 for sid in farm.session_ids}
        rounds = 0
        while any(at < buffer.size for at in fed.values()):
            for sid, at in fed.items():
                farm.feed(sid, buffer[at : at + chunk])
                fed[sid] = min(at + chunk, buffer.size)
            farm.pump()
            rounds += 1
            if rounds * chunk >= buffer.size // 3 > (rounds - 1) * chunk:
                for sid in farm.session_ids:
                    records = farm.migrate(sid, worker=1 - farm.worker_of(sid))
                    fed[sid] = next(r for r in records if r["type"] == "state")["pos"]
        farm.finish()
        return [list(farm.frames[sid]) for sid in sorted(farm.frames)]
    finally:
        farm.close()


def test_every_layer_emits_the_batch_frames(capture, tmp_path):
    name, cfg, stream, buffer = capture
    batch = _key(stream.process_stream(buffer))
    assert batch
    starts = [start for _user, _payload, start in batch]
    assert starts == sorted(starts)
    hop = stream.hop_samples
    for k, chunk in enumerate((3 * hop, 7 * hop + 13)):
        frames, session = _session(cfg, buffer, chunk, tmp_path / f"session{k}.jsonl")
        assert _key(frames) == batch, f"session fed {chunk}-sample chunks"
        if name == "drift":
            assert session.stats["resyncs"] >= 1
            assert session.state is not HealthState.FAILED
    for sid, frames in enumerate(_farm(cfg, buffer, 3 * hop)):
        assert _key(frames) == batch, f"farm session {sid}"

