"""One window owns each frame.

A streaming window is two hops long and advances one; it owns its
first hop.  ``StreamingReceiver.decode_window`` hands the receiver that
owned span, so only candidates starting there are ranked and tried,
whatever receiver does the decoding.  A session in RESYNC decodes its
window the same way, and probes a widened window separately for its
health machine only.
"""

from functools import partial

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.faults.models import OscillatorDrift
from repro.faults.plan import FaultPlan
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver, PhaseTrackingReceiver
from repro.receiver.session import SessionSupervisor
from repro.receiver.streaming import StreamingReceiver
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.tag import FrameFormat, Tag


@pytest.mark.parametrize(
    "make_receiver",
    [CbmaReceiver, partial(CbmaReceiver, max_passes=3), PhaseTrackingReceiver],
    ids=["CbmaReceiver", "SicReceiver", "PhaseTrackingReceiver"],
)
def test_every_receiver_tries_only_owned_candidates(make_receiver):
    """A frame shorter than a hop that starts in the window's second
    hop decodes over the whole window, but not over its owned span:
    the next window owns it."""
    codes = twonc_codes(2, 32)
    fmt = FrameFormat()
    tag = Tag(0, codes[0], fmt=fmt)
    rx = make_receiver({i: codes[i] for i in range(2)}, fmt=fmt)
    stream = StreamingReceiver(rx, max_frame_bits=fmt.frame_bits(12))
    hop = stream.hop_samples
    rng = np.random.default_rng(3)
    total = 3 * hop
    buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
    signal = ook_baseband(tag.chip_stream(b"next"))
    buf = buf + fractional_delay(signal, hop + 300, total_length=total)

    whole = rx.process(buf[: 2 * hop], skip_energy_gate=True)
    assert [(f.user_id, f.payload) for f in whole.frames if f.success] == [(0, b"next")]
    frames, report = stream.decode_window(buf[: 2 * hop], 0)
    assert frames == []
    assert all(k < hop for d in report.detections for k, _s, _h in d.candidates)
    frames, _report = stream.decode_window(buf[hop:], hop)
    assert [(f.user_id, f.payload, f.start_sample) for f in frames] == [(0, b"next", hop + 300)]


@pytest.fixture()
def drift_session(monkeypatch):
    """The drift capture of the session checkpoint golden, fed to a
    session in three-hop chunks, with every owned decode and every
    RESYNC probe recorded."""
    decodes, probes = [], []
    decode, probe = StreamingReceiver.decode_window, StreamingReceiver.probe_window

    def recorded_decode(self, window, pos, previous=(), corr=None):
        frames, report = decode(self, window, pos, previous, corr=corr)
        decodes.append((pos, frames))
        return frames, report

    def recorded_probe(self, window, pos, pieces):
        report = probe(self, window, pos, pieces)
        probes.append((pos, window.size, report))
        return report

    monkeypatch.setattr(StreamingReceiver, "decode_window", recorded_decode)
    monkeypatch.setattr(StreamingReceiver, "probe_window", recorded_probe)
    plan = FaultPlan(
        [OscillatorDrift(probability=1.0, drift_ppm=4000.0, start_round=10, end_round=14)],
        seed=5,
    )
    cfg = SoakConfig(n_windows=40, n_tags=4, seed=31, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, plan, stream, tags)
    session = SessionSupervisor(stream, clock=lambda: 0.0)
    chunk = cfg.chunk_hops * stream.hop_samples
    frames = []
    for lo in range(0, buffer.size, chunk):
        frames += session.feed(buffer[lo : lo + chunk])
    frames += session.finish()
    return stream.hop_samples, session, frames, decodes, probes


def test_resync_window_emits_only_first_hop_frames(drift_session):
    hop, session, frames, decodes, probes = drift_session
    resync = [pos for pos, _size, _report in probes]
    assert resync == [12 * hop, 13 * hop]
    assert all(size == 4 * hop for _pos, size, _report in probes)
    assert set(resync) <= {pos for pos, _window_frames in decodes}
    for pos, window_frames in decodes:
        assert all(pos <= f.start_sample < pos + hop for f in window_frames)
    # The probe that ends RESYNC decodes frames past its window's first
    # hop; the window that owns them emits them.
    late = [
        (f.user_id, f.payload, 13 * hop + f.offset)
        for f in probes[1][2].frames
        if f.success and f.offset >= hop
    ]
    assert late
    assert set(late) <= {(f.user_id, f.payload, f.start_sample) for f in frames}


def test_drift_health_history_is_unchanged_by_ownership(drift_session):
    """The RESYNC probe judges health exactly as the widened window
    did before windows owned their frames: one resync, then healthy."""
    _hop, session, _frames, _decodes, _probes = drift_session
    assert session.health_history == [(0, "healthy"), (12, "resync"), (14, "healthy")]
