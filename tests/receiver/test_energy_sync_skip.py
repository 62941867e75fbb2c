"""The energy frame sync runs only when its verdict is used.

``process(..., skip_energy_gate=True)`` -- the streaming walk's call --
discards the energy detector's verdict, so the detector does not run:
``report.sync`` stays empty and the ``frame_sync`` span and counters are
absent.  A plain ``process()`` still gates on it.
"""

from functools import partial

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.obs import Tracer
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver
from repro.receiver.frame_sync import EnergyDetector
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag

SPC = 2


@pytest.fixture
def detect_calls(monkeypatch):
    """Records every ``EnergyDetector.detect`` call's buffer size."""
    calls = []
    original = EnergyDetector.detect

    def spy(self, x):
        calls.append(np.asarray(x).size)
        return original(self, x)

    monkeypatch.setattr(EnergyDetector, "detect", spy)
    return calls


def _buffer():
    codes = twonc_codes(2, 64)
    fmt = FrameFormat()
    tag = Tag(0, codes[0], fmt=fmt)
    sig = fractional_delay(ook_baseband(tag.chip_stream(b"sync me", SPC)), 256)
    rng = np.random.default_rng(3)
    sig = sig + 0.01 * (rng.normal(size=sig.size) + 1j * rng.normal(size=sig.size))
    return {i: codes[i] for i in range(2)}, fmt, sig


@pytest.mark.parametrize(
    "make_receiver", [CbmaReceiver, partial(CbmaReceiver, max_passes=3)], ids=["CbmaReceiver", "SicReceiver"]
)
class TestProcess:
    def test_skipped_gate_never_runs_the_detector(self, make_receiver, detect_calls):
        codes, fmt, buf = _buffer()
        tracer = Tracer()
        rx = make_receiver(codes, fmt=fmt, samples_per_chip=SPC, tracer=tracer)
        report = rx.process(buf, skip_energy_gate=True)
        assert detect_calls == []
        assert report.sync.detections == [] and not report.sync.detected
        assert report.decoded_payloads() == {0: b"sync me"}
        assert all(r.name != "frame_sync" for r in tracer.records)
        assert not any(name.startswith("frame_sync.") for name in tracer.counters)

    def test_plain_process_still_syncs(self, make_receiver, detect_calls):
        codes, fmt, buf = _buffer()
        tracer = Tracer()
        rx = make_receiver(codes, fmt=fmt, samples_per_chip=SPC, tracer=tracer)
        report = rx.process(buf)
        assert detect_calls == [buf.size]
        expected = EnergyDetector().detect(buf)
        assert expected.detected
        assert report.sync == expected
        assert any(r.name == "frame_sync" for r in tracer.records)
        assert report.decoded_payloads() == {0: b"sync me"}

    def test_plain_process_still_gates_on_silence(self, make_receiver, detect_calls):
        codes, fmt, _buf = _buffer()
        tracer = Tracer()
        rx = make_receiver(codes, fmt=fmt, samples_per_chip=SPC, tracer=tracer)
        report = rx.process(np.zeros(4096, dtype=complex))
        assert detect_calls == [4096]
        assert not report.sync.detected and report.detections == []
        assert tracer.counters.get("frame_sync.misses") == 1


def test_streaming_walk_never_runs_the_detector(detect_calls):
    cfg = SoakConfig(n_windows=12, n_tags=4, seed=11, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    frames = stream.process_stream(buffer)
    window = buffer[: stream.window_samples]
    _frames, report = stream.decode_window(window, 0)
    assert frames and report.detections
    assert detect_calls == []
    assert not report.sync.detected
