"""Unit tests for repro.receiver.streaming and repro.sim.unslotted."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.channel.noise import NoiseModel
from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver
from repro.receiver.streaming import StreamFrame, StreamingReceiver
from repro.sim.unslotted import UnslottedScenario, simulate_unslotted
from repro.tag import FrameFormat, Tag

SPC = 2


@pytest.fixture
def stack():
    codes = twonc_codes(2, 32)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(2)]
    rx = CbmaReceiver({i: codes[i] for i in range(2)}, fmt=fmt, samples_per_chip=SPC)
    stream = StreamingReceiver(rx, max_frame_bits=fmt.frame_bits(12))
    return codes, fmt, tags, rx, stream


def _place(tag, payload, start, total, amp=1.0):
    sig = ook_baseband(tag.chip_stream(payload, SPC), amplitude=amp)
    return fractional_delay(sig, start, total_length=total)


class TestStreamingReceiver:
    def test_validation(self, stack):
        codes, fmt, tags, rx, _ = stack
        with pytest.raises(ValueError):
            StreamingReceiver(rx, max_frame_bits=0)

    def test_every_frame_start_lies_in_a_window(self, stack):
        """A window is two hops and a hop one frame, so a frame starting
        anywhere lies wholly inside the window that starts in its hop --
        and is decoded, even when it starts in the last sample of a hop."""
        codes, fmt, tags, rx, stream = stack
        hop, fs = stream.hop_samples, stream.frame_samples
        assert stream.window_samples == 2 * hop and fs == hop
        total = 6 * hop
        starts = np.arange(total - fs + 1)
        positions = np.arange(0, total, hop)
        inside = (positions[None, :] <= starts[:, None]) & (
            starts[:, None] + fs <= positions[None, :] + stream.window_samples
        )
        assert inside.any(axis=1).all()
        rng = np.random.default_rng(4)
        for start in (hop - 1, hop + hop // 2, 2 * hop + 3 * hop // 4):
            buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
            buf = buf + _place(tags[0], b"late start", start, total)
            frames = stream.process_stream(buf)
            assert start in [f.start_sample for f in frames if f.payload == b"late start"]

    def test_two_sequential_frames_same_tag(self, stack):
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(0)
        frame_len = stream.hop_samples
        total = 5 * frame_len
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        buf = buf + _place(tags[0], b"frame no 1", 100, total)
        buf = buf + _place(tags[0], b"frame no 2", 100 + 2 * frame_len, total)
        frames = stream.process_stream(buf)
        payloads = [f.payload for f in frames if f.user_id == 0]
        assert b"frame no 1" in payloads
        assert b"frame no 2" in payloads

    def test_no_duplicate_decodes_across_windows(self, stack):
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(1)
        total = 4 * stream.hop_samples
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        # Frame near a window boundary: visible from two windows.
        buf = buf + _place(tags[0], b"boundaryfr", stream.hop_samples - 500, total)
        frames = stream.process_stream(buf)
        hits = [f for f in frames if f.payload == b"boundaryfr"]
        assert len(hits) == 1

    def test_frame_in_last_sample_of_hop_emitted_once(self, stack):
        # The window that owns the hop's last sample decodes it; the
        # next window may decode it again a few samples on, and drops
        # that decode as a repeat of the previous window's frame.
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(4)
        start, total = stream.hop_samples - 1, 6 * stream.hop_samples
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        buf = buf + _place(tags[0], b"late start", start, total)
        frames = stream.process_stream(buf)
        assert [f.start_sample for f in frames if f.payload == b"late start"] == [start]

    def test_partial_overlap_between_tags(self, stack):
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(2)
        total = 4 * stream.hop_samples
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        start0 = 200
        start1 = start0 + stream.hop_samples // 3  # ~1/3-frame overlap
        buf = buf + _place(tags[0], b"overlap t0", start0, total, amp=np.exp(0.5j))
        buf = buf + _place(tags[1], b"overlap t1", start1, total, amp=np.exp(2.5j))
        frames = stream.process_stream(buf)
        got = {(f.user_id, f.payload) for f in frames}
        assert (0, b"overlap t0") in got
        assert (1, b"overlap t1") in got

    def test_start_positions_roughly_correct(self, stack):
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(3)
        total = 3 * stream.hop_samples
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        buf = buf + _place(tags[1], b"where am i", 12345, total)
        frames = stream.process_stream(buf)
        hit = [f for f in frames if f.payload == b"where am i"][0]
        assert abs(hit.start_sample - 12345) < 8

    def test_empty_stream(self, stack):
        _, _, _, _, stream = stack
        assert stream.process_stream(np.zeros(100, dtype=complex)) == []

    def test_short_capture_tail_frame_decoded(self, stack):
        """A capture much shorter than one window still decodes its
        frame -- the old walk's end-of-buffer guard skipped it."""
        codes, fmt, tags, rx, stream = stack
        rng = np.random.default_rng(5)
        sig = ook_baseband(tags[0].chip_stream(b"hi", SPC))
        total = sig.size + 200
        assert total < stream.window_samples // 4
        buf = 1e-6 * (rng.normal(size=total) + 1j * rng.normal(size=total))
        buf = buf + _place(tags[0], b"hi", 100, total)
        frames = stream.process_stream(buf)
        assert any(f.user_id == 0 and f.payload == b"hi" for f in frames)


class TestRepeats:
    def test_repeat_within_tolerance_only(self, stack, monkeypatch):
        """A decode repeats one of the previous window's frames only
        with its user and payload and less than half a frame away."""
        codes, fmt, tags, rx, stream = stack
        half = stream.frame_samples // 2
        report = SimpleNamespace(
            frames=[
                SimpleNamespace(success=True, user_id=0, payload=b"a", offset=50),
                SimpleNamespace(success=True, user_id=1, payload=b"a", offset=20),
                SimpleNamespace(success=False, user_id=2, payload=None, offset=0),
            ]
        )
        monkeypatch.setattr(rx, "process", lambda *a, **k: report)
        pos = 10 * stream.hop_samples

        def kept(previous_start, user=0, payload=b"a"):
            previous = [StreamFrame(user, payload, previous_start)]
            frames, _report = stream.decode_window(np.zeros(4), pos, previous)
            return [(f.user_id, f.start_sample) for f in frames]

        assert kept(pos - 3) == [(1, pos + 20)]  # the same frame through the next window
        assert kept(pos + 50 - half + 1) == [(1, pos + 20)]
        assert kept(pos + 50 - half) == [(1, pos + 20), (0, pos + 50)]  # a new frame
        assert kept(pos - 3, payload=b"b") == [(1, pos + 20), (0, pos + 50)]
        assert kept(pos - 3, user=2) == [(1, pos + 20), (0, pos + 50)]

    def test_long_stream_memory_stays_flat(self, stack, monkeypatch):
        """1000 frames through the walk: each window is checked against
        the previous window's frames only, however long the stream."""
        codes, fmt, tags, rx, _ = stack
        stream = StreamingReceiver(rx, max_frame_bits=4)
        seen = []

        def fake_decode(window, pos, previous, corr=None):
            seen.append(len(previous))
            payload = len(seen).to_bytes(4, "big")
            return [StreamFrame(user_id=0, payload=payload, start_sample=pos)], None

        monkeypatch.setattr(stream, "window_is_live", lambda window, planes=None, pos=None, pieces=None: True)
        monkeypatch.setattr(stream, "decode_window", fake_decode)
        frames = stream.process_stream(
            np.zeros(1000 * stream.hop_samples, dtype=complex)
        )
        assert len(frames) == 1000
        assert seen == [0] + [1] * 999


class TestUnslotted:
    def _scenario(self, tags, amp, rate, duration_s=0.3, noise=None):
        return UnslottedScenario(
            tags=tags,
            amplitudes=[amp] * len(tags),
            rate_hz=rate,
            duration_s=duration_s,
            noise=noise or NoiseModel(),
        )

    def test_validation(self, stack):
        codes, fmt, tags, rx, stream = stack
        with pytest.raises(ValueError):
            UnslottedScenario(tags=tags, amplitudes=[1.0], rate_hz=1.0, duration_s=1.0)
        with pytest.raises(ValueError):
            UnslottedScenario(tags=tags, amplitudes=[1, 1], rate_hz=-1.0, duration_s=1.0)

    def test_zero_rate_nothing_offered(self, stack):
        codes, fmt, tags, rx, stream = stack
        noise = NoiseModel()
        scn = self._scenario(tags, 1e-6, 0.0, noise=noise)
        result = simulate_unslotted(scn, stream, np.random.default_rng(0))
        assert result.offered == 0
        assert result.delivery_ratio == 1.0

    def test_light_load_delivers(self, stack):
        codes, fmt, tags, rx, stream = stack
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (10 / 10)) / 0.432
        scn = self._scenario(tags, amp, rate=8.0, duration_s=0.4, noise=noise)
        result = simulate_unslotted(scn, stream, np.random.default_rng(1))
        assert result.offered >= 2
        assert result.delivery_ratio > 0.6

    def test_accounting_consistent(self, stack):
        codes, fmt, tags, rx, stream = stack
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (10 / 10)) / 0.432
        scn = self._scenario(tags, amp, rate=15.0, duration_s=0.4, noise=noise)
        result = simulate_unslotted(scn, stream, np.random.default_rng(2))
        assert result.delivered <= result.offered
        assert sum(result.per_tag_offered.values()) == result.offered
        assert sum(result.per_tag_delivered.values()) == result.delivered
