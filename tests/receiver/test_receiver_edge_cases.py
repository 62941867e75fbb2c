"""Edge-case tests for the receiver stack (beyond the happy paths)."""

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver
from repro.receiver.frame_sync import EnergyDetector
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag


def _signal(tag, payload, amp, offset, spc, total=None, noise=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    sig = ook_baseband(tag.chip_stream(payload, spc), amplitude=amp)
    sig = fractional_delay(sig, offset, total_length=total)
    return sig + noise * (rng.normal(size=sig.size) + 1j * rng.normal(size=sig.size))


class TestReceiverEdgeCases:
    def setup_method(self):
        self.spc = 2
        self.codes = twonc_codes(2, 32)
        self.fmt = FrameFormat()
        self.tags = [Tag(i, self.codes[i], fmt=self.fmt) for i in range(2)]
        self.rx = CbmaReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=self.spc
        )

    def test_empty_buffer(self):
        report = self.rx.process(np.zeros(0, dtype=complex))
        assert not report.sync.detected
        assert report.frames == []

    def test_buffer_shorter_than_template(self):
        report = self.rx.process(np.ones(10, dtype=complex), skip_energy_gate=True)
        assert report.frames == []

    def test_empty_payload_frame(self):
        buf = _signal(self.tags[0], b"", 1.0, 128, self.spc)
        report = self.rx.process(buf)
        assert report.decoded_payloads() == {0: b""}

    def test_max_payload_frame(self):
        payload = bytes(range(126))
        buf = _signal(self.tags[0], payload, 1.0, 128, self.spc)
        report = self.rx.process(buf)
        assert report.decoded_payloads().get(0) == payload

    def test_frame_at_buffer_start_without_lead_in(self):
        """No lead-in: energy sync may fire late, but with the gate
        skipped the user detector must still find the frame."""
        buf = _signal(self.tags[0], b"no lead in", 1.0, 0, self.spc)
        report = self.rx.process(buf, skip_energy_gate=True)
        assert report.decoded_payloads().get(0) == b"no lead in"

    def test_frame_truncated_at_buffer_end(self):
        full = _signal(self.tags[0], b"gets cut off...", 1.0, 128, self.spc)
        report = self.rx.process(full[: full.size // 2])
        frame = report.frame_for(0)
        assert frame is None or not frame.success

    def test_back_to_back_frames_same_tag(self):
        """Two consecutive frames from one tag: at least one decodes
        (the pipeline is per-buffer, not streaming)."""
        a = _signal(self.tags[0], b"first frame!", 1.0, 128, self.spc)
        b = _signal(self.tags[0], b"second frame", 1.0, a.size + 32, self.spc,
                    total=a.size + 32 + a.size)
        buf = np.zeros(b.size, dtype=complex)
        buf[: a.size] += a
        buf += b
        report = self.rx.process(buf)
        decoded = report.decoded_payloads().get(0)
        assert decoded in (b"first frame!", b"second frame")

    def test_round_index_propagates_to_ack(self):
        buf = _signal(self.tags[0], b"abc", 1.0, 128, self.spc)
        report = self.rx.process(buf, round_index=17)
        assert report.ack.round_index == 17

    def test_unknown_code_never_reported(self):
        """A tag whose code the receiver does not know is invisible."""
        foreign = Tag(9, twonc_codes(3, 32)[2], fmt=self.fmt)
        buf = _signal(foreign, b"stranger", 1.0, 128, self.spc)
        report = self.rx.process(buf)
        assert all(f.user_id in (0, 1) for f in report.frames)
        assert 9 not in report.decoded_payloads()


class TestEnergyDetectorKnobs:
    def test_warmup_suppresses_early(self):
        rng = np.random.default_rng(0)
        x = 0.01 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
        x[5:50] += 1.0  # burst before warmup completes
        det = EnergyDetector(warmup_samples=200)
        assert all(d >= 200 for d in det.detect(x).detections)

    def test_zero_guard_allows_adjacent(self):
        rng = np.random.default_rng(1)
        x = 0.01 * (rng.normal(size=4000) + 1j * rng.normal(size=4000))
        x[1000:1400] += 1.0
        many = EnergyDetector(guard_samples=1).detect(x).detections
        few = EnergyDetector(guard_samples=2000).detect(x).detections
        assert len(many) >= len(few)


class TestSicEdgeCases:
    def test_max_passes_one_degenerates_gracefully(self):
        codes = twonc_codes(2, 32)
        fmt = FrameFormat()
        tag = Tag(0, codes[0], fmt=fmt)
        rx = CbmaReceiver({i: codes[i] for i in range(2)}, fmt=fmt,
                          samples_per_chip=2, max_passes=1)
        buf = _signal(tag, b"single pass", 1.0, 128, 2)
        assert rx.process(buf).decoded_payloads() == {0: b"single pass"}

    def test_empty_buffer(self):
        codes = twonc_codes(1, 32)
        rx = CbmaReceiver({0: codes[0]}, samples_per_chip=2, max_passes=3)
        report = rx.process(np.zeros(0, dtype=complex))
        assert report.frames == []


class TestDegenerateInputs:
    """Satellite: hostile buffers must degrade into DecodeFailure records,
    never escape as exceptions."""

    def setup_method(self):
        self.codes = twonc_codes(2, 32)
        self.fmt = FrameFormat()
        self.rx = CbmaReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=2
        )

    def test_zero_length_buffer_reports_cleanly(self):
        report = self.rx.process(np.zeros(0, dtype=complex))
        assert report.frames == []
        assert report.decoded_payloads() == {}

    def test_all_zero_samples(self):
        report = self.rx.process(np.zeros(20_000, dtype=complex))
        assert report.decoded_payloads() == {}

    def test_frame_shorter_than_one_chip(self):
        # One chip spans samples_per_chip samples; a single sample cannot
        # hold even one chip, with or without the energy gate.
        report = self.rx.process(np.ones(1, dtype=complex), skip_energy_gate=True)
        assert report.frames == []

    def test_nan_buffer_is_sanitized_and_flagged(self):
        buf = np.full(4096, np.nan + 1j * np.nan)
        report = self.rx.process(buf, skip_energy_gate=True)
        assert report.degraded
        assert any(
            f.stage == "input" and f.reason == "non_finite" for f in report.failures
        )

    def test_inf_buffer_is_sanitized_and_flagged(self):
        buf = np.ones(4096, dtype=complex)
        buf[100:200] = np.inf
        report = self.rx.process(buf, skip_energy_gate=True)
        assert any(f.reason == "non_finite" for f in report.failures)

    def test_wrong_rank_buffer_is_flattened_and_flagged(self):
        buf = np.zeros((64, 64), dtype=complex)
        report = self.rx.process(buf)
        assert any(f.reason == "not_1d" for f in report.failures)

    def test_uninterpretable_buffer_degrades_to_empty(self):
        report = self.rx.process(["not", "samples"])
        assert report.frames == []
        assert any(f.reason == "uninterpretable" for f in report.failures)

    def test_sic_survives_nan_buffer(self):
        rx = CbmaReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=2, max_passes=3
        )
        report = rx.process(np.full(4096, np.nan, dtype=complex))
        assert report.frames == []
        assert report.degraded
