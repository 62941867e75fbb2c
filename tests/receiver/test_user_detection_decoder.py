"""Unit tests for repro.receiver.user_detection and repro.receiver.decoder."""

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband, upsample_chips
from repro.receiver.decoder import ChipDecoder
from repro.receiver.receiver import CbmaReceiver
from repro.receiver.user_detection import UserDetector
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag
from repro.utils.correlation import sliding_correlation


def _make_signal(tag, payload, amp, offset_samples, spc, total=None, noise=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    chips = tag.chip_stream(payload, spc)
    sig = ook_baseband(chips, amplitude=amp)
    sig = fractional_delay(sig, offset_samples, total_length=total)
    sig = sig + noise * (rng.normal(size=sig.size) + 1j * rng.normal(size=sig.size))
    return sig


class TestUserDetector:
    def setup_method(self):
        self.codes = twonc_codes(3, 32)
        self.fmt = FrameFormat()
        self.spc = 2
        self.tags = [Tag(i, self.codes[i], fmt=self.fmt) for i in range(3)]
        self.det = UserDetector(
            {i: self.codes[i] for i in range(3)}, self.fmt, samples_per_chip=self.spc
        )

    def test_detects_single_user_with_offset(self):
        sig = _make_signal(self.tags[1], b"abc", 1.0, 37, self.spc)
        hits = self.det.detect(sig)
        assert hits and hits[0].user_id == 1
        assert hits[0].offset == 37

    def test_fractional_offset_rounds_to_neighbor(self):
        sig = _make_signal(self.tags[0], b"abc", 1.0, 40.5, self.spc)
        hits = [h for h in self.det.detect(sig) if h.user_id == 0]
        assert hits and abs(hits[0].offset - 40.5) <= 1

    def test_channel_estimate_phase(self):
        amp = 0.5 * np.exp(1j * 1.2)
        sig = _make_signal(self.tags[0], b"abc", amp, 16, self.spc)
        hits = [h for h in self.det.detect(sig) if h.user_id == 0]
        assert hits
        est = hits[0].channel
        assert np.angle(est) == pytest.approx(1.2, abs=0.1)

    def test_silent_users_not_reported_at_high_threshold(self):
        det = UserDetector(
            {i: self.codes[i] for i in range(3)}, self.fmt,
            samples_per_chip=self.spc, threshold=0.5,
        )
        sig = _make_signal(self.tags[2], b"abc", 1.0, 10, self.spc)
        hits = det.detect(sig)
        assert {h.user_id for h in hits} == {2}

    def test_max_users_cap(self):
        sig = _make_signal(self.tags[0], b"abc", 1.0, 10, self.spc)
        sig += _make_signal(self.tags[1], b"xyz", 1.0, 14, self.spc, total=sig.size)
        hits = self.det.detect(sig, max_users=1)
        assert len(hits) == 1

    def test_short_window_no_crash(self):
        assert self.det.detect(np.zeros(10, dtype=complex)) == []

    def test_candidates_include_best_first(self):
        sig = _make_signal(self.tags[0], b"abc", 1.0, 25, self.spc)
        hit = [h for h in self.det.detect(sig) if h.user_id == 0][0]
        assert hit.candidates[0][0] == hit.offset

    def test_empty_codes_rejected(self):
        with pytest.raises(ValueError):
            UserDetector({})

    def test_bad_spc_rejected(self):
        with pytest.raises(ValueError):
            UserDetector({0: self.codes[0]}, samples_per_chip=0)

    @pytest.mark.parametrize("build", [UserDetector, CbmaReceiver])
    def test_mixed_length_code_book_rejected(self, build):
        codes = {0: self.codes[0], 1: twonc_codes(1, 16)[0]}
        with pytest.raises(ValueError, match=r"lengths \[16, 32\]"):
            build(codes, self.fmt)

    def test_bank_serves_templates_in_code_order(self):
        first = UserDetector(
            {0: self.codes[0], 2: self.codes[2]}, self.fmt, samples_per_chip=self.spc
        )
        codes = {2: self.codes[2], 0: self.codes[0]}
        det = UserDetector(codes, self.fmt, samples_per_chip=self.spc)
        # The cached bank keeps the first detector's row order.
        assert det.bank is first.bank
        sig = _make_signal(self.tags[0], b"abc", 1.0, 10, self.spc)
        rows = list(det.correlation_rows(sig))
        assert [uid for uid, _corr in rows] == [2, 0]
        for uid, corr in rows:
            assert np.array_equal(det.template(uid), det.bank.template(uid))
            assert np.allclose(corr, sliding_correlation(sig, det.template(uid)), atol=1e-9)


class TestChipDecoder:
    def setup_method(self):
        self.code = twonc_codes(1, 32)[0]
        self.fmt = FrameFormat()
        self.spc = 2
        self.tag = Tag(0, self.code, fmt=self.fmt)
        self.decoder = ChipDecoder(self.code, self.fmt, samples_per_chip=self.spc)

    def test_decode_clean_frame(self):
        payload = b"clean payload 123"
        sig = _make_signal(self.tag, payload, 1.0, 0, self.spc)
        frame = self.decoder.decode_frame(sig, 0, channel=0.5 + 0j, user_id=0)
        assert frame.success
        assert frame.payload == payload

    def test_decode_with_phase_rotation(self):
        payload = b"rotated"
        amp = np.exp(1j * 2.0)
        sig = _make_signal(self.tag, payload, amp, 0, self.spc)
        frame = self.decoder.decode_frame(sig, 0, channel=amp, user_id=0)
        assert frame.success and frame.payload == payload

    def test_wrong_phase_fails(self):
        """A channel estimate 180 degrees off inverts every bit."""
        payload = b"inverted"
        sig = _make_signal(self.tag, payload, 1.0, 0, self.spc)
        frame = self.decoder.decode_frame(sig, 0, channel=-1.0 + 0j, user_id=0)
        assert not frame.success

    def test_truncated_window(self):
        payload = b"will be cut off"
        sig = _make_signal(self.tag, payload, 1.0, 0, self.spc)
        frame = self.decoder.decode_frame(sig[: sig.size // 3], 0, channel=1.0, user_id=0)
        assert not frame.success
        assert frame.reason == "truncated"

    def test_zero_channel_fallback(self):
        payload = b"zero channel"
        sig = _make_signal(self.tag, payload, 1.0, 0, self.spc)
        frame = self.decoder.decode_frame(sig, 0, channel=0j, user_id=0)
        assert frame.success  # falls back to unity reference

    def test_decode_bits_window_bounds(self):
        sig = np.zeros(10, dtype=complex)
        assert self.decoder.decode_bits(sig, 0, 5, 1.0) is None
        assert self.decoder.decode_bits(sig, -1, 1, 1.0) is None

    def test_invalid_spc(self):
        with pytest.raises(ValueError):
            ChipDecoder(self.code, self.fmt, samples_per_chip=0)

    def test_reason_length_on_garbage(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(size=40_000) + 1j * rng.normal(size=40_000)
        frame = self.decoder.decode_frame(noise, 0, channel=1.0, user_id=0)
        assert not frame.success
        assert frame.reason in {"length", "crc", "truncated"}
