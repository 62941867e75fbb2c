"""The shared decode tail: ``ChipDecoder.decode_with``.

Every decoder (plain, diversity, phase-tracking) settles a frame by
deciding the length byte, then the rest, packing the body once and
checking it in bytes with :meth:`FrameFormat.check_body`.  That tail
must decide exactly what the bit-level reference decides -- parse the
preamble, length and rest bits with :meth:`FrameFormat.parse` -- and it
must never re-validate bit arrays on the receive path.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.utils.bits as bits_module
from repro.receiver.decoder import ChipDecoder
from repro.receiver.user_detection import UserDetector
from repro.tag.framing import FrameError, FrameFormat, MAX_PAYLOAD_BYTES
from repro.utils.bits import bits_to_bytes, pack_bits
from tests.test_regression_goldens import TestDetectionGoldens as _Goldens

_CODE = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)


def reference_tail(fmt, stream):
    """What decoding *stream* (the bits after the preamble) must give,
    by the length-first walk and the bit-level ``FrameFormat.parse``."""
    if stream.size < 8:
        return (False, "truncated", None, None)
    length_bits = stream[:8]
    length = int(bits_to_bytes(length_bits)[0])
    if length > MAX_PAYLOAD_BYTES:
        return (False, "length", None, length_bits)
    if stream.size < 8 * length + 24:
        return (False, "truncated", None, length_bits)
    rest_bits = stream[8 : 8 * length + 24]
    raw = pack_bits(length_bits, rest_bits)
    try:
        frame = fmt.parse(pack_bits(fmt.preamble, length_bits, rest_bits), check_preamble=False)
    except FrameError:
        return (False, "crc", None, raw)
    # Independent of check_body: the CRC bits match bit for bit.
    assert fmt.crc.check_bits(raw[: 8 * length + 8], raw[8 * length + 8 :])
    return (True, "ok", frame.payload, raw)


def tail_outcome(fmt, stream, user_id):
    """Drive ``decode_with`` with decisions served from *stream*."""
    decoder = ChipDecoder(_CODE, fmt)
    blk = decoder.block_samples
    preamble_start = 11
    body_start = preamble_start + fmt.preamble_bits * blk

    def decide(start, n_bits):
        offset, rem = divmod(start - body_start, blk)
        assert rem == 0 and offset >= 0
        if offset + n_bits > stream.size:
            return None
        return stream[offset : offset + n_bits].copy()

    got = decoder.decode_with(decide, preamble_start, user_id)
    assert got.user_id == user_id
    return (got.success, got.reason, got.payload, got.raw_bits)


class TestTailMatchesParse:
    @settings(max_examples=150, deadline=None)
    @given(
        payload=st.binary(max_size=MAX_PAYLOAD_BYTES),
        preamble_bits=st.integers(1, 64),
        flips=st.lists(st.integers(0, 10**6), max_size=4),
        trailing=st.integers(-24, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_outcome_as_parse(self, payload, preamble_bits, flips, trailing, seed):
        fmt = FrameFormat.with_preamble_bits(preamble_bits)
        body = fmt.build(payload)[preamble_bits:].copy()
        for f in flips:
            body[f % body.size] ^= 1
        # Random bits past the CRC, or a frame cut short.
        rng = np.random.default_rng(seed)
        extra = rng.integers(0, 2, max(trailing, 0), dtype=np.uint8)
        stream = np.concatenate((body[: body.size + min(trailing, 0)], extra))

        want = reference_tail(fmt, stream)
        got = tail_outcome(fmt, stream, user_id=3)
        assert got[:3] == want[:3]
        if want[3] is None:
            assert got[3] is None
        else:
            assert got[3].dtype == np.uint8
            np.testing.assert_array_equal(got[3], want[3])

    def test_clean_frames_decode(self):
        fmt = FrameFormat()
        for payload in (b"", b"x", bytes(range(MAX_PAYLOAD_BYTES))):
            body = fmt.build(payload)[fmt.preamble_bits :]
            assert tail_outcome(fmt, body, 0)[:3] == (True, "ok", payload)


class TestCheckBody:
    def test_trailing_bytes_ignored(self):
        fmt = FrameFormat()
        body = np.packbits(fmt.build(b"abc")[fmt.preamble_bits :])
        assert fmt.check_body(np.concatenate((body, np.array([0xFF, 0x00], np.uint8)))) == b"abc"

    @pytest.mark.parametrize(
        "body,match",
        [([], "truncated"), ([5, 1, 2], "truncated"), ([127, 0, 0], "length byte 127")],
    )
    def test_rejects(self, body, match):
        with pytest.raises(FrameError, match=match):
            FrameFormat().check_body(np.array(body, dtype=np.uint8))


class TestNoBitRevalidation:
    @pytest.mark.parametrize("samples_per_chip", [1, 2])
    def test_decode_frame_never_calls_as_bit_array(self, monkeypatch, samples_per_chip):
        """Decoding every candidate of the seeded 4-tag collision (the
        one ``test_decode_frame_outcomes_digest`` pins) makes no
        ``as_bit_array`` call: the receive path checks bytes."""
        spc = samples_per_chip
        iq, codes, fmt = _Goldens._collision(4, spc, seed=200)
        detector = UserDetector(codes, fmt, samples_per_chip=spc, threshold=0.05)
        decoders = {uid: ChipDecoder(code, fmt, spc) for uid, code in codes.items()}
        detections = detector.detect(iq)

        original = bits_module.as_bit_array
        calls = []

        def counting(bits):
            calls.append(1)
            return original(bits)

        for module in list(sys.modules.values()):
            if getattr(module, "as_bit_array", None) is original:
                monkeypatch.setattr(module, "as_bit_array", counting)

        reasons = []
        for det in detections:
            for offset, _score, channel in det.candidates:
                frame = decoders[det.user_id].decode_frame(iq, offset, channel, user_id=det.user_id)
                reasons.append(frame.reason)
        assert "ok" in reasons
        assert len(calls) == 0
