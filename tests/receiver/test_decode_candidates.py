"""``ChipDecoder.decode_candidates`` against the per-candidate loop.

The batched length-field screen must be invisible: for any window and
any candidate list it returns exactly the :class:`DecodedFrame` that
calling :meth:`ChipDecoder.decode_frame` on each candidate in turn,
stopping at the first success, returns -- reason, payload and raw bits
-- and the index of the candidate that produced it.  The receivers that
call it (plain and SIC) must decode exactly as with that loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import twonc_codes
from repro.obs import Tracer
from repro.phy.modulation import fractional_delay, ook_baseband, spread_bits, upsample_chips
from repro.receiver import CbmaReceiver
from repro.receiver.decoder import ChipDecoder
from repro.receiver.user_detection import UserDetector
from repro.sim.collision import CollisionScenario, simulate_round
from repro.tag.framing import FrameFormat, MAX_PAYLOAD_BYTES
from repro.tag.tag import Tag
from repro.utils.bits import bits_to_bipolar, int_to_bits, pack_bits


def reference_decode(decoder, window, candidates, user_id=-1):
    """The hypothesis loop ``decode_candidates`` replaces."""
    frame, index = None, 0
    for k, (offset, _score, channel) in enumerate(candidates):
        attempt = decoder.decode_frame(window, offset, channel, user_id=user_id)
        if frame is None or (attempt.success and not frame.success):
            frame, index = attempt, k
        if attempt.success:
            break
    return frame, index


def assert_same_frame(got, want):
    assert (got.user_id, got.success, got.reason, got.payload) == (
        want.user_id, want.success, want.reason, want.payload,
    )
    if want.raw_bits is None:
        assert got.raw_bits is None
    else:
        assert got.raw_bits.dtype == want.raw_bits.dtype
        np.testing.assert_array_equal(got.raw_bits, want.raw_bits)


def assert_equivalent(decoder, window, candidates, user_id=3):
    """Same outcome, same index, same CRC side effects as the loop."""
    decoder.tracer = Tracer()
    want, want_index = reference_decode(decoder, window, candidates, user_id)
    want_counters = dict(decoder.tracer.counters)
    decoder.tracer = Tracer()
    got, index = decoder.decode_candidates(window, candidates, user_id)
    assert_same_frame(got, want)
    assert index == want_index
    assert dict(decoder.tracer.counters) == want_counters
    # The index names the candidate that produced the frame.
    offset, _score, channel = candidates[index]
    assert_same_frame(decoder.decode_frame(window, offset, channel, user_id=user_id), got)
    return got


def _frame_samples(fmt, code, spc, payload=None, length_byte=None, rng=None):
    """Bipolar samples of a frame; *length_byte* forges the length field."""
    if length_byte is None:
        bits = fmt.build(payload)
    else:
        body = rng.integers(0, 2, size=8 * 4 + 16).astype(np.uint8)
        bits = pack_bits(fmt.preamble, int_to_bits(length_byte, 8), body)
    return upsample_chips(bits_to_bipolar(spread_bits(bits, code)), spc)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    spc=st.sampled_from([1, 2]),
    n_candidates=st.integers(1, 8),
    payload_len=st.integers(0, 6),
    forged=st.sampled_from([None, 0, 127, 200, 255]),
    window_blocks=st.integers(0, 240),
)
def test_matches_per_candidate_loop(seed, spc, n_candidates, payload_len, forged, window_blocks):
    rng = np.random.default_rng(seed)
    fmt = FrameFormat()
    code = twonc_codes(1, 16)[0]
    decoder = ChipDecoder(code, fmt, spc)
    blk = decoder.block_samples
    n = window_blocks * blk + int(rng.integers(0, blk))
    window = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    # A real frame (or one with a forged length byte) that may run off
    # either edge of the window.
    h = complex(rng.normal(), rng.normal())
    frame = _frame_samples(
        fmt, code, spc, bytes(rng.integers(0, 256, payload_len, dtype=np.uint8)), forged, rng
    )
    true_offset = int(rng.integers(-4 * blk, max(n - frame.size, 0) + 4 * blk + 1))
    lo, hi = max(true_offset, 0), min(true_offset + frame.size, n)
    if hi > lo:
        window[lo:hi] += h * frame[lo - true_offset : hi - true_offset]
    lead = fmt.preamble_bits * blk
    candidates = []
    for _ in range(n_candidates):
        if rng.random() < 0.5:
            # The true alignment or one of its whole-bit images.
            offset = true_offset + int(rng.choice([0, 0, -1, 1, -2, 2])) * blk
        else:
            offset = int(rng.integers(-lead - 9 * blk, max(n - 40 * blk, 0) + blk))
        channel = [0j, h, h, complex(rng.normal(), rng.normal())][int(rng.integers(0, 4))]
        candidates.append((offset, float(rng.random()), channel))
    assert_equivalent(decoder, window, tuple(candidates))
    for candidate in candidates:
        assert_equivalent(decoder, window, (candidate,))


def test_each_screen_outcome():
    """Length-field overrun, implausible length, body overrun, CRC
    failure and success, each as the first candidate."""
    fmt = FrameFormat()
    code = twonc_codes(1, 32)[0]
    decoder = ChipDecoder(code, fmt, 2)
    blk = decoder.block_samples
    rng = np.random.default_rng(5)
    good = _frame_samples(fmt, code, 2, b"hello")
    forged = _frame_samples(fmt, code, 2, length_byte=MAX_PAYLOAD_BYTES + 1, rng=rng)
    lead = fmt.preamble_bits * blk
    pad = np.zeros(4 * blk)
    window = np.concatenate([pad, good, pad, forged, pad]).astype(np.complex128)
    at_good, at_forged = pad.size, 2 * pad.size + good.size
    cases = {
        "truncated": [(-lead - 1, 0.0, 1 + 0j)],
        "length": [(at_forged, 0.0, 1 + 0j)],
        "ok": [(at_good, 0.0, 0j)],
    }
    for reason, candidates in cases.items():
        frame = assert_equivalent(decoder, window, tuple(candidates))
        assert frame.reason == reason
    # The body overruns a window cut inside the good frame's payload.
    cut = window[: at_good + good.size - blk]
    frame = assert_equivalent(decoder, cut, ((at_good, 0.0, 1 + 0j),))
    assert frame.reason == "truncated" and frame.raw_bits.size == 8
    # A one-block misalignment reaches the CRC and fails it; the good
    # alignment behind it then wins with index 1.
    misaligned = ((at_good - 2 * blk, 0.0, 1 + 0j), (at_good, 0.0, 1 + 0j))
    frame, index = decoder.decode_candidates(window, misaligned)
    assert frame.success and index == 1
    assert_equivalent(decoder, window, misaligned)


def test_empty_candidates_rejected():
    decoder = ChipDecoder(twonc_codes(1, 16)[0])
    with pytest.raises(ValueError):
        decoder.decode_candidates(np.zeros(64, dtype=complex), ())


def _collision(n_tags, samples_per_chip, seed):
    rng = np.random.default_rng(seed)
    fmt = FrameFormat()
    codes = twonc_codes(n_tags, 64)
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(n_tags)]
    scenario = CollisionScenario(
        tags=tags, amplitudes=[1.0 + 0.0j] * n_tags, samples_per_chip=samples_per_chip
    )
    payloads = {i: rng.integers(0, 256, size=2).astype(np.uint8).tobytes() for i in range(n_tags)}
    iq, _truth = simulate_round(scenario, payloads, rng=rng)
    return np.asarray(iq), {i: codes[i] for i in range(n_tags)}, fmt


@pytest.mark.parametrize("samples_per_chip", [1, 2])
def test_seeded_collision_every_candidate_prefix(samples_per_chip):
    """The 4-tag collision behind the decode-outcome golden: every
    detected user, every prefix of its candidate list."""
    iq, codes, fmt = _collision(4, samples_per_chip, seed=200)
    detector = UserDetector(codes, fmt, samples_per_chip=samples_per_chip, threshold=0.05)
    reasons = set()
    for det in detector.detect(iq):
        decoder = ChipDecoder(codes[det.user_id], fmt, samples_per_chip)
        for end in range(1, len(det.candidates) + 1):
            frame = assert_equivalent(decoder, iq, det.candidates[:end], det.user_id)
            reasons.add(frame.reason)
        # Later candidates first: the first attempt is no longer the
        # earliest alignment.
        assert_equivalent(decoder, iq, det.candidates[::-1], det.user_id)
    assert "ok" in reasons and len(reasons) > 1


class _ReferenceDecoder:
    """A decoder whose ``decode_candidates`` is the per-candidate loop."""

    def __init__(self, decoder):
        self._decoder = decoder

    def __getattr__(self, name):
        return getattr(self._decoder, name)

    def decode_candidates(self, window, candidates, user_id=-1):
        return reference_decode(self._decoder, window, candidates, user_id)


def _reports(receiver, iq):
    """The receiver's report, then the same with the reference loop."""
    got = receiver.process(iq, skip_energy_gate=True)
    original = receiver._decoders
    receiver._decoders = {uid: _ReferenceDecoder(d) for uid, d in original.items()}
    try:
        want = receiver.process(iq, skip_energy_gate=True)
    finally:
        receiver._decoders = original
    return got, want


def _assert_same_reports(got, want):
    assert len(got.frames) == len(want.frames)
    for g, w in zip(got.frames, want.frames):
        assert_same_frame(g, w)


def test_plain_receiver_matches_reference_loop():
    iq, codes, fmt = _collision(4, 2, seed=200)
    got, want = _reports(CbmaReceiver(codes, fmt, samples_per_chip=2, user_threshold=0.05), iq)
    _assert_same_reports(got, want)
    assert any(f.success for f in got.frames)


def test_sic_cancels_the_candidate_that_decoded():
    """SIC subtracts the decoded frame at the returned candidate's
    offset and channel; a wrong index would corrupt the residual and
    change what the later passes decode."""
    spc = 2
    codes = twonc_codes(3, 64)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(3)]
    rng = np.random.default_rng(11)
    payloads = {0: b"strong!!", 1: b"middle", 2: b"weak"}
    streams = []
    for tag, amp, off in zip(tags, (1.0, 0.25, 0.08), (0.0, 37.5, 90.25)):
        sig = ook_baseband(tag.chip_stream(payloads[tag.tag_id], spc), amplitude=amp)
        streams.append(fractional_delay(sig, 128 + off))
    n = max(s.size for s in streams) + 64
    iq = np.zeros(n, dtype=complex)
    for s in streams:
        iq[: s.size] += s
    iq += 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    sic = CbmaReceiver({i: codes[i] for i in range(3)}, fmt=fmt, samples_per_chip=spc, max_passes=3)
    got, want = _reports(sic, iq)
    _assert_same_reports(got, want)
    assert got.decoded_payloads() == want.decoded_payloads()
    assert len(got.decoded_payloads()) >= 2
