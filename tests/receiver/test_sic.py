"""Successive interference cancellation: ``CbmaReceiver(max_passes=3)``."""

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag


SPC = 2


def _build(tags, payloads, amps, offsets, noise, rng):
    streams = []
    for tag, amp, off in zip(tags, amps, offsets):
        if tag.tag_id not in payloads:
            continue
        sig = ook_baseband(tag.chip_stream(payloads[tag.tag_id], SPC), amplitude=amp)
        streams.append(fractional_delay(sig, 128 + off))
    n = max(s.size for s in streams) + 64
    total = np.zeros(n, dtype=complex)
    for s in streams:
        total[: s.size] += s
    return total + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.fixture
def setup():
    codes = twonc_codes(3, 64)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(3)]
    sic = CbmaReceiver({i: codes[i] for i in range(3)}, fmt=fmt, samples_per_chip=SPC, max_passes=3)
    plain = CbmaReceiver({i: codes[i] for i in range(3)}, fmt=fmt, samples_per_chip=SPC)
    return codes, fmt, tags, sic, plain


class TestSicReceiver:
    def test_invalid_passes(self):
        codes = twonc_codes(1, 32)
        with pytest.raises(ValueError):
            CbmaReceiver({0: codes[0]}, max_passes=0)

    def test_single_tag_same_as_plain(self, setup):
        codes, fmt, tags, sic, plain = setup
        rng = np.random.default_rng(0)
        payloads = {0: b"single tag here!"}
        buf = _build(tags, payloads, [1.0, 0, 0], [3.3, 0, 0], 0.01, rng)
        assert sic.process(buf).decoded_payloads() == plain.process(buf).decoded_payloads()

    def test_recovers_near_far_victim(self, setup):
        """SIC must decode a ~18 dB weaker tag that the plain receiver loses."""
        codes, fmt, tags, sic, plain = setup
        rng = np.random.default_rng(1)
        wins_sic = wins_plain = 0
        for trial in range(10):
            payloads = {
                0: bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
                1: bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
            }
            amps = [
                1.0 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                0.12 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                0.0,
            ]
            offs = [rng.uniform(0, 16), rng.uniform(0, 16), 0]
            buf = _build(tags, payloads, amps, offs, 0.01, rng)
            wins_plain += plain.process(buf).decoded_payloads().get(1) == payloads[1]
            wins_sic += sic.process(buf).decoded_payloads().get(1) == payloads[1]
        assert wins_sic >= 8
        assert wins_sic > wins_plain

    def test_no_false_acks_for_silent_tags(self, setup):
        codes, fmt, tags, sic, plain = setup
        rng = np.random.default_rng(2)
        payloads = {0: bytes(rng.integers(0, 256, 16, dtype=np.uint8))}
        buf = _build(tags, payloads, [1.0, 0, 0], [2.2, 0, 0], 0.01, rng)
        report = sic.process(buf)
        assert set(report.ack.decoded_ids) <= {0}

    def test_three_tag_staircase(self, setup):
        """Three tags at 0 / -10 / -20 dB: SIC peels them in order."""
        codes, fmt, tags, sic, plain = setup
        rng = np.random.default_rng(3)
        payloads = {
            i: bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for i in range(3)
        }
        amps = [
            1.0 * np.exp(1j * 0.5),
            0.32 * np.exp(1j * 2.0),
            0.1 * np.exp(1j * 4.0),
        ]
        offs = [1.0, 6.5, 12.3]
        buf = _build(tags, payloads, amps, offs, 0.005, rng)
        decoded = sic.process(buf).decoded_payloads()
        assert decoded == payloads

    def test_noise_only_no_successes(self, setup):
        codes, fmt, tags, sic, plain = setup
        rng = np.random.default_rng(4)
        noise = 0.01 * (rng.normal(size=8000) + 1j * rng.normal(size=8000))
        report = sic.process(noise)
        assert all(not f.success for f in report.frames)


def test_payload_owned_in_first_pass_is_not_cancelled_again(monkeypatch):
    """The first window of soak capture seed 33 (2 tags) holds one
    frame, user 1's.  Pass 1 decodes it under both codes and user 1,
    the stronger claimant, owns it and is cancelled.  The residual
    still decodes the payload under user 0's code in pass 2; the
    payload stays owned, so that claim is neither cancelled nor a
    reason for a third pass, and user 0's frame is a ghost."""
    import repro.receiver.receiver as receiver_module
    from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream

    cfg = SoakConfig(n_windows=40, n_tags=2, seed=33, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, offered = build_soak_stream(cfg, None, stream, tags)
    base = stream.receiver
    rx = CbmaReceiver(
        base.codes, fmt=base.fmt, samples_per_chip=base.samples_per_chip,
        user_threshold=base.user_detector.threshold, max_passes=3,
    )
    claims, cancelled = [], []
    own, cancel = receiver_module.own_payloads, CbmaReceiver._cancel

    def spy_own(pass_claims, owners):
        claims.append([(f.user_id, f.payload) for _s, f in pass_claims if f.success])
        return own(pass_claims, owners)

    def spy_cancel(self, residual, user_id, frame, *args):
        cancelled.append((user_id, frame.payload))
        return cancel(self, residual, user_id, frame, *args)

    monkeypatch.setattr(receiver_module, "own_payloads", spy_own)
    monkeypatch.setattr(CbmaReceiver, "_cancel", spy_cancel)
    payload = offered[0].payload
    assert offered[0].tag == 1 and offered[1].start > stream.window_samples
    report = rx.process(buffer[: stream.window_samples], skip_energy_gate=True, owned=stream.hop_samples)
    assert claims == [[(1, payload), (0, payload)], [(0, payload)]]
    assert cancelled == [(1, payload)]
    assert [(f.user_id, f.reason) for f in report.frames] == [(1, "ok"), (0, "ghost")]
    assert report.decoded_payloads() == {1: payload}


def test_one_pass_records_no_sic_trace():
    """One pass is the paper's receiver: no ``sic`` span or counter."""
    from repro.obs import Tracer

    codes = twonc_codes(3, 64)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(3)]
    payloads = {0: b"first", 1: b"second"}
    buf = _build(tags, payloads, [1.0, 0.3, 0], [1.0, 5.5, 0], 0.01, np.random.default_rng(5))
    for passes, sic_spans in ((1, 0), (3, 2)):
        tracer = Tracer()
        rx = CbmaReceiver(
            {i: codes[i] for i in range(3)}, fmt=fmt, samples_per_chip=SPC,
            tracer=tracer, max_passes=passes,
        )
        assert rx.process(buf).decoded_payloads() == payloads
        assert sum(r.name == "sic" for r in tracer.records) == sic_spans
        assert tracer.counters.get("sic.passes", 0) == sic_spans
