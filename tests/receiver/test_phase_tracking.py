"""Unit tests for repro.receiver.phase_tracking and the CFO impairment."""

import numpy as np
import pytest

from repro.channel.geometry import Deployment
from repro.codes import twonc_codes
from repro.obs import Tracer
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver, PhaseTrackingReceiver
from repro.sim.collision import CollisionScenario, simulate_round
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.tag import FrameFormat, Tag, TagOscillator

SPC = 2


def _buffer_with_cfo(tag, payload, cfo_hz, sample_rate, amp=1.0, seed=0):
    rng = np.random.default_rng(seed)
    sig = ook_baseband(tag.chip_stream(payload, SPC), amplitude=amp)
    sig = fractional_delay(sig, 128)
    n = np.arange(sig.size)
    sig = sig * np.exp(2j * np.pi * cfo_hz * n / sample_rate)
    return sig + 1e-6 * (rng.normal(size=sig.size) + 1j * rng.normal(size=sig.size))


class TestPhaseTrackingReceiver:
    def setup_method(self):
        self.codes = twonc_codes(2, 64)
        self.fmt = FrameFormat()
        self.tag = Tag(0, self.codes[0], fmt=self.fmt)
        self.plain = CbmaReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=SPC
        )
        self.tracking = PhaseTrackingReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=SPC
        )

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            PhaseTrackingReceiver({0: self.codes[0]}, alpha=0.0)

    def test_agrees_with_plain_without_cfo(self):
        buf = _buffer_with_cfo(self.tag, b"no rotation here", 0.0, 2e6)
        assert (
            self.tracking.process(buf).decoded_payloads()
            == self.plain.process(buf).decoded_payloads()
        )

    def test_survives_cfo_that_kills_plain(self):
        """One full constellation turn mid-frame defeats a static
        channel estimate; the tracking loop follows it."""
        payload = b"rotating frame!!"
        buf = _buffer_with_cfo(self.tag, payload, 150.0, 2e6)
        assert self.plain.process(buf).decoded_payloads().get(0) != payload
        assert self.tracking.process(buf).decoded_payloads().get(0) == payload

    def test_crc_checks_are_counted(self):
        """The tracking decode settles frames through the shared decoder
        tail, so each CRC check is one ``crc`` span and one counter."""
        tracer = Tracer()
        tracking = PhaseTrackingReceiver(
            {i: self.codes[i] for i in range(2)}, fmt=self.fmt, samples_per_chip=SPC,
            tracer=tracer,
        )
        buf = _buffer_with_cfo(self.tag, b"rotating frame!!", 150.0, 2e6)
        assert tracking.process(buf).decoded_payloads().get(0) == b"rotating frame!!"
        checks = tracer.counters["crc.ok"] + tracer.counters.get("crc.fail", 0)
        assert tracer.counters["crc.ok"] >= 1
        assert sum(r.name == "crc" for r in tracer.records) == checks

    def test_decoders_restored_after_process(self):
        buf = _buffer_with_cfo(self.tag, b"restore check", 50.0, 2e6)
        before = dict(self.tracking._decoders)
        self.tracking.process(buf)
        assert self.tracking._decoders == before


class TestCfoImpairment:
    def test_scenario_validates_arity(self):
        codes = twonc_codes(2, 32)
        tags = [Tag(i, codes[i]) for i in range(2)]
        with pytest.raises(ValueError):
            CollisionScenario(tags=tags, amplitudes=[1e-6, 1e-6], cfo_hz=[100.0])

    def test_zero_cfo_bit_identical(self):
        codes = twonc_codes(1, 32)
        tag = Tag(0, codes[0], oscillator=TagOscillator(offset_chips=1.5))
        a = CollisionScenario(tags=[tag], amplitudes=[1e-6], cfo_hz=None)
        b = CollisionScenario(tags=[tag], amplitudes=[1e-6], cfo_hz=[0.0])
        iq_a, _ = simulate_round(a, {0: b"x"}, np.random.default_rng(1))
        iq_b, _ = simulate_round(b, {0: b"x"}, np.random.default_rng(1))
        assert np.array_equal(iq_a, iq_b)

    def test_network_config_plumbs_cfo(self):
        cfg = CbmaConfig(n_tags=2, seed=3, cfo_hz_sigma=200.0)
        net = CbmaNetwork(cfg, Deployment.linear(2, tag_to_rx=1.0))
        fer_cfo = net.run_rounds(10).fer
        cfg0 = CbmaConfig(n_tags=2, seed=3)
        net0 = CbmaNetwork(cfg0, Deployment.linear(2, tag_to_rx=1.0))
        fer_clean = net0.run_rounds(10).fer
        assert fer_cfo > fer_clean

    def test_tracking_receiver_in_network(self):
        cfg = CbmaConfig(n_tags=2, seed=3, cfo_hz_sigma=200.0)
        net = CbmaNetwork(cfg, Deployment.linear(2, tag_to_rx=1.0))
        net.receiver = PhaseTrackingReceiver(
            net.receiver.codes, fmt=net.fmt, samples_per_chip=2
        )
        assert net.run_rounds(10).fer < 0.3
