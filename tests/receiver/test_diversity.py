"""Unit tests for repro.receiver.diversity (MRC) and the diversity
collision simulator."""

import numpy as np
import pytest

from repro.channel.fading import FadingModel
from repro.channel.noise import NoiseModel
from repro.codes import twonc_codes
from repro.obs import Tracer
from repro.receiver import CbmaReceiver
from repro.receiver.diversity import DiversityReceiver
from repro.sim.collision import CollisionScenario, simulate_diversity_round
from repro.tag import Tag, TagOscillator

SPC = 2


def _scenario(n_tags, amp, rng, codes):
    tags = [
        Tag(i, codes[i], oscillator=TagOscillator(offset_chips=float(rng.uniform(0, 8))))
        for i in range(n_tags)
    ]
    return CollisionScenario(
        tags=tags, amplitudes=[amp] * n_tags, noise=NoiseModel(), samples_per_chip=SPC
    )


class TestSimulateDiversityRound:
    def test_branch_count_and_length(self):
        codes = twonc_codes(2, 32)
        rng = np.random.default_rng(0)
        scen = _scenario(2, 1e-6, rng, codes)
        gains = np.ones((3, 2), dtype=complex)
        branches, truth = simulate_diversity_round(scen, {0: b"a", 1: b"b"}, gains, rng)
        assert len(branches) == 3
        assert len({b.size for b in branches}) == 1
        assert truth.n_samples == branches[0].size

    def test_gain_shape_validated(self):
        codes = twonc_codes(2, 32)
        rng = np.random.default_rng(0)
        scen = _scenario(2, 1e-6, rng, codes)
        with pytest.raises(ValueError):
            simulate_diversity_round(scen, {0: b"a"}, np.ones((2, 3)), rng)

    def test_branches_differ_with_different_gains(self):
        codes = twonc_codes(1, 32)
        rng = np.random.default_rng(1)
        scen = _scenario(1, 1e-6, rng, codes)
        gains = np.array([[1.0], [1j]])
        branches, _ = simulate_diversity_round(scen, {0: b"x"}, gains, rng)
        assert not np.allclose(branches[0], branches[1])


class TestDiversityReceiver:
    def test_invalid_antennas(self):
        codes = twonc_codes(1, 32)
        with pytest.raises(ValueError):
            DiversityReceiver({0: codes[0]}, n_antennas=0)

    def test_branch_count_enforced(self):
        codes = twonc_codes(1, 32)
        rx = DiversityReceiver({0: codes[0]}, samples_per_chip=SPC, n_antennas=2)
        with pytest.raises(ValueError):
            rx.process_branches([np.zeros(100, dtype=complex)])

    def test_branch_length_enforced(self):
        codes = twonc_codes(1, 32)
        rx = DiversityReceiver({0: codes[0]}, samples_per_chip=SPC, n_antennas=2)
        with pytest.raises(ValueError):
            rx.process_branches(
                [np.zeros(100, dtype=complex), np.zeros(90, dtype=complex)]
            )

    def test_clean_decode_two_branches(self):
        codes = twonc_codes(2, 64)
        rng = np.random.default_rng(2)
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (5 / 10)) / 0.432
        scen = _scenario(2, amp, rng, codes)
        payloads = {0: b"branch test 0!", 1: b"branch test 1!"}
        gains = np.array([[1.0, 0.9], [0.7j, 1.1j]])
        branches, _ = simulate_diversity_round(scen, payloads, gains, rng)
        rx = DiversityReceiver(
            {i: codes[i] for i in range(2)}, samples_per_chip=SPC, n_antennas=2
        )
        assert rx.process_branches(branches).decoded_payloads() == payloads

    def test_crc_checks_are_counted(self):
        """The MRC decode settles frames through the shared decoder
        tail, so each CRC check is one ``crc`` span and one counter."""
        codes = twonc_codes(2, 64)
        rng = np.random.default_rng(2)
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (5 / 10)) / 0.432
        scen = _scenario(2, amp, rng, codes)
        payloads = {0: b"branch test 0!", 1: b"branch test 1!"}
        gains = np.array([[1.0, 0.9], [0.7j, 1.1j]])
        branches, _ = simulate_diversity_round(scen, payloads, gains, rng)
        tracer = Tracer()
        rx = DiversityReceiver(
            {i: codes[i] for i in range(2)}, samples_per_chip=SPC, n_antennas=2, tracer=tracer
        )
        assert rx.process_branches(branches).decoded_payloads() == payloads
        checks = tracer.counters["crc.ok"] + tracer.counters.get("crc.fail", 0)
        assert tracer.counters["crc.ok"] == 2
        assert sum(r.name == "crc" for r in tracer.records) == checks

    def test_diversity_gain_under_fading(self):
        """2-branch MRC must clearly beat one antenna in deep fading."""
        codes = twonc_codes(3, 64)
        rng = np.random.default_rng(8)
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (-8 / 10)) / 0.432
        fad = FadingModel(k_factor=3.0, shadowing_sigma_db=0.0)
        rx1 = CbmaReceiver({i: codes[i] for i in range(3)}, samples_per_chip=SPC)
        rx2 = DiversityReceiver(
            {i: codes[i] for i in range(3)}, samples_per_chip=SPC, n_antennas=2
        )
        ok1 = ok2 = tot = 0
        for _ in range(15):
            scen = _scenario(3, amp, rng, codes)
            payloads = {
                i: bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for i in range(3)
            }
            gains = np.array(
                [[fad.sample_gain(rng) for _ in range(3)] for _ in range(2)]
            )
            branches, _ = simulate_diversity_round(scen, payloads, gains, rng)
            d1 = rx1.process(branches[0]).decoded_payloads()
            d2 = rx2.process_branches(branches).decoded_payloads()
            for i in range(3):
                tot += 1
                ok1 += d1.get(i) == payloads[i]
                ok2 += d2.get(i) == payloads[i]
        assert ok2 > ok1

    def test_survives_one_dead_branch(self):
        """All signal on branch 0, branch 1 pure noise: still decodes."""
        codes = twonc_codes(1, 64)
        rng = np.random.default_rng(5)
        noise = NoiseModel()
        amp = np.sqrt(noise.power_w * 10 ** (5 / 10)) / 0.432
        scen = _scenario(1, amp, rng, codes)
        gains = np.array([[1.0], [0.0]])
        branches, _ = simulate_diversity_round(scen, {0: b"only branch 0"}, gains, rng)
        rx = DiversityReceiver({0: codes[0]}, samples_per_chip=SPC, n_antennas=2)
        assert rx.process_branches(branches).decoded_payloads() == {0: b"only branch 0"}
