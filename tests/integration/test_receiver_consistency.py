"""Cross-receiver consistency: plain, SIC and MRC must agree on easy
inputs and degrade consistently on hard ones."""

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver, DiversityReceiver
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag

SPC = 2


def _clean_buffer(tags, payloads, amps, offsets, noise=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    streams = []
    for tag, amp, off in zip(tags, amps, offsets):
        if tag.tag_id not in payloads:
            continue
        sig = ook_baseband(tag.chip_stream(payloads[tag.tag_id], SPC), amplitude=amp)
        streams.append(fractional_delay(sig, 128 + off))
    n = max(s.size for s in streams) + 64
    buf = np.zeros(n, dtype=complex)
    for s in streams:
        buf[: s.size] += s
    return buf + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.fixture
def stack():
    codes = twonc_codes(3, 64)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(3)]
    code_map = {i: codes[i] for i in range(3)}
    return (
        tags,
        CbmaReceiver(code_map, fmt=fmt, samples_per_chip=SPC),
        CbmaReceiver(code_map, fmt=fmt, samples_per_chip=SPC, max_passes=3),
        DiversityReceiver(code_map, fmt=fmt, samples_per_chip=SPC, n_antennas=2),
    )


class TestReceiverConsistency:
    def test_all_decode_clean_collision(self, stack):
        tags, plain, sic, mrc = stack
        payloads = {i: bytes([65 + i]) * 12 for i in range(3)}
        amps = [np.exp(1j * k) for k in (0.3, 2.1, 4.4)]
        buf = _clean_buffer(tags, payloads, amps, [0.0, 3.3, 7.7])
        assert plain.process(buf).decoded_payloads() == payloads
        assert sic.process(buf).decoded_payloads() == payloads
        assert mrc.process_branches([buf, buf]).decoded_payloads() == payloads

    def test_sic_superset_of_plain(self, stack):
        """Whatever plain decodes, SIC must also decode (same buffer)."""
        tags, plain, sic, _ = stack
        rng = np.random.default_rng(5)
        for trial in range(5):
            payloads = {
                i: bytes(rng.integers(0, 256, 12, dtype=np.uint8)) for i in range(3)
            }
            amps = [
                float(a) * np.exp(1j * rng.uniform(0, 6.28))
                for a in rng.uniform(0.2, 1.0, 3)
            ]
            buf = _clean_buffer(
                tags, payloads, amps, rng.uniform(0, 12, 3), noise=0.02, seed=trial
            )
            plain_ok = {
                uid for uid, p in plain.process(buf).decoded_payloads().items()
                if p == payloads[uid]
            }
            sic_ok = {
                uid for uid, p in sic.process(buf).decoded_payloads().items()
                if p == payloads[uid]
            }
            # SIC may rescue extra tags but should not lose decodes
            # (tolerate at most marginal flips on noisy trials).
            assert len(sic_ok) >= len(plain_ok) - 1

    def test_acks_match_decodes_everywhere(self, stack):
        tags, plain, sic, mrc = stack
        payloads = {0: b"ack consistency"}
        buf = _clean_buffer(tags, payloads, [1.0, 0, 0], [2.0, 0, 0])
        for report in (
            plain.process(buf),
            sic.process(buf),
            mrc.process_branches([buf, buf]),
        ):
            decoded = {f.user_id for f in report.frames if f.success}
            assert set(report.ack.decoded_ids) == decoded

    def test_mrc_single_buffer_process_matches_plain(self, stack):
        """DiversityReceiver.process (inherited single-buffer path)
        behaves like the plain receiver."""
        tags, plain, _, mrc = stack
        payloads = {1: b"inherited path"}
        buf = _clean_buffer(tags, payloads, [0, 1.0, 0], [0, 1.0, 0])
        assert (
            mrc.process(buf).decoded_payloads()
            == plain.process(buf).decoded_payloads()
        )
