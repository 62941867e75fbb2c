"""Unit tests for repro.utils.correlation_batch."""

import numpy as np
import pytest

from repro.tag.framing import FrameFormat
from repro.utils.correlation import sliding_correlation
from repro.utils.correlation_batch import (
    TemplateBank,
    clear_template_cache,
    sliding_correlation_batch,
    template_bank,
)


def _random_stack(rng, n_templates, m):
    return np.sign(rng.normal(size=(n_templates, m))) + 0.0


def _direct(signal, templates):
    """The direct reference: one ``sliding_correlation`` per template."""
    return np.stack([sliding_correlation(signal, t) for t in templates])


class TestSlidingCorrelationBatch:
    @pytest.mark.parametrize("complex_signal", [False, True])
    def test_fft_matches_direct(self, complex_signal):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=500)
        if complex_signal:
            sig = sig + 1j * rng.normal(size=500)
        templates = _random_stack(rng, 6, 64)
        direct = _direct(sig, templates)
        fft = sliding_correlation_batch(sig, templates)
        scale = max(float(np.abs(direct).max()), 1e-12)
        assert np.abs(fft - direct).max() / scale < 1e-10

    @pytest.mark.parametrize("complex_signal", [False, True])
    def test_overlap_save_long_signal_matches_direct(self, complex_signal):
        rng = np.random.default_rng(2)
        n = (1 << 17) + 12345  # over the overlap-save threshold
        sig = rng.normal(size=n)
        if complex_signal:
            sig = sig + 1j * rng.normal(size=n)
        templates = _random_stack(rng, 2, 257)
        direct = _direct(sig, templates)
        fft = sliding_correlation_batch(sig, templates)
        assert fft.shape == direct.shape
        assert np.abs(fft - direct).max() / float(direct.max()) < 1e-10

    def test_output_shape(self):
        out = sliding_correlation_batch(np.zeros(100), np.ones((3, 30)))
        assert out.shape == (3, 71)

    def test_short_signal_returns_empty(self):
        out = sliding_correlation_batch(np.zeros(5), np.ones((2, 8)))
        assert out.shape == (2, 0)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError):
            sliding_correlation_batch(np.zeros(10), np.ones((2, 0)))

    def test_one_dim_templates_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            sliding_correlation_batch(np.zeros(10), np.ones(4))

    def test_zero_signal_scores_zero_not_nan(self):
        out = sliding_correlation_batch(np.zeros(64), np.ones((2, 8)))
        assert np.array_equal(out, np.zeros((2, 57)))

class TestTemplateBank:
    def setup_method(self):
        clear_template_cache()

    def test_rows_match_per_user_construction(self):
        from repro.phy.modulation import spread_bits, upsample_chips
        from repro.utils.bits import bits_to_bipolar

        rng = np.random.default_rng(4)
        fmt = FrameFormat()
        codes = {i: (rng.integers(0, 2, size=32)).astype(np.uint8) for i in range(3)}
        bank = template_bank(fmt, codes, samples_per_chip=2)
        assert isinstance(bank, TemplateBank)
        assert bank.n_users == 3
        for uid, code in codes.items():
            expected = upsample_chips(bits_to_bipolar(spread_bits(fmt.preamble, code)), 2)
            assert np.array_equal(bank.template(uid), expected)
            assert bank.template_samples == expected.size

    def test_cache_returns_same_bank_for_equal_inputs(self):
        fmt = FrameFormat()
        codes_a = {0: np.array([0, 1, 1, 0], dtype=np.uint8)}
        codes_b = {0: np.array([0, 1, 1, 0], dtype=np.uint8)}  # equal, distinct object
        bank_a = template_bank(fmt, codes_a, samples_per_chip=1)
        bank_b = template_bank(FrameFormat(), codes_b, samples_per_chip=1)
        assert bank_a is bank_b

    def test_cache_distinguishes_oversampling(self):
        fmt = FrameFormat()
        codes = {0: np.array([0, 1, 1, 0], dtype=np.uint8)}
        assert template_bank(fmt, codes, 1) is not template_bank(fmt, codes, 2)

    def test_ragged_codes_rejected(self):
        codes = {
            0: np.array([0, 1], dtype=np.uint8),
            1: np.array([0, 1, 1], dtype=np.uint8),
        }
        with pytest.raises(ValueError, match="one length"):
            template_bank(FrameFormat(), codes, 1)

    def test_empty_codes_rejected(self):
        with pytest.raises(ValueError):
            template_bank(FrameFormat(), {}, 1)

    def test_clear_reports_count(self):
        template_bank(FrameFormat(), {0: np.array([0, 1], dtype=np.uint8)}, 1)
        assert clear_template_cache() >= 1
        assert clear_template_cache() == 0

    def test_correlate_matches_kernel(self):
        rng = np.random.default_rng(5)
        fmt = FrameFormat()
        codes = {i: rng.integers(0, 2, size=16).astype(np.uint8) for i in range(2)}
        bank = template_bank(fmt, codes, samples_per_chip=1)
        sig = rng.normal(size=bank.template_samples * 3)
        assert np.array_equal(
            bank.correlate(sig), sliding_correlation_batch(sig, bank.matrix)
        )
