"""Cross-session batched gating: bit-identity of the stacked kernels.

``sliding_correlation_many`` must equal per-row
``sliding_correlation_batch`` to the last bit (and the direct reference
loop to FFT rounding), and
``StreamingReceiver.windows_are_live`` must agree with the scalar
``window_is_live`` on every window -- that identity is what makes the
farm's co-scheduled gate an optimisation rather than a behaviour
change.
"""

import numpy as np
import pytest

from repro.receiver.streaming import StreamingReceiver
from repro.utils.correlation import sliding_correlation
from repro.utils.correlation_batch import (
    _OVERLAP_SAVE_THRESHOLD,
    TemplateBank,
    sliding_correlation_batch,
    sliding_correlation_many,
)


def _stack(rng, n_signals, n, complex_signals=True):
    x = rng.normal(size=(n_signals, n))
    if complex_signals:
        x = x + 1j * rng.normal(size=(n_signals, n))
    return x


class TestStackedKernel:
    @pytest.mark.parametrize("oracle", ["fft", "direct"])
    @pytest.mark.parametrize("complex_signals", [True, False])
    def test_matches_per_row_batch(self, oracle, complex_signals):
        """``fft``: bit-identical to the single-window kernel per row;
        ``direct``: equal to the reference loop to FFT rounding."""
        rng = np.random.default_rng(5)
        signals = _stack(rng, 3, 200, complex_signals)
        templates = rng.normal(size=(4, 24))
        many = sliding_correlation_many(signals, templates)
        assert many.shape == (3, 4, 200 - 24 + 1)
        if oracle == "fft":
            rows = np.stack([sliding_correlation_batch(row, templates) for row in signals])
            np.testing.assert_array_equal(many, rows)
        else:
            rows = np.stack(
                [[sliding_correlation(row, t) for t in templates] for row in signals]
            )
            assert float(np.abs(many - rows).max()) < 1e-9

    def test_short_signals_empty_lag_axis(self):
        signals = np.zeros((2, 10), dtype=np.complex128)
        templates = np.ones((3, 24))
        out = sliding_correlation_many(signals, templates)
        assert out.shape == (2, 3, 0)

    @pytest.mark.parametrize(
        "n", [100, _OVERLAP_SAVE_THRESHOLD, _OVERLAP_SAVE_THRESHOLD + 1, 200_000]
    )
    def test_empty_stack_keeps_shape(self, n):
        """No windows still yields ``(0, U, n-m+1)``, on both sides of
        the overlap-save threshold."""
        out = sliding_correlation_many(np.zeros((0, n)), np.ones((2, 10)))
        assert out.shape == (0, 2, n - 10 + 1)
        assert out.dtype == np.float64

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError):
            sliding_correlation_many(np.zeros((1, 8)), np.zeros((2, 0)))

    def test_requires_2d_signals(self):
        with pytest.raises(ValueError):
            sliding_correlation_many(np.zeros(16), np.ones((2, 4)))

    def test_bank_correlate_many(self):
        rng = np.random.default_rng(7)
        templates = rng.normal(size=(4, 20))
        bank = TemplateBank((0, 1, 2, 3), templates, samples_per_chip=1)
        windows = _stack(rng, 3, 90)
        np.testing.assert_array_equal(
            bank.correlate_many(windows),
            sliding_correlation_many(windows, bank.matrix),
        )
        np.testing.assert_array_equal(
            bank.correlate_many(list(windows)),
            sliding_correlation_many(windows, bank.matrix),
        )


class TestBatchedGate:
    @pytest.fixture(scope="class")
    def stream(self, net_config):
        return StreamingReceiver.from_config(net_config)

    def test_matches_scalar_gate(self, stream, soak_capture):
        buffer, _chunks, _chunk = soak_capture
        w = stream.window_samples
        windows = np.stack([buffer[i * w : (i + 1) * w] for i in range(12)])
        batched = stream.windows_are_live(windows)
        scalar = np.array([stream.window_is_live(win) for win in windows])
        np.testing.assert_array_equal(batched, scalar)
        # The capture is busy enough that both branches are exercised.
        assert batched.any() and not batched.all()

    def test_sequence_of_windows_matches_stack(self, stream, soak_capture):
        buffer, _chunks, _chunk = soak_capture
        w = stream.window_samples
        windows = np.stack([buffer[i * w : (i + 1) * w] for i in range(12)])
        stacked, listed = [], []
        live = stream.windows_are_live(windows, planes=stacked)
        np.testing.assert_array_equal(stream.windows_are_live(list(windows), planes=listed), live)
        for a, b in zip(stacked, listed):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)

    def test_ragged_sequence_rejected(self, stream):
        with pytest.raises(ValueError, match="one length"):
            stream.windows_are_live([np.zeros(stream.window_samples), np.zeros(10)])

    def test_empty_stack(self, stream):
        out = stream.windows_are_live(
            np.zeros((0, stream.window_samples), dtype=np.complex128)
        )
        assert out.shape == (0,)
        assert out.dtype == np.bool_

    def test_rejects_1d(self, stream):
        with pytest.raises(ValueError):
            stream.windows_are_live(np.zeros(stream.window_samples))
