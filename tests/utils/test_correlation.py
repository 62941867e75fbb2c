"""Unit tests for repro.utils.correlation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.correlation import (
    DENOM_FLOOR,
    correlation_peaks,
    guard_denominator,
    normalized_correlation,
    sliding_correlation,
)


class TestGuardDenominator:
    def test_scalar_zero_is_floored(self):
        assert guard_denominator(0.0) == DENOM_FLOOR

    def test_negative_cancellation_residue_is_floored(self):
        """Cumsum cancellation can leave tiny negative energies; the
        guard must repair them before sqrt turns them into NaN."""
        assert guard_denominator(-1e-18) == DENOM_FLOOR

    def test_real_denominators_pass_through(self):
        energy = np.array([1e-30, 1e-3, 2.5])
        out = guard_denominator(energy)
        assert np.array_equal(out, energy)

    def test_floor_is_below_every_normal_float(self):
        assert 0.0 < DENOM_FLOOR < 1e-300


class TestNormalizedCorrelation:
    def test_identical_is_one(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        assert normalized_correlation(x, x) == pytest.approx(1.0)

    def test_phase_invariant(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        rotated = x * np.exp(1j * 0.7)
        assert normalized_correlation(rotated, x) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        a = np.array([1.0, 1.0, -1.0, -1.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert normalized_correlation(a, b) == pytest.approx(0.0)

    def test_zero_signal(self):
        assert normalized_correlation(np.zeros(4), np.ones(4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalized_correlation(np.ones(3), np.ones(4))

    @given(st.integers(2, 32))
    def test_bounded_by_one(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert 0.0 <= normalized_correlation(x, t) <= 1.0 + 1e-12


class TestSlidingCorrelation:
    def test_peak_at_embedding_offset(self):
        rng = np.random.default_rng(3)
        template = np.sign(rng.normal(size=32))
        signal = np.concatenate([np.zeros(17), template, np.zeros(11)])
        signal = signal + 0.01 * rng.normal(size=signal.size)
        corr = sliding_correlation(signal, template)
        assert int(np.argmax(corr)) == 17

    def test_output_length(self):
        corr = sliding_correlation(np.zeros(100), np.ones(30))
        assert corr.size == 71

    def test_too_short_signal(self):
        assert sliding_correlation(np.zeros(3), np.ones(5)).size == 0

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            sliding_correlation(np.zeros(5), np.zeros(0))

    def test_unnormalized_scales_with_amplitude(self):
        template = np.ones(8)
        weak = sliding_correlation(0.1 * np.ones(16), template, normalize=False)
        strong = sliding_correlation(10.0 * np.ones(16), template, normalize=False)
        assert strong.max() > 50 * weak.max()

    def test_normalized_is_scale_invariant(self):
        rng = np.random.default_rng(0)
        template = np.sign(rng.normal(size=16))
        signal = np.concatenate([rng.normal(size=8), template, rng.normal(size=8)])
        a = sliding_correlation(signal, template)
        b = sliding_correlation(1000.0 * signal, template)
        assert np.allclose(a, b)

    def test_zero_energy_windows_score_zero(self):
        """Silent stretches normalise to exactly 0 -- never NaN/inf."""
        template = np.sign(np.random.default_rng(1).normal(size=8))
        signal = np.concatenate([np.zeros(20), template, np.zeros(20)])
        corr = sliding_correlation(signal, template)
        assert np.all(np.isfinite(corr))
        assert corr[0] == 0.0 and corr[-1] == 0.0
        assert corr[20] == pytest.approx(1.0)

    def test_near_zero_energy_window_regression(self):
        """Windows of denormal-scale noise stay finite and bounded.

        Regression for the old ad-hoc ``1e-30`` clamp: an amplitude of
        1e-80 gives window energies ~1e-160 -- far below the old clamp,
        which would have crushed the normalisation and reported ~0 for
        a perfect template match.  The scale-free guard normalises it
        like any other window.
        """
        rng = np.random.default_rng(2)
        template = np.sign(rng.normal(size=16))
        signal = 1e-80 * np.concatenate(
            [rng.normal(size=8), template, rng.normal(size=8)]
        )
        corr = sliding_correlation(signal, template)
        assert np.all(np.isfinite(corr))
        assert np.all(corr <= 1.0 + 1e-9)
        assert int(np.argmax(corr)) == 8
        assert corr[8] == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_signal_normalized(self):
        corr = sliding_correlation(np.zeros(64), np.ones(16))
        assert np.array_equal(corr, np.zeros(49))


class TestCorrelationPeaks:
    def test_finds_isolated_peaks(self):
        corr = np.zeros(50)
        corr[10] = 1.0
        corr[40] = 0.8
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=5)
        assert peaks.tolist() == [10, 40]

    def test_suppresses_nearby(self):
        corr = np.zeros(50)
        corr[10] = 1.0
        corr[12] = 0.9
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=5)
        assert peaks.tolist() == [10]

    def test_threshold_filters(self):
        corr = np.array([0.1, 0.2, 0.3])
        assert correlation_peaks(corr, threshold=0.5).size == 0

    def test_empty_input(self):
        assert correlation_peaks(np.zeros(0), 0.5).size == 0

    def test_tied_peaks_resolve_to_earliest_deterministically(self):
        """Equal-height peaks inside one suppression radius must keep
        the *earliest* index -- every platform, every numpy build."""
        corr = np.zeros(50)
        corr[12] = 0.9
        corr[10] = 0.9  # deliberate tie, later assignment earlier index
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=5)
        assert peaks.tolist() == [10]

    def test_tied_plateau_keeps_spaced_earliest_peaks(self):
        corr = np.zeros(40)
        corr[10:20] = 0.8  # 10-sample plateau of exact ties
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=4)
        assert peaks.tolist() == [10, 14, 18]

    def test_tie_with_distinct_heights_unaffected(self):
        corr = np.zeros(50)
        corr[10] = 0.7
        corr[12] = 0.9  # strictly higher: wins despite later index
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=5)
        assert peaks.tolist() == [12]

    def test_matches_greedy_reference_on_random_input(self):
        """The vectorised suppression is the same greedy NMS."""

        def greedy_reference(corr, threshold, min_spacing):
            candidates = np.flatnonzero(corr >= threshold)
            heights = corr[candidates]
            order = candidates[np.lexsort((candidates, -heights))]
            accepted = []
            for idx in order:
                if all(abs(int(idx) - a) >= min_spacing for a in accepted):
                    accepted.append(int(idx))
            return sorted(accepted)

        rng = np.random.default_rng(5)
        for _ in range(25):
            corr = rng.uniform(size=rng.integers(1, 200))
            # Quantise to force plenty of exact ties.
            corr = np.round(corr, 1)
            spacing = int(rng.integers(1, 12))
            got = correlation_peaks(corr, threshold=0.5, min_spacing=spacing)
            assert got.tolist() == greedy_reference(corr, 0.5, spacing)

    def test_large_plateau_is_fast_and_correct(self):
        """O(P log P) NMS on a pathological all-above-threshold input."""
        corr = np.full(20000, 0.9)
        peaks = correlation_peaks(corr, threshold=0.5, min_spacing=100)
        assert peaks.tolist() == list(range(0, 20000, 100))


def searchsorted_peaks(corr, threshold, min_spacing=1):
    """The earlier ``correlation_peaks``: the same greedy NMS with two
    ``np.searchsorted`` range kills per accepted peak."""
    corr = np.asarray(corr, dtype=np.float64)
    candidates = np.flatnonzero(corr >= threshold)
    if candidates.size == 0:
        return candidates.astype(np.int64)
    if min_spacing <= 1:
        return candidates.astype(np.int64)
    heights = corr[candidates]
    order = np.lexsort((candidates, -heights))
    alive = np.ones(candidates.size, dtype=bool)
    accepted = np.zeros(candidates.size, dtype=bool)
    for i in order:
        if not alive[i]:
            continue
        accepted[i] = True
        lo = int(np.searchsorted(candidates, candidates[i] - min_spacing + 1, side="left"))
        hi = int(np.searchsorted(candidates, candidates[i] + min_spacing, side="left"))
        alive[lo:hi] = False
    return candidates[accepted].astype(np.int64)


class TestCorrelationPeaksReference:
    """The bisect suppression returns exactly what the searchsorted
    one did: same indices, same order, same dtype."""

    SPACINGS = (1, 2, 16, 64)

    @staticmethod
    def _check(corr, threshold, spacing):
        got = correlation_peaks(corr, threshold=threshold, min_spacing=spacing)
        want = searchsorted_peaks(corr, threshold, spacing)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_random_planes(self, spacing):
        rng = np.random.default_rng(spacing)
        for _ in range(40):
            corr = rng.uniform(size=int(rng.integers(1, 3000)))
            for threshold in (0.0, 0.5, 0.95, 1.1):
                self._check(corr, threshold, spacing)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_exact_ties(self, spacing):
        rng = np.random.default_rng(100 + spacing)
        for _ in range(40):
            # Two decimals over a long row: many exact ties per level.
            corr = np.round(rng.uniform(size=int(rng.integers(1, 2000))), 2)
            self._check(corr, 0.5, spacing)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_long_flat_plateaus(self, spacing):
        corr = np.zeros(5000)
        corr[100:1300] = 0.8
        corr[1290:1310] = 0.9  # a step inside the plateau's tail
        corr[2000:4999] = 0.8
        corr[4999] = 0.8
        self._check(corr, 0.5, spacing)
        self._check(np.full(3000, 0.7), 0.5, spacing)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0]), min_size=0, max_size=400),
        spacing=st.sampled_from(SPACINGS),
    )
    def test_generated_rows(self, values, spacing):
        self._check(np.array(values, dtype=np.float64), 0.5, spacing)
