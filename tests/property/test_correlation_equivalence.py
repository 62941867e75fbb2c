"""Property-based equivalence: batched FFT kernel vs. the direct reference.

The batched kernel (:mod:`repro.utils.correlation_batch`) promises to be
*numerically interchangeable* with the direct per-template reference,
:func:`repro.utils.correlation.sliding_correlation` -- same scores to
FFT rounding, same detections, same candidate alignments.  These
properties pin that promise over generated input spaces instead of
hand-picked examples:

- kernel scores agree within 1e-9 for float64 and complex128 signals,
  1-10 stacked templates;
- on synthesized collisions (1-10 tags, samples_per_chip in {1, 2, 4})
  :class:`UserDetector` reports identical user sets, identical offsets
  and identical candidate-alignment sets when its bank correlates with
  the reference loop instead of the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import twonc_codes
from repro.receiver.user_detection import UserDetector
from repro.sim.collision import CollisionScenario, simulate_round
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag
from repro.utils.correlation import sliding_correlation
from repro.utils.correlation_batch import TemplateBank, sliding_correlation_batch

SCORE_TOL = 1e-9


def _direct(signal, templates):
    """The direct reference: one ``sliding_correlation`` per template."""
    return np.stack([sliding_correlation(signal, t) for t in templates])


def _collision(n_tags: int, samples_per_chip: int, seed: int):
    """A clean synthesized *n_tags*-collision round."""
    rng = np.random.default_rng(seed)
    fmt = FrameFormat()
    codes = twonc_codes(n_tags, 64)
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(n_tags)]
    scenario = CollisionScenario(
        tags=tags,
        amplitudes=[1.0 + 0.0j] * n_tags,
        samples_per_chip=samples_per_chip,
    )
    payloads = {
        i: rng.integers(0, 256, size=2).astype(np.uint8).tobytes() for i in range(n_tags)
    }
    iq, _truth = simulate_round(scenario, payloads, rng=rng)
    return np.asarray(iq), {i: codes[i] for i in range(n_tags)}, fmt


class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @given(seed=st.integers(0, 2**32 - 1), n_templates=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_fft_scores_match_direct(self, dtype, seed, n_templates):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 96))
        n = int(rng.integers(m, 2048))
        signal = rng.normal(size=n)
        if dtype is np.complex128:
            signal = signal + 1j * rng.normal(size=n)
        assert np.asarray(signal).dtype == dtype
        templates = np.sign(rng.normal(size=(n_templates, m))) + 0.0
        direct = _direct(signal, templates)
        fft = sliding_correlation_batch(signal, templates)
        assert fft.shape == direct.shape
        # Normalised scores live in [0, ~1]: absolute tolerance.
        assert float(np.abs(fft - direct).max()) < SCORE_TOL

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_argmax_offsets_agree(self, seed):
        """The peak alignment of every row is the same under the kernel
        and the reference (a 1e-9 score agreement is useless if the
        *offset* moved)."""
        rng = np.random.default_rng(seed)
        m = 32
        templates = np.sign(rng.normal(size=(5, m))) + 0.0
        # Embed each template in its own 300-sample stratum: distinct
        # offsets alone allow plants to overlap and corrupt each other,
        # which would move a row's global peak off its planted copy.
        signal = 0.05 * rng.normal(size=1500)
        offsets = rng.permutation(5) * 300 + rng.integers(0, 300 - m, size=5)
        for row, k in enumerate(offsets):
            signal[k : k + m] += templates[row]
        direct = _direct(signal, templates)
        fft = sliding_correlation_batch(signal, templates)
        assert np.array_equal(np.argmax(direct, axis=1), np.argmax(fft, axis=1))
        assert np.array_equal(np.argmax(direct, axis=1), np.asarray(offsets))


class TestDetectorEquivalence:
    @pytest.mark.parametrize("samples_per_chip", [1, 2, 4])
    @given(seed=st.integers(0, 10_000), n_tags=st.integers(1, 10))
    @settings(max_examples=6, deadline=None)
    def test_detections_identical_across_backends(self, samples_per_chip, seed, n_tags):
        iq, code_map, fmt = _collision(n_tags, samples_per_chip, seed)
        detector = UserDetector(code_map, fmt, samples_per_chip=samples_per_chip)

        rows_fft = dict(detector.correlation_rows(iq))
        assert rows_fft.keys() == code_map.keys()
        for uid, row in rows_fft.items():
            direct = sliding_correlation(iq, detector.template(uid))
            assert float(np.abs(direct - row).max()) < SCORE_TOL

        by_fft = {d.user_id: d for d in detector.detect(iq)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TemplateBank, "correlate", lambda bank, x: _direct(x, bank.matrix))
            by_direct = {d.user_id: d for d in detector.detect(iq)}
        assert by_direct.keys() == by_fft.keys()
        for uid, a in by_direct.items():
            b = by_fft[uid]
            assert a.offset == b.offset
            assert a.score == pytest.approx(b.score, abs=SCORE_TOL)
            # Candidate alignment sets are identical, in order.
            assert [c[0] for c in a.candidates] == [c[0] for c in b.candidates]
            for (_, sa, ha), (_, sb, hb) in zip(a.candidates, b.candidates):
                assert sa == pytest.approx(sb, abs=SCORE_TOL)
                assert ha == pytest.approx(hb, abs=SCORE_TOL)
