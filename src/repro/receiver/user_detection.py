"""User detection: which tags are inside a detected frame collision.

Paper Sec. III-B: "we use each of the PN sequences to cross-correlate
with the preamble of the received frame.  If the correlation value of a
PN sequence is larger than a predetermined threshold, the user with
this PN sequence is determined to be in the frame with high
probability."

For each registered tag the detector builds the *spread preamble
template* (preamble bits encoded with that tag's PN code, upsampled),
slides it over a search window around the energy detection, and
declares the user present when the normalised correlation peak clears
the threshold.  The peak position doubles as the tag's timing estimate
and the complex projection at the peak as its channel estimate -- both
consumed by the decoder.

Every template is correlated in one batched FFT pass over the code
book's cached :class:`~repro.utils.correlation_batch.TemplateBank`, so
the code book must stack: an empty or mixed-length book raises
:class:`ValueError` at construction.  A caller that already holds that
pass's output for the same samples (the streaming pre-gate) hands it to
:meth:`UserDetector.detect` as *corr* instead of paying for it twice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.tag.framing import FrameFormat
from repro.utils.contracts import array_contract
from repro.utils.correlation import correlation_peaks
from repro.utils.correlation_batch import TemplateBank, template_bank

__all__ = ["UserDetector", "UserDetection"]


@dataclass(frozen=True)
class UserDetection:
    """One detected user within a collision.

    ``offset``/``score``/``channel`` describe the best alignment;
    ``candidates`` lists up to a handful of near-maximal alignments
    (best first) for multi-hypothesis decoding.  The CBMA preamble is
    an alternating bit pattern and bit-0 chips are the negated code, so
    alignments shifted by whole bits *anti-correlate* at almost full
    magnitude -- phase-blind correlation cannot resolve them, but the
    frame CRC can: the receiver tries each candidate until one parses.
    """

    user_id: int
    offset: int
    """Sample index (within the search buffer) where the frame begins."""
    score: float
    """Normalised correlation peak in [0, 1]."""
    channel: complex
    """Estimated complex channel gain (amplitude of a unit chip)."""
    candidates: tuple = ()
    """((offset, score, channel), ...) alternative alignments, best first."""
    strongest: Optional[Tuple[int, float]] = None
    """``(offset, score)`` of the strongest lag of the whole correlated
    window when an owned span left it out of ``candidates``; ``None``
    when it is the headline ``(offset, score)``."""


class UserDetector:
    """Correlation-based multi-user detector.

    Parameters
    ----------
    codes:
        Mapping user id -> PN code (0/1 chips).
    fmt:
        Frame format (the preamble is the correlation anchor).
    samples_per_chip:
        Oversampling factor of the receive buffer.
    threshold:
        Normalised-correlation acceptance threshold.  The score of a
        present user scales as ``~0.7/sqrt(n_tags)`` (the window energy
        contains every tag), i.e. ~0.22 for a 10-tag collision, while
        an absent user's leakage stays below ~0.3x the strongest
        present score; 0.12 accepts all present users up to 10-tag
        collisions and lets near-far-suppressed users fail -- the
        behaviour power control exists to fix.  The user-detection
        benchmark sweeps this.
    """

    def __init__(
        self,
        codes: Dict[int, np.ndarray],
        fmt: Optional[FrameFormat] = None,
        samples_per_chip: int = 1,
        threshold: float = 0.12,
        max_hypotheses: int = 8,
    ):
        if not codes:
            raise ValueError("detector needs at least one user code")
        if samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")
        self.fmt = fmt or FrameFormat()
        self.samples_per_chip = samples_per_chip
        self.threshold = threshold
        self.max_hypotheses = max_hypotheses
        self.codes = {int(uid): np.asarray(code, dtype=np.uint8) for uid, code in codes.items()}
        # Bipolar spread-preamble templates: zero-mean-ish, so the
        # correlation rejects the DC offset contributed by other tags'
        # unipolar chip activity.  The stacked bank is memoised per
        # (format, codes, oversampling) and feeds the batched FFT
        # kernel; an empty or mixed-length code book raises ValueError.
        self._bank = template_bank(self.fmt, self.codes, samples_per_chip)
        # Bank rows in this detector's code order (the cached bank may
        # have been built by a detector with another dict order).
        row_of = {uid: row for row, uid in enumerate(self._bank.user_ids)}
        self._rows: Tuple[Tuple[int, int], ...] = tuple(
            (uid, row_of[uid]) for uid in self.codes
        )

    @property
    def bank(self) -> TemplateBank:
        """The stacked template bank of this detector's code book."""
        return self._bank

    def template(self, user_id: int) -> np.ndarray:
        """The spread-preamble template for *user_id* (bipolar, upsampled)."""
        return self._bank.template(user_id)

    def correlation_rows(self, window: np.ndarray) -> Iterable[Tuple[int, np.ndarray]]:
        """``(user_id, normalised sliding correlation)`` per user.

        One batched FFT pass over the stacked bank: shared window FFT
        plus shared window-energy cumsum.  A window shorter than the
        templates yields nothing.
        """
        x = np.asarray(window)
        if x.size < self._bank.template_samples:
            return
        corr = self._bank.correlate(x)
        for uid, row in self._rows:
            yield uid, corr[row]

    def rank_hypotheses(
        self, user_id: int, corr: np.ndarray, owned: Optional[int] = None
    ) -> List[int]:
        """Alignment hypotheses of *user_id* in its correlation row *corr*.

        Empty when the row's maximum misses the threshold (the user is
        absent).  Otherwise the near-maximal alternative alignments --
        the +/-k-bit correlation images of the alternating preamble,
        plus any payload stretch that happens to imitate the preamble
        pattern -- spaced at least half a bit block apart so sub-sample
        neighbours of one peak are not counted as separate hypotheses.
        They are ordered EARLIEST FIRST: the true preamble always
        precedes payload content that mimics it, and a too-early image
        simply fails its CRC and falls through to the next candidate.
        At most ``max_hypotheses`` are returned, and the global maximum
        is always among them even when many above-threshold leak peaks
        precede it -- it is usually the true preamble (or a +/-1-bit
        image of it).

        With an *owned* span only the lags ``[0, owned)`` are
        hypotheses, still judged near-maximal against the whole row;
        the owned maximum stands in for the global one.
        """
        span = corr[:owned]
        if span.size == 0:
            return []
        best = int(np.argmax(span))
        score = float(span[best])
        if score < self.threshold:
            return []
        block = self.samples_per_chip * int(self.codes[user_id].size)
        near = max(self.threshold, 0.5 * float(corr.max()))
        peaks = correlation_peaks(corr, threshold=near, min_spacing=max(block // 2, 1))
        ranked = peaks[peaks < span.size][: self.max_hypotheses - 1].tolist()
        if best not in ranked:
            bisect.insort(ranked, best)
        return ranked

    @array_contract(window="(n) complex128")
    def detect(
        self,
        window: np.ndarray,
        max_users: Optional[int] = None,
        corr: Optional[np.ndarray] = None,
        owned: Optional[int] = None,
    ) -> List[UserDetection]:
        """Detect users inside *window* (complex samples).

        The window should start at (or slightly before) the energy
        detection and span at least one spread preamble plus the
        largest expected inter-tag offset.  Returns detections sorted
        by descending score, truncated to *max_users* when given.

        *corr*, when given, is ``self.bank.correlate(window)`` computed
        earlier over these very samples (a stacked ``correlate_many``
        row is bit-identical to it); the detector then skips its own
        correlation pass.

        With an *owned* span every candidate starts in ``[0, owned)``.
        """
        x = np.asarray(window)
        out: List[UserDetection] = []
        n_valid = x.size - self._bank.template_samples + 1
        if n_valid <= 0:
            return out
        if corr is None:
            corr = self._bank.correlate(x)
        elif corr.shape != (self._bank.n_users, n_valid):
            raise ValueError(
                f"correlation plane of shape {corr.shape} does not match a "
                f"{x.size}-sample window of this bank"
            )
        for uid, bank_row in self._rows:
            corr_u = corr[bank_row]
            ranked = self.rank_hypotheses(uid, corr_u, owned)
            if not ranked:
                continue
            template = self._bank.template(uid)
            m = template.size
            t_energy = float(np.vdot(template, template).real)
            # Least-squares complex gain of a unit-amplitude chip at
            # each alignment: h = <x, t> / ||t||^2 with t the bipolar
            # template.
            candidates = [
                (k, score, complex(np.vdot(template, x[k : k + m]) / t_energy))
                for k, score in zip(ranked, corr_u[ranked].tolist())
            ]
            # Report the strongest candidate as the detection's headline
            # offset/score (used for ranking and ghost arbitration).
            peak, score, h = max(candidates, key=lambda c: c[1])
            top = int(np.argmax(corr_u))
            strongest = None if top == peak else (top, float(corr_u[top]))
            out.append(UserDetection(uid, peak, score, h, tuple(candidates), strongest))
        out.sort(key=lambda d: d.score, reverse=True)
        if max_users is not None:
            out = out[:max_users]
        return out
