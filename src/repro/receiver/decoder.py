"""Cross-correlation chip decoding (paper Sec. III-B).

"After user detection, we use the PN sequences of the detected users to
perform cross-correlation with each chip (the spread symbols to
represent one bit) from the synchronized frame.  If the correlation
with the PN sequence representing '1' is higher than that with the PN
sequence representing '0', the chip is decoded to '1', and vice versa."

Because CBMA's bit-0 chips are the exact negation of the bit-1 chips,
"correlate with both and compare" reduces to the sign of a single
coherent correlation against the bipolar code template, phase-aligned
with the channel estimate from user detection.  Decoding is
*progressive*: the 8-bit length field is decoded first, which bounds
how many further bits the frame contains, then payload + CRC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.obs.taxonomy import C, S
from repro.obs.tracer import as_tracer
from repro.phy.modulation import upsample_chips
from repro.tag.framing import FrameError, FrameFormat, MAX_PAYLOAD_BYTES
from repro.utils.bits import bits_to_bipolar
from repro.utils.contracts import array_contract

__all__ = ["ChipDecoder", "DecodedFrame"]

#: MSB-first place values of the 8-bit length field.
_BYTE_WEIGHTS = 1 << np.arange(7, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one user's frame from a collision."""

    user_id: int
    success: bool
    payload: Optional[bytes]
    reason: str
    """"ok", "length" (implausible length field), "truncated", or "crc"."""
    offset: int
    """Sample of the window where the decoded preamble starts: the
    alignment hypothesis this outcome belongs to."""
    raw_bits: Optional[np.ndarray] = None
    """Post-preamble bits as decoded (for BER analysis), if available."""


class ChipDecoder:
    """Decodes one user's bits from a synchronised sample window.

    Parameters
    ----------
    code:
        The user's PN code (0/1 chips).
    fmt:
        Frame format (for field geometry and CRC).
    samples_per_chip:
        Oversampling factor of the receive buffer.
    tracer:
        Optional :class:`repro.obs.Tracer`; the CRC check records a
        ``crc`` span and ``crc.ok`` / ``crc.fail`` counters.
    """

    def __init__(self, code: np.ndarray, fmt: Optional[FrameFormat] = None, samples_per_chip: int = 1, tracer=None):
        self.tracer = as_tracer(tracer)
        self.fmt = fmt or FrameFormat()
        self.samples_per_chip = int(samples_per_chip)
        if self.samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")
        self.code = np.asarray(code, dtype=np.uint8)
        self._template = upsample_chips(bits_to_bipolar(self.code), self.samples_per_chip)
        self._matched = np.conj(self._template)
        self.block_samples = self._template.size
        self._length_span = np.arange(8 * self.block_samples)

    def decision_statistics(self, window: np.ndarray, start: int, n_bits: int) -> Optional[np.ndarray]:
        """Raw complex correlation statistic per bit (no decision).

        Exposed for diversity combining: a multi-antenna receiver sums
        ``Re(conj(h_k) * stats_k)`` across branches before slicing.
        Returns ``None`` when the window is too short.
        """
        x = np.asarray(window)
        end = start + n_bits * self.block_samples
        if start < 0 or end > x.size:
            return None
        blocks = x[start:end].reshape(n_bits, self.block_samples)
        return blocks @ self._matched

    def decode_bits(self, window: np.ndarray, start: int, n_bits: int, channel: complex) -> Optional[np.ndarray]:
        """Decode *n_bits* consecutive bits beginning at sample *start*.

        Returns ``None`` when the window is too short (truncated frame).
        Each bit's statistic is ``Re(conj(h) * <template, block>)``;
        the bit is 1 when the statistic is positive (bit-0 chips are
        the negated code, so the statistic is symmetric).
        """
        x = np.asarray(window)
        end = start + n_bits * self.block_samples
        if start < 0 or end > x.size:
            return None
        if channel == 0:
            channel = 1.0 + 0j
        blocks = x[start:end].reshape(n_bits, self.block_samples)
        stats = blocks @ self._matched
        decisions = (np.real(np.conj(channel) * stats) > 0).astype(np.uint8)
        return decisions

    @array_contract(window="(n) complex128")
    def decode_frame(self, window: np.ndarray, preamble_start: int, channel: complex, user_id: int = -1) -> DecodedFrame:
        """Progressively decode a full frame.

        *preamble_start* is the sample where the spread preamble begins
        (the user-detection peak).  The preamble itself is not
        re-decoded -- it served as the synchronisation anchor -- so
        decoding starts at the length field.
        """
        return self.decode_with(
            lambda start, n_bits: self.decode_bits(window, start, n_bits, channel),
            preamble_start,
            user_id,
        )

    def decode_with(
        self,
        decide: Callable[[int, int], Optional[np.ndarray]],
        preamble_start: int,
        user_id: int = -1,
    ) -> DecodedFrame:
        """Progressive frame decode over any bit-decision rule.

        ``decide(start, n_bits)`` returns the ``uint8`` 0/1 decisions of
        *n_bits* bits beginning at sample *start*, or ``None`` when the
        window is too short; :meth:`decode_frame` passes
        :meth:`decode_bits`, the diversity and phase-tracking receivers
        pass their own rules.  The length byte bounds the rest of the
        frame; the decided body is packed once and settled by
        :meth:`FrameFormat.check_body` inside the ``crc`` span.
        """
        body_start = preamble_start + self.fmt.preamble_bits * self.block_samples
        length_bits = decide(body_start, 8)
        if length_bits is None:
            return DecodedFrame(user_id, False, None, "truncated", preamble_start)
        length = int(length_bits @ _BYTE_WEIGHTS)
        if length > MAX_PAYLOAD_BYTES:
            return DecodedFrame(user_id, False, None, "length", preamble_start, raw_bits=length_bits)
        rest_bits = decide(body_start + 8 * self.block_samples, 8 * length + 16)
        if rest_bits is None:
            return DecodedFrame(user_id, False, None, "truncated", preamble_start, raw_bits=length_bits)

        raw_bits = np.concatenate((length_bits, rest_bits))
        tracer = self.tracer
        try:
            with tracer.span(S.CRC):
                payload = self.fmt.check_body(np.packbits(raw_bits))
        except FrameError:
            tracer.count(C.CRC_FAIL)
            return DecodedFrame(user_id, False, None, "crc", preamble_start, raw_bits=raw_bits)
        tracer.count(C.CRC_OK)
        return DecodedFrame(user_id, True, payload, "ok", preamble_start, raw_bits=raw_bits)

    @array_contract(window="(n) complex128")
    def decode_candidates(
        self, window: np.ndarray, candidates: Sequence[tuple], user_id: int = -1
    ) -> Tuple[DecodedFrame, int]:
        """Decode the first of several alignment hypotheses that parses.

        *candidates* holds ``(preamble_start, score, channel)`` triples
        (:attr:`~repro.receiver.user_detection.UserDetection.candidates`),
        tried in order.  Returns what calling :meth:`decode_frame` on
        each in turn, stopping at the first success, would return --
        the first success, else the first candidate's outcome -- and the
        index of the candidate that produced it.

        The length fields of all candidates are decided in one strided
        product first.  A candidate whose length byte is implausible or
        whose frame overruns the window gets its ``"length"`` or
        ``"truncated"`` outcome from that screen; only the rest reach
        :meth:`decode_frame` and its CRC check.  Each length bit comes
        from the same ``(8, block) @ template`` product and channel
        projection as in :meth:`decode_bits`, so the screen and the
        full decode cannot disagree.
        """
        if not candidates:
            raise ValueError("decode_candidates needs at least one candidate")
        x = np.asarray(window)
        n, blk = x.size, self.block_samples
        lead = self.fmt.preamble_bits * blk
        # Candidates whose 8-bit length field lies inside the window.
        fits = [k for k, c in enumerate(candidates) if 0 <= c[0] + lead <= n - 8 * blk]
        if fits:
            body = np.array([candidates[k][0] + lead for k in fits], dtype=np.int64)
            gathered = x[body[:, None] + self._length_span].reshape(len(fits), 8, blk)
            # conj(h) per candidate, h == 0 read as 1 (see decode_bits).
            weights = np.array(
                [(candidates[k][2] or 1.0).conjugate() for k in fits], dtype=np.complex128
            )
            length_bits = ((weights[:, None] * (gathered @ self._matched)).real > 0).astype(np.uint8)
            lengths = (length_bits @ _BYTE_WEIGHTS).tolist()
        first = None
        for j, k in enumerate(fits):
            frame_end = candidates[k][0] + lead + (8 * lengths[j] + 24) * blk
            if lengths[j] > MAX_PAYLOAD_BYTES or frame_end > n:
                continue
            offset, _score, channel = candidates[k]
            frame = self.decode_frame(x, offset, channel, user_id=user_id)
            if frame.success:
                return frame, k
            if k == 0:
                first = frame
        if first is not None:
            return first, 0
        # Candidate 0 was settled by the screen.
        start = candidates[0][0]
        if not fits or fits[0] != 0:
            return DecodedFrame(user_id, False, None, "truncated", start), 0
        reason = "length" if lengths[0] > MAX_PAYLOAD_BYTES else "truncated"
        return DecodedFrame(user_id, False, None, reason, start, raw_bits=length_bits[0].copy()), 0
