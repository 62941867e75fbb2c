"""Phase-tracking receiver: surviving carrier frequency offset (CFO).

The baseband model usually assumes the tag's 20 MHz square wave sits
exactly where the receiver expects.  A real tag clock with ppm error
``e`` shifts the subcarrier by ``e * 20 MHz`` -- 400 Hz at crystal-grade
20 ppm -- which rotates the constellation continuously: over a 10 ms
frame that is several *full turns*, and a decoder that trusts the
preamble's single phase estimate decodes garbage beyond the first
fraction of a turn.

:class:`PhaseTrackingReceiver` adds the standard cure, decision-
directed phase tracking: after each bit decision the channel estimate
is updated from that bit's own correlation statistic, so the estimate
rotates along with the signal.  The loop bandwidth (``alpha``) trades
noise averaging against the maximum trackable CFO (~``alpha / (2 pi
T_bit)`` before the loop lags a turn).

Enable the matching impairment with ``CbmaConfig(cfo_hz_sigma=...)``;
both default off so the calibrated paper pipeline is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.receiver.receiver import CbmaReceiver

__all__ = ["PhaseTrackingReceiver"]


class PhaseTrackingReceiver(CbmaReceiver):
    """CBMA receiver with decision-directed per-bit phase tracking.

    Parameters match :class:`CbmaReceiver` plus *alpha*, the tracking
    loop gain in (0, 1]: each decided bit pulls the channel estimate
    ``h`` toward that bit's measured phase by a factor *alpha*.
    """

    def __init__(self, *args, alpha: float = 0.35, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha

    # The base class's process() calls each decoder's decode_candidates;
    # we intercept at that granularity by swapping the decoders.

    def process(self, iq, *args, **kwargs):
        # Reuse the whole base pipeline but swap the decode function.
        original_decoders = self._decoders
        try:
            self._decoders = {
                uid: _TrackingAdapter(dec, self.alpha) for uid, dec in original_decoders.items()
            }
            return super().process(iq, *args, **kwargs)
        finally:
            self._decoders = original_decoders


class _TrackingAdapter:
    """Wraps a ChipDecoder with decision-directed phase tracking."""

    def __init__(self, decoder, alpha: float):
        self._decoder = decoder
        self.alpha = alpha

    def __getattr__(self, name):
        return getattr(self._decoder, name)

    def _tracked_bits(self, window, start, n_bits, h):
        """Decode *n_bits* updating ``h`` after every decision.

        Returns (bits, final_h) or (None, h) when truncated.
        """
        dec = self._decoder
        x = np.asarray(window)
        end = start + n_bits * dec.block_samples
        if start < 0 or end > x.size:
            return None, h
        template = dec._template
        w_eff = float(np.sum(np.abs(template) ** 2)) / 2.0  # ~ones count x spc
        bits = np.empty(n_bits, dtype=np.uint8)
        for k in range(n_bits):
            block = x[start + k * dec.block_samples : start + (k + 1) * dec.block_samples]
            z = complex(block @ np.conj(template))
            bit = 1 if np.real(np.conj(h) * z) > 0 else 0
            bits[k] = bit
            # The statistic of a correct decision is ~ h * W * (+/-1);
            # fold its phase back into h (decision-directed update).
            sign = 1.0 if bit else -1.0
            observed = z * sign / max(w_eff, 1e-30)
            h = (1.0 - self.alpha) * h + self.alpha * observed
        return bits, h

    def decode_candidates(self, window, candidates, user_id=-1):
        """The plain hypothesis loop over the tracking :meth:`decode_frame`.

        :meth:`ChipDecoder.decode_candidates` screens length fields
        with the static channel estimate; under CFO that screen can
        read another length byte than the tracking loop does.
        """
        first = None
        for index, (offset, _score, channel) in enumerate(candidates):
            frame = self.decode_frame(window, offset, channel, user_id)
            if frame.success:
                return frame, index
            if first is None:
                first = frame
        return first, 0

    def decode_frame(self, window, preamble_start, channel, user_id=-1):
        h = 1.0 + 0j if channel == 0 else channel

        def tracked_bits(start, n_bits):
            # The loop's estimate carries over from the length field
            # into the rest of the frame.
            nonlocal h
            bits, h = self._tracked_bits(window, start, n_bits, h)
            return bits

        return self._decoder.decode_with(tracked_bits, preamble_start, user_id)
