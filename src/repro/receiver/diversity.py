"""Multi-antenna (MRC) receiver extension.

The USRP RIO used by the paper has two receive chains; receive
diversity is the cheapest upgrade path the prototype leaves on the
table.  This module implements maximal-ratio combining:

- user detection runs per branch and combines correlation energies
  non-coherently (phases differ across antennas);
- each detected user's channel is estimated per branch;
- chip decisions slice ``sum_k Re(conj(h_k) * z_k)`` -- the matched
  combiner that is optimal for independent-branch AWGN.

Independent small-scale fading per antenna gives the usual diversity
gain against the deep-fade failures that dominate CBMA's error floor
at the knee.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.receiver.ack import AckMessage
from repro.receiver.decoder import ChipDecoder, DecodedFrame
from repro.receiver.receiver import CbmaReceiver, ReceptionReport, own_payloads
from repro.receiver.user_detection import UserDetection

__all__ = ["DiversityReceiver"]


class DiversityReceiver(CbmaReceiver):
    """MRC receiver over ``n_antennas`` independent branches.

    ``process_branches`` accepts a list of per-antenna sample buffers
    (equal length); the single-buffer :meth:`process` still works and
    degenerates to the base receiver.
    """

    def __init__(self, *args, n_antennas: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        self.n_antennas = n_antennas

    # ------------------------------------------------------------------
    # Branch-combining pipeline
    # ------------------------------------------------------------------

    def _combined_correlations(
        self, branches: Sequence[np.ndarray]
    ) -> "OrderedDict[int, np.ndarray]":
        """Square-law-combined correlation per user, batched per branch.

        Each branch takes **one** batched FFT pass over the stacked
        template bank (shared branch FFT, shared window-energy cumsum)
        instead of one ``np.convolve`` per user per branch; the
        per-user rows are then combined non-coherently across branches.
        """
        combined: "OrderedDict[int, np.ndarray]" = OrderedDict()
        for x in branches:
            for uid, corr in self.user_detector.correlation_rows(x):
                prev = combined.get(uid)
                combined[uid] = corr**2 if prev is None else prev + corr**2
        # Root-SUM, not root-mean: a deeply faded branch must never
        # drag the detection statistic below what the good branch
        # alone would give (non-coherent square-law combining).
        return OrderedDict((uid, np.sqrt(acc)) for uid, acc in combined.items())

    def _detect_combined(self, branches: Sequence[np.ndarray]) -> List[UserDetection]:
        """User detection on non-coherently combined correlations."""
        out: List[UserDetection] = []
        for uid, combined in self._combined_correlations(branches).items():
            ranked = self.user_detector.rank_hypotheses(uid, combined)
            if not ranked:
                continue
            template = self.user_detector.template(uid)
            t_energy = float(np.vdot(template, template).real)
            candidates = []
            for k in ranked:
                channels = tuple(
                    complex(np.vdot(template, x[k : k + template.size]) / t_energy)
                    for x in branches
                )
                candidates.append((k, float(combined[k]), channels))
            peak, score, channels = max(candidates, key=lambda c: c[1])
            out.append(
                UserDetection(
                    user_id=uid, offset=peak, score=score,
                    channel=channels[0], candidates=tuple(candidates),
                )
            )
        out.sort(key=lambda d: d.score, reverse=True)
        return out

    def _decode_mrc(
        self,
        branches: Sequence[np.ndarray],
        decoder: ChipDecoder,
        preamble_start: int,
        channels: Sequence[complex],
        user_id: int,
    ) -> DecodedFrame:
        """Progressive frame decode with per-bit MRC combining."""

        def mrc_bits(start: int, n_bits: int) -> Optional[np.ndarray]:
            acc = None
            for x, h in zip(branches, channels):
                stats = decoder.decision_statistics(x, start, n_bits)
                if stats is None:
                    return None
                contrib = np.real(np.conj(h if h != 0 else 1.0) * stats)
                acc = contrib if acc is None else acc + contrib
            return (acc > 0).astype(np.uint8)

        return decoder.decode_with(mrc_bits, preamble_start, user_id)

    def process_branches(self, branches: Sequence[np.ndarray], round_index: int = 0) -> ReceptionReport:
        """Full pipeline over per-antenna buffers."""
        branches = [np.asarray(b) for b in branches]
        if self.dc_block:
            branches = [b - np.mean(b) if b.size else b for b in branches]
        if len(branches) != self.n_antennas:
            raise ValueError(f"expected {self.n_antennas} branches, got {len(branches)}")
        if len({b.size for b in branches}) != 1:
            raise ValueError("branches must share one length")

        # Frame sync per branch, OR-combined: averaging the envelopes
        # would let a deeply faded branch dilute the relative 3 dB rise
        # the detector looks for on the healthy branch.
        detections: List[int] = []
        for b in branches:
            detections.extend(self.energy_detector.detect(b).detections)
        from repro.receiver.frame_sync import FrameSyncResult

        sync = FrameSyncResult(detections=sorted(set(detections)))
        report = ReceptionReport(sync=sync)
        if not sync.detected:
            report.ack = AckMessage.for_ids([], round_index)
            return report

        report.detections = self._detect_combined(branches)
        frames = []
        for det in report.detections:
            decoder = self._decoders[det.user_id]
            frame = None
            for offset, _score, channels in det.candidates:
                attempt = self._decode_mrc(branches, decoder, offset, channels, det.user_id)
                if frame is None or (attempt.success and not frame.success):
                    frame = attempt
                if attempt.success:
                    break
            frames.append(frame)

        owners: Dict[bytes, int] = {}
        own_payloads([(det.score, f) for det, f in zip(report.detections, frames)], owners)
        self._settle(report, frames, owners, round_index)
        return report
