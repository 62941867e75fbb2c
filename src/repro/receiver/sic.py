"""Successive interference cancellation (SIC) receiver extension.

The paper's near-far analysis (Sec. IV) motivates *tag-side* power
control because its receiver decodes every tag against the raw
collision.  The classic *receiver-side* alternative is SIC: decode the
strongest tag first, re-synthesise its contribution from the decoded
bits and the channel estimate, subtract it, and repeat.  This module
implements that extension so the benchmarks can quantify how much of
the power-control benefit a smarter receiver could recover without
touching the tags -- and where tag-side control still wins (SIC needs a
*successful* decode to cancel; when the strong tag itself fails,
nothing improves).

The cancellation pipeline reuses the standard stages unchanged: only
the orchestration differs from :class:`repro.receiver.receiver.CbmaReceiver`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.obs.taxonomy import C, S
from repro.phy.modulation import spread_bits, upsample_chips
from repro.receiver.ack import AckMessage
from repro.receiver.decoder import DecodedFrame
from repro.receiver.failures import DecodeFailure
from repro.receiver.frame_sync import FrameSyncResult
from repro.receiver.receiver import CbmaReceiver, ReceptionReport
from repro.tag.framing import FrameFormat
from repro.utils.bits import pack_bits
from repro.utils.contracts import array_contract

__all__ = ["SicReceiver"]


class SicReceiver(CbmaReceiver):
    """CBMA receiver with successive interference cancellation.

    Parameters match :class:`CbmaReceiver`; *max_passes* bounds the
    number of decode-and-subtract iterations (each pass removes every
    newly decoded tag before re-detecting the rest).
    """

    def __init__(self, *args, max_passes: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        self.max_passes = max_passes

    def process(
        self,
        iq: np.ndarray,
        round_index: int = 0,
        skip_energy_gate: bool = False,
        corr: Optional[np.ndarray] = None,
    ) -> ReceptionReport:
        """Iteratively decode and cancel until no new tag decodes.

        Honours the same degradation contract as
        :meth:`CbmaReceiver.process`: malformed input is sanitised, and
        a pass that blows up mid-cancellation is contained into a
        ``DecodeFailure`` while the frames already decoded stay on the
        report.  *corr* is used as in :meth:`CbmaReceiver.process`, by
        the first pass only: later passes detect on the residual.
        """
        tracer = self.tracer
        report = ReceptionReport(sync=FrameSyncResult(detections=[]))
        x, corr = self._front_end(iq, report.failures, corr)
        if not self._frame_sync(x, report, round_index, skip_energy_gate):
            return report

        succeeded: Dict[int, DecodedFrame] = {}
        failed: Dict[int, DecodedFrame] = {}
        best_detections: Dict[int, object] = {}
        residual = x
        for _pass in range(self.max_passes):
            try:
                residual, progressed = self._run_pass(
                    _pass, residual, succeeded, failed, best_detections, report,
                    corr if _pass == 0 else None,
                )
            except Exception as exc:
                # A failed pass ends cancellation but keeps everything
                # decoded so far: SIC degrades to "fewer passes", never
                # to a crash.
                self._contain(
                    report, DecodeFailure("sic", "exception", detail=f"pass {_pass}: {exc}")
                )
                break
            if not progressed:
                break

        report.detections = sorted(
            best_detections.values(), key=lambda d: d.score, reverse=True
        )
        report.frames = list(succeeded.values()) + [
            f for uid, f in failed.items() if uid not in succeeded
        ]
        try:
            self._suppress_ghosts(report)
        except Exception as exc:
            self._contain(report, DecodeFailure("decode", "ghost_suppression", detail=str(exc)))
        report.ack = AckMessage.for_ids(
            (f.user_id for f in report.frames if f.success), round_index
        )
        return report

    def _run_pass(
        self,
        _pass: int,
        residual: np.ndarray,
        succeeded: Dict[int, DecodedFrame],
        failed: Dict[int, DecodedFrame],
        best_detections: Dict[int, object],
        report: ReceptionReport,
        corr: Optional[np.ndarray] = None,
    ) -> tuple:
        """One detect-decode-cancel pass; returns ``(residual, progressed)``."""
        tracer = self.tracer
        with tracer.span(S.SIC, sic_pass=_pass):
            tracer.count(C.SIC_PASSES)
            with tracer.span(S.DETECT):
                detections = self.user_detector.detect(residual, corr=corr)
            for det in detections:
                if det.user_id not in succeeded:
                    best_detections[det.user_id] = det
            new_successes: List[tuple] = []
            for det in detections:
                if det.user_id in succeeded:
                    continue
                frame, (offset, _score, channel) = self._decode_user(residual, det, report)
                if frame.success:
                    new_successes.append((det, frame, (offset, channel)))
                else:
                    # Remember the latest failure, but keep the user
                    # eligible for the next pass: cancellation may be
                    # exactly what rescues it.
                    failed[det.user_id] = frame

            if not new_successes:
                return residual, False
            # Per-pass ghost dedup BEFORE committing: a wrong-code
            # correlator decodes the strongest frame bit-exact (see
            # _suppress_ghosts), and cancelling such a ghost with the
            # wrong code would corrupt the residual.  Keep only the
            # highest-scoring owner of each distinct payload; the
            # losers stay eligible -- once the true owner's frame is
            # cancelled, their own (weaker) frame becomes decodable.
            by_payload: Dict[bytes, list] = {}
            for entry in new_successes:
                by_payload.setdefault(entry[1].payload, []).append(entry)
            committed = [
                max(entries, key=lambda e: e[0].score) for entries in by_payload.values()
            ]
            for det, frame, (offset, channel) in committed:
                succeeded[det.user_id] = frame
                failed.pop(det.user_id, None)
                tracer.count(C.SIC_CANCELLATIONS)
                residual = self._cancel(residual, det.user_id, frame, offset, channel)
        return residual, True

    @array_contract(residual="(n) complex128", returns="(n) complex128")
    def _cancel(
        self,
        residual: np.ndarray,
        user_id: int,
        frame: DecodedFrame,
        preamble_offset: int,
        channel: complex,
    ) -> np.ndarray:
        """Subtract the reconstructed frame of *user_id* from *residual*.

        The frame is re-encoded exactly as the tag sent it (preamble +
        decoded body bits, spread, upsampled) and removed by a joint
        least-squares fit of its chip shape and a local constant over a
        small grid of sub-sample timing hypotheses -- see the inline
        comments for why each piece is needed.
        """
        fmt: FrameFormat = self.fmt
        if frame.raw_bits is None or preamble_offset < 0:
            return residual
        bits = pack_bits(fmt.preamble, frame.raw_bits)
        chips = spread_bits(bits, self.codes[user_id])
        unit = upsample_chips(chips, self.samples_per_chip).astype(np.float64)

        # Fractional-offset refinement: the detector's peak is integer,
        # but the tag's clock is not.  A residue of a few percent of
        # the strong tag's power (one fractional chip of rectangular
        # pulse mismatch) can still bury a 15-20 dB weaker tag, so the
        # canceller searches sub-sample offsets around the peak and
        # least-squares-fits the complex gain for each, keeping the
        # hypothesis with the smallest residual energy.
        from repro.phy.modulation import fractional_delay

        best = None
        base = max(preamble_offset - 1, 0)
        for frac in np.arange(0.0, 2.0, 0.25):
            start = base + frac
            delayed = fractional_delay(unit, start - base)
            end = min(base + delayed.size, residual.size)
            seg = delayed[: end - base]
            window = residual[base:end]
            energy = float(np.vdot(seg, seg).real)
            if energy <= 0 or seg.size == 0:
                continue
            # Two-basis least squares: the frame's chip shape plus a
            # local constant.  The receiver's DC blocker removed the
            # *global* mean, which included part of this frame's own
            # unipolar DC; fitting a local offset jointly with the gain
            # makes the cancellation exact again.
            ones = np.ones(seg.size)
            basis = np.stack([seg.astype(np.complex128), ones.astype(np.complex128)], axis=1)
            coeffs, *_ = np.linalg.lstsq(basis, window, rcond=None)
            synth = basis @ coeffs
            resid_energy = float(np.sum(np.abs(window - synth) ** 2))
            if best is None or resid_energy < best[0]:
                best = (resid_energy, synth, end)
        if best is None:
            return residual
        _, synth, end = best
        out = residual.copy()
        out[base:end] -= synth
        return out
