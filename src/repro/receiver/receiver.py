"""The full CBMA receiver pipeline.

Chains the four stages of paper Sec. III-B over a raw sample buffer:

1. frame synchronisation (energy detection),
2. user detection (preamble cross-correlation per PN code),
3. chip decoding (coherent correlation, progressive length parsing),
4. acknowledgement (broadcast of decoded tag ids).

The receiver owns no ground truth: everything -- timing, channel
gains, who transmitted -- is estimated from the samples, so simulated
error rates reflect the real algorithmic weaknesses (asynchrony and
near-far) the paper sets out to fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.taxonomy import C, G, S, decode_outcome
from repro.obs.tracer import as_tracer
from repro.receiver.ack import AckMessage
from repro.receiver.decoder import ChipDecoder, DecodedFrame
from repro.receiver.failures import DecodeFailure, sanitize_buffer
from repro.receiver.frame_sync import EnergyDetector, FrameSyncResult
from repro.receiver.user_detection import UserDetection, UserDetector
from repro.tag.framing import FrameFormat

__all__ = ["CbmaReceiver", "ReceptionReport"]


@dataclass
class ReceptionReport:
    """Everything the receiver concluded about one buffer."""

    sync: FrameSyncResult
    """Energy frame-sync verdict.  Empty (no detections) when the
    buffer was processed with ``skip_energy_gate=True``: the energy
    detector does not run then, so neither its ``frame_sync`` span nor
    its ``frame_sync.*`` counters are recorded."""
    detections: List[UserDetection] = field(default_factory=list)
    frames: List[DecodedFrame] = field(default_factory=list)
    ack: AckMessage = field(default_factory=AckMessage)
    failures: List[DecodeFailure] = field(default_factory=list)
    """Contained pipeline failures (degradation contract: the pipeline
    never raises; it records what went wrong here instead)."""

    @property
    def degraded(self) -> bool:
        """True when any stage had to degrade instead of completing."""
        return bool(self.failures)

    def frame_for(self, user_id: int) -> Optional[DecodedFrame]:
        """The decode outcome for *user_id*, if it was detected."""
        for frame in self.frames:
            if frame.user_id == user_id:
                return frame
        return None

    def decoded_payloads(self) -> Dict[int, bytes]:
        """Mapping user id -> payload for successful decodes."""
        return {f.user_id: f.payload for f in self.frames if f.success}


class CbmaReceiver:
    """Multi-user backscatter receiver.

    Parameters
    ----------
    codes:
        Mapping tag id -> PN code for every tag in the group ("the
        receiver uses all the PN codes of the tags in the group").
    fmt:
        Frame format shared with the tags.
    samples_per_chip:
        Oversampling factor of the incoming buffer.
    detector:
        Energy detector (frame sync); defaults tuned for the
        simulator's buffer sizes.
    user_threshold:
        Normalised-correlation threshold for user detection.
    dc_block:
        Subtract the buffer mean before processing.  Off by default
        (the calibrated paper pipeline assumes a tone-free shifted
        band); enable when the excitation carrier leaks into the
        capture as a constant offset.
    tracer:
        Optional :class:`repro.obs.Tracer`; when given, every pipeline
        stage records spans, counters and gauges.  ``None`` (default)
        keeps the hot path free of observation cost.

    Prefer :meth:`from_config` over passing loose keyword arguments:
    it derives everything from a :class:`~repro.sim.network.CbmaConfig`
    so the config fields are not duplicated at each call site.
    """

    def __init__(
        self,
        codes: Dict[int, np.ndarray],
        fmt: Optional[FrameFormat] = None,
        samples_per_chip: int = 1,
        detector: Optional[EnergyDetector] = None,
        user_threshold: float = 0.12,
        dc_block: bool = False,
        tracer=None,
    ):
        self.dc_block = dc_block
        self.tracer = as_tracer(tracer)
        self.fmt = fmt or FrameFormat()
        self.samples_per_chip = int(samples_per_chip)
        self.codes = {int(uid): np.asarray(c, dtype=np.uint8) for uid, c in codes.items()}
        self.energy_detector = detector or EnergyDetector()
        if getattr(self.energy_detector, "tracer", None) is None and self.tracer.enabled:
            self.energy_detector.tracer = self.tracer
        self.user_detector = UserDetector(
            self.codes, self.fmt, samples_per_chip=self.samples_per_chip, threshold=user_threshold
        )
        self._decoders = {
            uid: ChipDecoder(code, self.fmt, self.samples_per_chip, tracer=self.tracer)
            for uid, code in self.codes.items()
        }

    @classmethod
    def from_config(
        cls,
        config,
        *,
        codes: Optional[Dict[int, np.ndarray]] = None,
        tracer=None,
        detector: Optional[EnergyDetector] = None,
        dc_block: bool = False,
        **kwargs,
    ) -> "CbmaReceiver":
        """Build a receiver from a :class:`~repro.sim.network.CbmaConfig`.

        This is the one supported construction path: frame format,
        oversampling and detection threshold come straight from the
        config instead of being re-typed as loose kwargs at every call
        site.  *codes* defaults to the config's code family over
        tag ids ``0..n_tags-1``; subclass-specific options (e.g.
        ``max_passes`` for :class:`~repro.receiver.sic.SicReceiver`)
        pass through ``**kwargs``.
        """
        if codes is None:
            from repro.codes.registry import make_codes

            generated = make_codes(config.code_family, config.n_tags, config.code_length)
            codes = {i: generated[i] for i in range(config.n_tags)}
        return cls(
            codes,
            fmt=config.frame_format(),
            samples_per_chip=config.samples_per_chip,
            detector=detector,
            user_threshold=config.user_threshold,
            dc_block=dc_block,
            tracer=tracer,
            **kwargs,
        )

    def _contain(self, report: ReceptionReport, failure: DecodeFailure) -> None:
        """Record a contained pipeline failure (degradation contract)."""
        report.failures.append(failure)
        if self.tracer.enabled:
            self.tracer.count(failure.counter)

    def _front_end(
        self, iq, report_failures: List[DecodeFailure], corr: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Input hygiene shared with :class:`~repro.receiver.sic.SicReceiver`.

        Returns the cleaned samples, and *corr* (the caller's
        correlation plane of *iq*) only if it still describes them:
        widened, repaired or DC-blocked samples are a new array, whose
        plane must be computed afresh.
        """
        x, failures = sanitize_buffer(iq)
        for failure in failures:
            report_failures.append(failure)
            if self.tracer.enabled:
                self.tracer.count(failure.counter)
        if self.dc_block and x.size:
            # Carrier-leak blocker (opt-in): a constant offset would
            # swamp the energy detector's baseline and the correlators'
            # local energy normalisation.
            x = x - np.mean(x)
        return x, (corr if x is iq else None)

    def _frame_sync(
        self, x: np.ndarray, report: ReceptionReport, round_index: int, skip_energy_gate: bool
    ) -> bool:
        """Energy frame sync of *x* into ``report.sync``; False ends the round.

        With *skip_energy_gate* nothing reads the verdict, so the
        detector does not run at all and ``report.sync`` stays empty.
        """
        if skip_energy_gate:
            return True
        tracer = self.tracer
        try:
            with tracer.span(S.FRAME_SYNC):
                report.sync = self.energy_detector.detect(x)
        except Exception as exc:
            self._contain(report, DecodeFailure("frame_sync", "exception", detail=str(exc)))
        if report.sync.detected:
            return True
        tracer.count(C.FRAME_SYNC_MISSES)
        report.ack = AckMessage.for_ids([], round_index)
        return False

    def _decode_user(
        self, x: np.ndarray, det: UserDetection, report: ReceptionReport
    ) -> Tuple[DecodedFrame, tuple]:
        """Decode one detected user.

        Returns the frame and the ``(offset, score, channel)`` candidate
        that produced it (the one SIC cancels).

        Multi-hypothesis decoding: the alternating preamble has
        +/-k-bit correlation images the detector cannot resolve by
        magnitude, so each near-maximal alignment is tried (earliest
        first) until one yields a CRC-valid frame (false-accept is
        2^-16 per attempt, negligible across the handful of
        hypotheses).  A decoder blow-up is contained as a per-user
        failed frame: the report still accounts for the detection, and
        the other users' decodes proceed untouched.
        """
        tracer = self.tracer
        candidates = det.candidates or ((det.offset, det.score, det.channel),)
        index = 0
        try:
            with tracer.span(S.DECODE, user=det.user_id):
                frame, index = self._decoders[det.user_id].decode_candidates(
                    x, candidates, user_id=det.user_id
                )
        except Exception as exc:
            self._contain(
                report,
                DecodeFailure("decode", "exception", user_id=det.user_id, detail=str(exc)),
            )
            frame = DecodedFrame(
                user_id=det.user_id, success=False, payload=None, reason="exception"
            )
        tracer.count(decode_outcome(frame.reason))
        return frame, candidates[index]

    def process(
        self,
        iq: np.ndarray,
        round_index: int = 0,
        skip_energy_gate: bool = False,
        corr: Optional[np.ndarray] = None,
    ) -> ReceptionReport:
        """Run the full pipeline over a complex sample buffer.

        When *skip_energy_gate* is set the user detector scans the
        whole buffer without an energy detection -- used by the
        streaming walk, whose correlation pre-gate already chose the
        window, and by experiments that isolate later stages (paper
        Sec. VII-B2 "adopt the best parameters obtained in the above
        section").  The energy detector is then not run, and
        ``report.sync`` stays empty.

        *corr* is the template bank's correlation plane of *iq*, when
        the caller already computed it (the streaming pre-gate).  It
        reaches the user detector only when the front end hands *iq*
        through untouched; widened, repaired or DC-blocked samples are
        correlated afresh.

        Degradation contract: this method never raises on malformed or
        pathological input.  Bad samples are sanitised at the front
        end, and a stage that blows up is contained into a
        :class:`DecodeFailure` on ``report.failures`` (counted under
        ``errors.pipeline.*``) while the rest of the pipeline carries
        on with whatever the earlier stages produced.
        """
        tracer = self.tracer
        report = ReceptionReport(sync=FrameSyncResult(detections=[]))
        x, corr = self._front_end(iq, report.failures, corr)
        if not self._frame_sync(x, report, round_index, skip_energy_gate):
            return report

        try:
            with tracer.span(S.DETECT):
                report.detections = self.user_detector.detect(x, corr=corr)
        except Exception as exc:
            self._contain(report, DecodeFailure("user_detection", "exception", detail=str(exc)))
        if tracer.enabled:
            tracer.count(C.DETECT_USERS, len(report.detections))
            for det in report.detections:
                tracer.gauge(G.DETECT_SCORE, det.score)
                if det.candidates and len(det.candidates) > 1:
                    # Margin of the chosen correlation peak over the
                    # runner-up alignment hypothesis.
                    scores = sorted((s for _o, s, _c in det.candidates), reverse=True)
                    tracer.gauge(G.DETECT_PEAK_MARGIN, scores[0] - scores[1])
        for det in report.detections:
            report.frames.append(self._decode_user(x, det, report)[0])

        try:
            self._suppress_ghosts(report)
        except Exception as exc:
            self._contain(report, DecodeFailure("decode", "ghost_suppression", detail=str(exc)))

        try:
            report.ack = AckMessage.for_ids(
                (f.user_id for f in report.frames if f.success), round_index
            )
        except Exception as exc:
            self._contain(report, DecodeFailure("ack", "exception", detail=str(exc)))
            report.ack = AckMessage.for_ids([], round_index)
        return report

    def _suppress_ghosts(self, report: ReceptionReport) -> None:
        """Deduplicate identical frames decoded under several codes.

        With antipodal encoding, correlating a strong tag's signal
        against a *wrong* code is merely a scaled matched filter: both
        the per-bit statistic and the channel estimate pick up the same
        cross-correlation factor, so the strong frame decodes bit-exact
        (CRC and all) under other tags' identities.  A real receiver
        resolves this exactly as done here: frames with identical
        content are collapsed onto the correlator with the highest
        detection score, and the rest are rejected as correlation
        ghosts.
        """
        scores = {d.user_id: d.score for d in report.detections}
        by_payload: Dict[bytes, List[int]] = {}
        for idx, frame in enumerate(report.frames):
            if frame.success and frame.payload is not None:
                by_payload.setdefault(frame.payload, []).append(idx)
        for indices in by_payload.values():
            if len(indices) < 2:
                continue
            keep = max(indices, key=lambda i: scores.get(report.frames[i].user_id, 0.0))
            for i in indices:
                if i == keep:
                    continue
                self.tracer.count(C.DECODE_GHOST)
                ghost = report.frames[i]
                report.frames[i] = DecodedFrame(
                    user_id=ghost.user_id,
                    success=False,
                    payload=None,
                    reason="ghost",
                    raw_bits=ghost.raw_bits,
                )
