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

The paper's receiver decodes every tag against the raw collision and
leaves near-far to tag-side power control (Sec. IV); that is one
decode pass, the default.  With ``max_passes > 1`` the same loop adds
receiver-side successive interference cancellation (SIC): each pass
re-synthesises the frames it decoded from their bits and channel
estimates and subtracts them, so the next pass detects and decodes
the weaker tags underneath.  SIC needs a *successful* decode to
cancel; when the strong tag itself fails, nothing improves, which is
where tag-side control still wins.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.taxonomy import C, G, S, decode_outcome
from repro.obs.tracer import as_tracer
from repro.phy.modulation import fractional_delay, spread_bits, upsample_chips
from repro.receiver.ack import AckMessage
from repro.receiver.decoder import ChipDecoder, DecodedFrame
from repro.receiver.failures import DecodeFailure, sanitize_buffer
from repro.receiver.frame_sync import EnergyDetector, FrameSyncResult
from repro.receiver.user_detection import UserDetection, UserDetector
from repro.tag.framing import FrameFormat
from repro.utils.bits import pack_bits
from repro.utils.contracts import array_contract

__all__ = ["CbmaReceiver", "ReceptionReport", "own_payloads"]


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


def own_payloads(
    claims: Sequence[Tuple[float, DecodedFrame]], owners: Dict[bytes, int]
) -> List[int]:
    """The ghost rule: record in *owners* who owns each newly decoded payload.

    With antipodal encoding, correlating a strong tag's signal against
    a *wrong* code is merely a scaled matched filter: both the per-bit
    statistic and the channel estimate pick up the same
    cross-correlation factor, so the strong frame decodes bit-exact
    (CRC and all) under other tags' identities.  So among the
    successful frames of *claims* (``(detection score, frame)`` pairs)
    carrying one payload, the highest-scoring claimant owns it, the
    earliest on a tie; the others are correlation ghosts.  A payload
    already in *owners* (owned in an earlier pass) stays owned.

    Returns the indices of the winning claims, in the order their
    payloads first appear.
    """
    best: Dict[bytes, int] = {}
    for i, (score, frame) in enumerate(claims):
        if not frame.success or frame.payload is None or frame.payload in owners:
            continue
        held = best.get(frame.payload)
        if held is None or score > claims[held][0]:
            best[frame.payload] = i
    for payload, i in best.items():
        owners[payload] = claims[i][1].user_id
    return list(best.values())


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
    max_passes:
        Decode passes over one buffer (``>= 1``).  One pass (default)
        is the paper's receiver; more add successive interference
        cancellation (see :meth:`process`).

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
        max_passes: int = 1,
    ):
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        self.max_passes = max_passes
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
        tag ids ``0..n_tags-1``; further options (``max_passes``, or
        a subclass's own, such as ``n_antennas``) pass through
        ``**kwargs``.
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
        """Input hygiene: sanitised, optionally DC-blocked samples.

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
        that produced it (the one cancellation subtracts).

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
                user_id=det.user_id,
                success=False,
                payload=None,
                reason="exception",
                offset=candidates[0][0],
            )
        tracer.count(decode_outcome(frame.reason))
        return frame, candidates[index]

    def process(
        self,
        iq: np.ndarray,
        round_index: int = 0,
        skip_energy_gate: bool = False,
        corr: Optional[np.ndarray] = None,
        owned: Optional[int] = None,
    ) -> ReceptionReport:
        """Run the full pipeline over a complex sample buffer.

        When *skip_energy_gate* is set the user detector scans the
        whole buffer without an energy detection -- used by the
        streaming walk, whose correlation pre-gate already chose the
        window, and by experiments that isolate later stages (paper
        Sec. VII-B2 "adopt the best parameters obtained in the above
        section").  The energy detector is then not run, and
        ``report.sync`` stays empty.

        After frame sync the receiver runs up to ``max_passes`` decode
        passes.  Each pass detects users, decodes every detected user
        that does not yet own a frame, and settles who owns each
        decoded payload by :func:`own_payloads`: losers stay eligible
        for the next pass.  When another pass follows, the pass's new
        owners are cancelled from the samples the next pass detects on,
        and the loop stops early at a pass that owns nothing new; with
        ``max_passes > 1`` each pass runs under a ``sic`` span.  A frame still losing its payload
        at the end is reported as a ``ghost``.  ``report.detections``
        holds each user's latest detection made before it owned a
        frame, strongest first.

        *corr* is the template bank's correlation plane of *iq*, when
        the caller already computed it (the streaming pre-gate).  It
        reaches the first pass's user detector only when the front end
        hands *iq* through untouched; widened, repaired or DC-blocked
        samples, and every later pass's residual, are correlated
        afresh.

        With an *owned* span only candidates in ``[0, owned)`` are
        ranked and tried, in every pass (the streaming walk passes one
        hop).

        Degradation contract: this method never raises on malformed or
        pathological input.  Bad samples are sanitised at the front
        end, and a stage that blows up is contained into a
        :class:`DecodeFailure` on ``report.failures`` (counted under
        ``errors.pipeline.*``) while the rest of the pipeline carries
        on with whatever the earlier stages produced; a failed
        cancellation ends the passes, keeping every frame decoded so
        far.
        """
        tracer = self.tracer
        report = ReceptionReport(sync=FrameSyncResult(detections=[]))
        x, corr = self._front_end(iq, report.failures, corr)
        if not self._frame_sync(x, report, round_index, skip_energy_gate):
            return report

        frames: Dict[int, DecodedFrame] = {}  # each user's latest frame
        latest: Dict[int, UserDetection] = {}
        owners: Dict[bytes, int] = {}
        residual = x
        cancelling = self.max_passes > 1
        for index in range(self.max_passes):
            with tracer.span(S.SIC, sic_pass=index) if cancelling else nullcontext():
                if cancelling:
                    tracer.count(C.SIC_PASSES)
                taken = set(owners.values())
                decoded = []
                for det in self._detect(residual, corr if index == 0 else None, owned, report):
                    if det.user_id in taken:
                        continue
                    latest[det.user_id] = det
                    frame, candidate = self._decode_user(residual, det, report)
                    frames[det.user_id] = frame
                    decoded.append((det, frame, candidate))
                won = own_payloads([(det.score, frame) for det, frame, _c in decoded], owners)
                if not won or index + 1 == self.max_passes:
                    break
                try:
                    for i in won:
                        det, frame, (offset, _score, channel) = decoded[i]
                        residual = self._cancel(residual, det.user_id, frame, offset, channel)
                        tracer.count(C.SIC_CANCELLATIONS)
                except Exception as exc:
                    self._contain(
                        report, DecodeFailure("sic", "exception", detail=f"pass {index}: {exc}")
                    )
                    break

        report.detections = sorted(latest.values(), key=lambda d: d.score, reverse=True)
        self._settle(report, frames.values(), owners, round_index)
        return report

    def _detect(
        self,
        x: np.ndarray,
        corr: Optional[np.ndarray],
        owned: Optional[int],
        report: ReceptionReport,
    ) -> List[UserDetection]:
        """User detection over *x*, strongest first; a blow-up is
        contained and detects nobody."""
        tracer = self.tracer
        detections: List[UserDetection] = []
        try:
            with tracer.span(S.DETECT):
                detections = self.user_detector.detect(x, corr=corr, owned=owned)
        except Exception as exc:
            self._contain(report, DecodeFailure("user_detection", "exception", detail=str(exc)))
        if tracer.enabled:
            tracer.count(C.DETECT_USERS, len(detections))
            for det in detections:
                tracer.gauge(G.DETECT_SCORE, det.score)
                if det.candidates and len(det.candidates) > 1:
                    # Margin of the chosen correlation peak over the
                    # runner-up alignment hypothesis.
                    scores = sorted((s for _o, s, _c in det.candidates), reverse=True)
                    tracer.gauge(G.DETECT_PEAK_MARGIN, scores[0] - scores[1])
        return detections

    def _settle(
        self,
        report: ReceptionReport,
        frames: Iterable[DecodedFrame],
        owners: Dict[bytes, int],
        round_index: int,
    ) -> None:
        """Report *frames* and ACK their payloads' *owners*.

        A successful frame whose payload another user owns (see
        :func:`own_payloads`) is reported as a ``ghost`` instead.
        """
        for frame in frames:
            if frame.success and owners.get(frame.payload) != frame.user_id:
                self.tracer.count(C.DECODE_GHOST)
                frame = replace(frame, success=False, payload=None, reason="ghost")
            report.frames.append(frame)
        try:
            report.ack = AckMessage.for_ids(
                (f.user_id for f in report.frames if f.success), round_index
            )
        except Exception as exc:
            self._contain(report, DecodeFailure("ack", "exception", detail=str(exc)))
            report.ack = AckMessage.for_ids([], round_index)

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
