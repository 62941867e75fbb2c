"""The complete CBMA network simulator.

This is the library's centrepiece: a deployment of tags, the Friis +
fading channel, the sample-level collision simulator and the full
receiver, driven round by round.  It exposes exactly the control knobs
the paper's evaluation turns -- tag count, geometry, excitation power,
preamble length, bit rate, code family, interference condition -- plus
the two CBMA mechanisms (power control and node selection).

Typical use::

    config = CbmaConfig(n_tags=5, seed=7)
    net = CbmaNetwork(config, Deployment.random(5, rng=7))
    metrics = net.run_rounds(100)
    print(metrics.fer, metrics.goodput_bps)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.fading import FadingModel
from repro.channel.geometry import Deployment
from repro.channel.interference import NoInterference, OfdmExcitationGate
from repro.channel.link import realize_channel
from repro.channel.noise import NoiseModel
from repro.channel.pathloss import LinkBudget
from repro.codes.registry import make_codes
from repro.faults.plan import FaultPlan, RoundFaults
from repro.mac.power_control import PowerController, PowerControlResult
from repro.obs.taxonomy import C, G, S, fault_loss
from repro.obs.tracer import as_tracer
from repro.phy.impedance import default_codebook
from repro.receiver.receiver import CbmaReceiver
from repro.sim.collision import CollisionScenario, simulate_round
from repro.sim.metrics import MetricsAccumulator, score_frame
from repro.tag.framing import FrameFormat
from repro.tag.oscillator import TagOscillator
from repro.tag.tag import Tag
from repro.utils.rng import make_rng

__all__ = ["CbmaConfig", "CbmaNetwork"]

#: Calibrated effective noise floor above thermal.  A working
#: backscatter receiver is not thermal-noise limited: the excitation
#: tone leaks into the shifted band (finite sideband suppression, phase
#: noise) and the office contributes ambient emissions.  This value
#: places the FER waterfall so that the paper's reference geometry
#: (ES-tag 0.5 m, tag-RX ~1 m, 20 dBm excitation, tags on their
#: default mid-ladder impedance state) sits just above the knee --
#: reproducing the Fig. 8(a) "flat below 2 m, rising beyond" shape and
#: Table II's single-digit-dB SNRs.
CALIBRATED_EXTRA_NOISE_DB = 44.0


@dataclass
class CbmaConfig:
    """All tunables of a CBMA simulation.

    The defaults correspond to the paper's prototype: 2 GHz carrier,
    20 dBm excitation, 1 Mcps chip rate, 1-byte alternating preamble,
    16-byte payloads, the 4-state impedance codebook and 2NC-64 codes.
    """

    n_tags: int = 2
    code_family: str = "2nc"
    code_length: int = 64
    preamble_bits: int = 8
    payload_bytes: int = 16
    samples_per_chip: int = 2
    chip_rate_hz: float = 1.0e6
    budget: LinkBudget = field(default_factory=LinkBudget)
    noise: NoiseModel = field(
        default_factory=lambda: NoiseModel(extra_noise_db=CALIBRATED_EXTRA_NOISE_DB)
    )
    fading: Optional[FadingModel] = field(default_factory=FadingModel)
    interference: object = field(default_factory=NoInterference)
    excitation_gate: Optional[OfdmExcitationGate] = None
    user_threshold: float = 0.12
    max_offset_chips: float = 8.0
    """Tags start transmitting within this window (asynchrony)."""
    jitter_chips_rms: float = 0.0
    drift_ppm_sigma: float = 0.0
    """Std-dev of per-tag oscillator frequency error.  Crystal clocks
    sit at ~20 ppm (harmless); RC oscillators at ~1% lose chip
    alignment within a frame -- see the clock ablation."""
    cfo_hz_sigma: float = 0.0
    """Std-dev of per-tag residual subcarrier offset (the same ppm
    error applied to the 20 MHz shift: 20 ppm -> 400 Hz).  Rotates the
    constellation across the frame; pair with
    :class:`~repro.receiver.phase_tracking.PhaseTrackingReceiver`."""
    seed: Optional[int] = None

    def frame_format(self) -> FrameFormat:
        return FrameFormat.with_preamble_bits(self.preamble_bits)

    def frame_bits(self) -> int:
        return self.frame_format().frame_bits(self.payload_bytes)

    def frame_duration_s(self) -> float:
        """Air time of one frame (chips / chip rate)."""
        return self.frame_bits() * self.code_length / self.chip_rate_hz

    def payload_bits(self) -> int:
        return 8 * self.payload_bytes


class CbmaNetwork:
    """A CBMA deployment under simulation.

    Parameters
    ----------
    config:
        Simulation tunables.
    deployment:
        Tag/ES/RX geometry.  Must contain at least ``config.n_tags``
        tag positions; the first ``n_tags`` start active, the rest are
        idle candidates for node selection.
    fixed_offsets_chips:
        Optional explicit per-tag start offsets (used by the
        asynchrony study, Fig. 11); default draws fresh random offsets
        every round.
    tracer:
        Optional :class:`repro.obs.Tracer`; shared with the receiver
        and the round loop.  When given, each round records spans
        (``round``, ``synthesize`` and the receiver stages), the
        truth-scored error counters and per-tag SNR gauges.
    receiver_cls:
        Receiver class to instantiate (default
        :class:`~repro.receiver.receiver.CbmaReceiver`); must offer the
        ``from_config`` classmethod.  Extra *receiver_kwargs* pass
        through (e.g. ``max_passes`` for SIC).
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into every
        round: tag dropout/brownout, oscillator drift, burst
        interference, ADC clipping, ACK loss and stuck impedance
        switches.  Injections are logged in :attr:`fault_log` and, when
        a tracer is attached, fault-caused losses are attributed as
        ``errors.fault.*`` counters in the error budget.
    round_offset:
        Starting value of the fault-plan round index -- lets
        :class:`~repro.system.CbmaSystem` keep one global fault
        timeline across its per-epoch networks.
    """

    def __init__(
        self,
        config: CbmaConfig,
        deployment: Deployment,
        fixed_offsets_chips: Optional[Sequence[float]] = None,
        tracer=None,
        receiver_cls: Optional[type] = None,
        receiver_kwargs: Optional[Dict] = None,
        faults: Optional[FaultPlan] = None,
        round_offset: int = 0,
    ):
        if len(deployment.tags) < config.n_tags:
            raise ValueError(
                f"deployment has {len(deployment.tags)} tag positions, "
                f"config wants {config.n_tags}"
            )
        self.config = config
        self.deployment = deployment
        self.rng = make_rng(config.seed)
        self.tracer = as_tracer(tracer)
        self.fmt = config.frame_format()
        self.codes = make_codes(config.code_family, config.n_tags, config.code_length)
        self.fixed_offsets_chips = (
            list(fixed_offsets_chips) if fixed_offsets_chips is not None else None
        )
        codebook = default_codebook()
        self.tags: List[Tag] = [
            Tag(i, self.codes[i], fmt=self.fmt, codebook=codebook) for i in range(config.n_tags)
        ]
        #: Deployment position index per tag (mutated by node selection).
        self.positions: List[int] = list(range(config.n_tags))
        self.faults = faults
        self._round_index = int(round_offset)
        #: Injection log: ``fault.*`` slug -> number of injections so
        #: far (kept even without a tracer, so fault runs are checkable
        #: on the untraced fast path).
        self.fault_log: Dict[str, int] = {}
        self.receiver = (receiver_cls or CbmaReceiver).from_config(
            config,
            codes={i: self.codes[i] for i in range(config.n_tags)},
            tracer=tracer,
            **(receiver_kwargs or {}),
        )

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------

    def _draw_oscillators(self) -> None:
        """Assign this round's clock offsets to the tags."""
        cfg = self.config
        for i, tag in enumerate(self.tags):
            if self.fixed_offsets_chips is not None:
                offset = float(self.fixed_offsets_chips[i])
            else:
                offset = float(self.rng.uniform(0.0, cfg.max_offset_chips))
            drift = (
                float(self.rng.normal(0.0, cfg.drift_ppm_sigma))
                if cfg.drift_ppm_sigma > 0
                else 0.0
            )
            tag.oscillator = TagOscillator(
                offset_chips=offset,
                jitter_chips_rms=cfg.jitter_chips_rms,
                drift_ppm=drift,
            )

    def _base_amplitudes(self) -> np.ndarray:
        """Per-tag complex link amplitude at unit delta-Gamma."""
        cfg = self.config
        sub = Deployment(
            excitation=self.deployment.excitation,
            receiver=self.deployment.receiver,
            tags=[self.deployment.tags[p] for p in self.positions],
            room=self.deployment.room,
        )
        realization = realize_channel(
            sub,
            cfg.budget,
            delta_gammas=[1.0] * len(self.tags),
            fading=cfg.fading,
            rng=self.rng,
        )
        return realization.amplitudes()

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------

    def _log_fault(self, reason: str, n: int = 1) -> None:
        self.fault_log[reason] = self.fault_log.get(reason, 0) + n

    def next_round_faults(self) -> Optional[RoundFaults]:
        """Resolve the fault plan for the upcoming round and advance
        the round counter.

        Applies the persistent tag-state faults (stuck impedance)
        immediately; returns the resolved :class:`RoundFaults` for the
        per-round consumers, or ``None`` when nothing is active.
        Called once per simulated round by :meth:`run_round` and by the
        ARQ layer's round driver.
        """
        index = self._round_index
        self._round_index += 1
        if self.faults is None or self.faults.empty:
            return None
        rf = self.faults.resolve(index, self.config.n_tags)
        for i, tag in enumerate(self.tags):
            tag.stuck = i in rf.stuck
        if not rf.any_active:
            return None
        if rf.stuck:
            self._log_fault("fault.stuck_impedance", len(rf.stuck))
        if rf.silent:
            self._log_fault("fault.dropout", len(rf.silent))
        if rf.brownout:
            self._log_fault("fault.brownout", len(rf.brownout))
        if rf.drift_ppm:
            self._log_fault("fault.clock_drift", len(rf.drift_ppm))
        if rf.ack_lost:
            self._log_fault("fault.ack_loss", len(rf.ack_lost))
        return rf

    def apply_fault_drift(self, rf: Optional[RoundFaults]) -> None:
        """Add fault-injected oscillator drift on top of this round's
        clock draw (honors both the random and the override paths)."""
        if rf is None or not rf.drift_ppm:
            return
        for i, extra_ppm in rf.drift_ppm.items():
            osc = self.tags[i].oscillator
            self.tags[i].oscillator = TagOscillator(
                offset_chips=osc.offset_chips,
                jitter_chips_rms=osc.jitter_chips_rms,
                drift_ppm=osc.drift_ppm + extra_ppm,
            )

    def apply_channel_faults(self, iq: np.ndarray, rf: Optional[RoundFaults]) -> np.ndarray:
        """Burst interference + ADC saturation on a synthesized buffer."""
        if rf is None:
            return iq
        jam = rf.jammer_samples(iq.size, self.config.samples_per_chip * self.config.chip_rate_hz)
        if jam is not None:
            iq = iq + jam
            self._log_fault("fault.interference")
        if rf.clip_level is not None:
            iq = rf.clip(iq)
            self._log_fault("fault.adc_clip")
        return iq

    def run_round(
        self,
        active_ids: Optional[Sequence[int]] = None,
        metrics: Optional[MetricsAccumulator] = None,
        channel_override: Optional[tuple] = None,
    ) -> MetricsAccumulator:
        """Simulate one collision round and score it.

        *active_ids* selects which tags transmit (default: all).
        *channel_override*, when given, is ``(amplitudes, offsets_chips)``
        replacing the round's random channel/clock draw -- the hook
        that trace replay uses (:mod:`repro.sim.trace`).  The values
        actually used are exposed as ``self.last_round_channel``.
        Returns the (possibly shared) metrics accumulator.
        """
        cfg = self.config
        metrics = metrics if metrics is not None else MetricsAccumulator()
        active = set(int(i) for i in (active_ids if active_ids is not None else range(cfg.n_tags)))
        rf = self.next_round_faults()

        if channel_override is not None:
            amplitudes, offsets = channel_override
            if len(amplitudes) != cfg.n_tags or len(offsets) != cfg.n_tags:
                raise ValueError("channel override must cover every tag")
            for tag, offset in zip(self.tags, offsets):
                tag.oscillator = TagOscillator(
                    offset_chips=float(offset), jitter_chips_rms=cfg.jitter_chips_rms
                )
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        else:
            self._draw_oscillators()
            amplitudes = self._base_amplitudes()
        self.apply_fault_drift(rf)
        self.last_round_channel = (
            np.array(amplitudes, copy=True),
            [t.oscillator.offset_chips for t in self.tags],
        )
        cfo = (
            [float(self.rng.normal(0.0, cfg.cfo_hz_sigma)) for _ in self.tags]
            if cfg.cfo_hz_sigma > 0
            else None
        )
        scenario = CollisionScenario(
            tags=self.tags,
            amplitudes=amplitudes,
            noise=cfg.noise,
            interference=cfg.interference,
            excitation_gate=cfg.excitation_gate,
            samples_per_chip=cfg.samples_per_chip,
            chip_rate_hz=cfg.chip_rate_hz,
            cfo_hz=cfo,
            tx_faults=rf.tx_faults() if rf is not None else None,
        )
        payloads = {
            i: bytes(self.rng.integers(0, 256, cfg.payload_bytes, dtype=np.uint8))
            for i in sorted(active)
        }
        tracer = self.tracer
        with tracer.span(S.ROUND, tags=len(payloads)):
            tracer.count(C.ROUND_ROUNDS)
            iq, truth = simulate_round(scenario, payloads, self.rng, tracer=tracer)
            iq = self.apply_channel_faults(iq, rf)
            report = self.receiver.process(iq)

            if tracer.enabled:
                noise_w = max(cfg.noise.power_w, 1e-30)
                for tag_id, amp in truth.amplitudes.items():
                    snr = (abs(amp) ** 2) / noise_w
                    tracer.gauge(G.TAG_SNR_DB, 10.0 * np.log10(max(snr, 1e-30)))
            detected_ids = {d.user_id for d in report.detections}
            for i, tag in enumerate(self.tags):
                sent = payloads.get(i)
                frame = report.frame_for(i)
                decoded_payload = frame.payload if (frame is not None and frame.success) else None
                outcome = score_frame(
                    tag_id=i,
                    sent_payload=sent,
                    detected=i in detected_ids,
                    decoded_payload=decoded_payload,
                )
                metrics.record(outcome, payload_bits=cfg.payload_bits())
                if sent is not None:
                    # The tag's view of the ACK: a delivered frame whose
                    # ACK the fault plan eats looks unacknowledged to
                    # the tag (it will retransmit / mis-steer power
                    # control) even though the data arrived.
                    acked = outcome.payload_correct
                    if acked and rf is not None and i in rf.ack_lost:
                        acked = False
                        if tracer.enabled:
                            tracer.count(C.FAULTS_ACK_LOST)
                    tag.record_result(acked)
                    if tracer.enabled:
                        # Truth-scored error budget: which stage lost
                        # this frame (sync/detect miss, decode failure,
                        # or a CRC-passing wrong payload)?  An injected
                        # fault that explains the loss takes the blame
                        # instead, so operators can separate deployment
                        # failures from algorithmic ones.
                        tracer.count(C.ROUND_FRAMES_SENT)
                        fault_reason = rf.loss_reason(i) if rf is not None else None
                        if outcome.payload_correct:
                            tracer.count(C.ROUND_FRAMES_CORRECT)
                        elif fault_reason is not None:
                            tracer.count(fault_loss(fault_reason))
                        elif not outcome.detected:
                            tracer.count(C.ERRORS_NOT_DETECTED)
                        elif decoded_payload is None:
                            tracer.count(C.ERRORS_NOT_DECODED)
                        else:
                            tracer.count(C.ERRORS_WRONG_PAYLOAD)
            metrics.add_time(cfg.frame_duration_s())
        return metrics

    def run_rounds(self, n_rounds: int, active_ids: Optional[Sequence[int]] = None) -> MetricsAccumulator:
        """Simulate *n_rounds* independent rounds."""
        metrics = MetricsAccumulator()
        for _ in range(n_rounds):
            self.run_round(active_ids=active_ids, metrics=metrics)
        return metrics

    # ------------------------------------------------------------------
    # CBMA control loops
    # ------------------------------------------------------------------

    def epoch_runner(self, tags: Sequence[Tag], packets: int) -> Dict[int, int]:
        """Adapter giving :class:`PowerController` a transmission epoch."""
        metrics = self.run_rounds(packets)
        return {
            tag.tag_id: metrics.per_tag_correct.get(tag.tag_id, 0) for tag in tags
        }

    def run_power_control(self, controller: Optional[PowerController] = None) -> PowerControlResult:
        """Run Algorithm 1 over this network's tags."""
        controller = controller or PowerController()
        return controller.run(self.tags, self.epoch_runner)

    def move_tag(self, tag_index: int, deployment_position: int) -> None:
        """Re-home a tag to another deployment position (node selection)."""
        if not 0 <= deployment_position < len(self.deployment.tags):
            raise ValueError(f"position {deployment_position} outside deployment")
        self.positions[tag_index] = int(deployment_position)
