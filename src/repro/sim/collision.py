"""Sample-level multi-tag collision simulation.

Builds the receiver's complex baseband buffer for one "round" in which
several tags backscatter a frame each, concurrently and asynchronously:

- each tag's frame is framed, PN-spread, upsampled and OOK-modulated
  (:mod:`repro.tag`, :mod:`repro.phy`);
- each tag's chip stream is delayed by its oscillator offset
  (fractional samples -- true asynchrony, not chip-aligned);
- each stream is scaled by its composite link amplitude (path loss x
  impedance state x fading; :mod:`repro.channel`);
- the superposition is gated by the excitation envelope (OFDM
  intermittency, if any), then interference and AWGN are added.

A noise-only lead-in precedes the frames so the energy detector can
acquire its baseline, exactly as a real receiver sees the channel
before a burst arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.interference import NoInterference, OfdmExcitationGate
from repro.channel.noise import NoiseModel
from repro.obs.taxonomy import G, S
from repro.obs.tracer import as_tracer
from repro.phy.modulation import fractional_delay, ook_baseband, waveform_from_edges
from repro.tag.tag import Tag
from repro.utils.rng import make_rng

__all__ = ["CollisionScenario", "simulate_round", "simulate_diversity_round", "RoundTruth"]


@dataclass
class RoundTruth:
    """Ground truth of one simulated round (for scoring, never decoding)."""

    payloads: Dict[int, bytes]
    amplitudes: Dict[int, complex]
    offsets_samples: Dict[int, float]
    n_samples: int


@dataclass
class CollisionScenario:
    """Static configuration of a collision experiment.

    Attributes
    ----------
    tags:
        The transmitting tags (already holding codes/impedance state).
    amplitudes:
        Base complex link amplitude per tag *at unit delta-Gamma*; the
        tag's current impedance state scales it (power control acts
        here).  Order matches *tags*.
    noise:
        Receiver noise model.
    interference:
        Additive interferer (WiFi/Bluetooth models or NoInterference).
    excitation_gate:
        Optional multiplicative 0/1 excitation envelope (OFDM case).
    samples_per_chip:
        Oversampling factor (fidelity knob; >= 2 resolves fractional
        chip offsets).
    chip_rate_hz:
        Chip rate, setting the absolute time scale for interference.
    lead_in_chips:
        Noise-only lead-in length before the earliest frame.
    """

    tags: List[Tag]
    amplitudes: Sequence[complex]
    noise: NoiseModel = field(default_factory=NoiseModel)
    interference: object = field(default_factory=NoInterference)
    excitation_gate: Optional[OfdmExcitationGate] = None
    samples_per_chip: int = 2
    chip_rate_hz: float = 1.0e6
    lead_in_chips: int = 64
    tail_chips: int = 16
    cfo_hz: Optional[Sequence[float]] = None
    """Optional per-tag carrier frequency offset: the residual error of
    each tag's 20 MHz subcarrier (ppm error x shift frequency), rotating
    that tag's baseband continuously.  ``None`` (default) keeps the
    ideal model."""
    tx_faults: Optional[Dict[int, "TagTxFault"]] = None
    """Optional per-tag transmit impairments
    (:class:`repro.faults.TagTxFault`), keyed by tag id: a *silent* tag
    radiates nothing this round (its payload stays in the truth, so it
    scores as sent-and-lost); ``keep_fraction`` truncates the burst
    mid-frame (brownout).  ``None`` keeps the healthy model."""

    def __post_init__(self) -> None:
        if len(self.tags) != len(self.amplitudes):
            raise ValueError(
                f"need one amplitude per tag: {len(self.amplitudes)} != {len(self.tags)}"
            )
        if self.cfo_hz is not None and len(self.cfo_hz) != len(self.tags):
            raise ValueError("need one CFO per tag when cfo_hz is given")
        if self.samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")

    @property
    def sample_rate_hz(self) -> float:
        return self.chip_rate_hz * self.samples_per_chip

    def effective_amplitude(self, index: int) -> complex:
        """Link amplitude x the tag's current impedance gain.

        The base amplitude is computed at ``|delta Gamma| = 1``; the
        backscattered field scales linearly with ``|delta Gamma|``
        (power with its square), so the tag's state multiplies in
        directly.
        """
        return complex(self.amplitudes[index]) * self.tags[index].delta_gamma


def simulate_round(
    scenario: CollisionScenario,
    payloads: Dict[int, bytes],
    rng=None,
    tracer=None,
) -> tuple:
    """Simulate one round; returns ``(iq_buffer, RoundTruth)``.

    *payloads* maps tag id -> payload bytes; tags absent from the map
    stay silent this round (their link still exists but radiates
    nothing).  *tracer* (a :class:`repro.obs.Tracer`) records the
    waveform-synthesis span; it never consumes *rng*, so traced and
    untraced runs are bit-identical.
    """
    tracer = as_tracer(tracer)
    with tracer.span(S.SYNTHESIZE, tags=len(payloads)):
        iq, truth = _synthesize_round(scenario, payloads, rng)
    if tracer.enabled:
        tracer.gauge(G.ROUND_N_SAMPLES, truth.n_samples)
    return iq, truth


def _synthesize_round(
    scenario: CollisionScenario,
    payloads: Dict[int, bytes],
    rng=None,
) -> tuple:
    rng = make_rng(rng)
    spc = scenario.samples_per_chip
    lead_in = scenario.lead_in_chips * spc

    streams: List[np.ndarray] = []
    truth = RoundTruth(payloads=dict(payloads), amplitudes={}, offsets_samples={}, n_samples=0)

    max_len = lead_in + scenario.tail_chips * spc
    tx_faults = scenario.tx_faults or {}
    for i, tag in enumerate(scenario.tags):
        if tag.tag_id not in payloads:
            continue
        fault = tx_faults.get(tag.tag_id)
        if fault is not None and fault.silent:
            # Dropout: the application offered a frame (it stays in the
            # truth for scoring) but the tag radiates nothing.
            continue
        offset = lead_in + tag.oscillator.total_delay_samples(spc)
        amp = scenario.effective_amplitude(i)
        if tag.oscillator.is_ideal:
            chips = tag.chip_stream(payloads[tag.tag_id], spc)
            delayed = fractional_delay(ook_baseband(chips, amplitude=amp), offset)
        else:
            # Drifting/jittering clock: every chip edge lands where the
            # oscillator says, not on a regular grid.
            raw_chips = tag.encode(payloads[tag.tag_id])
            edges = tag.oscillator.chip_edges(raw_chips.size + 1, rng) + float(
                scenario.lead_in_chips
            )
            unit = waveform_from_edges(raw_chips, edges, spc)
            delayed = ook_baseband(unit, amplitude=amp)
        if scenario.cfo_hz is not None and scenario.cfo_hz[i]:
            # Residual subcarrier offset: a continuous rotation in
            # receiver time (the stream is already placed on the
            # buffer timeline, so sample n maps to t = n / fs).
            n = np.arange(delayed.size)
            delayed = delayed * np.exp(
                2j * np.pi * scenario.cfo_hz[i] * n / scenario.sample_rate_hz
            )
        if fault is not None and fault.keep_fraction is not None:
            # Brownout: the tag loses power mid-frame.  Only the leading
            # fraction of the *burst* (past the placement offset) makes
            # it onto the air; the tail is dark.
            burst_start = int(np.floor(offset))
            cut = burst_start + int(
                round(fault.keep_fraction * max(delayed.size - burst_start, 0))
            )
            delayed = delayed.copy()
            delayed[cut:] = 0.0
        streams.append(delayed)
        truth.amplitudes[tag.tag_id] = amp
        truth.offsets_samples[tag.tag_id] = offset
        max_len = max(max_len, delayed.size + scenario.tail_chips * spc)

    total = np.zeros(max_len, dtype=np.complex128)
    for s in streams:
        total[: s.size] += s

    if scenario.excitation_gate is not None:
        gate = scenario.excitation_gate.gate(max_len, scenario.sample_rate_hz, rng)
        total *= gate

    total += scenario.interference.sample(max_len, scenario.sample_rate_hz, rng)
    total += scenario.noise.sample(max_len, rng)

    truth.n_samples = max_len
    return total, truth


def simulate_diversity_round(
    scenario: CollisionScenario,
    payloads: Dict[int, bytes],
    branch_gains: Sequence[Sequence[complex]],
    rng=None,
) -> tuple:
    """Simulate one round as seen by several receive antennas.

    *branch_gains* has shape ``(n_antennas, n_tags)``: the independent
    small-scale gain each antenna sees from each tag, applied on top of
    the scenario's base amplitudes.  Each branch gets independent noise
    and interference.  Returns ``([iq_per_branch, ...], RoundTruth)``
    with the truth describing branch 0.
    """
    rng = make_rng(rng)
    gains = np.asarray(branch_gains, dtype=np.complex128)
    if gains.ndim != 2 or gains.shape[1] != len(scenario.tags):
        raise ValueError(
            f"branch_gains must be (n_antennas, {len(scenario.tags)}), got {gains.shape}"
        )
    spc = scenario.samples_per_chip
    lead_in = scenario.lead_in_chips * spc

    truth = RoundTruth(payloads=dict(payloads), amplitudes={}, offsets_samples={}, n_samples=0)
    unit_streams: List[tuple] = []
    max_len = lead_in + scenario.tail_chips * spc
    for i, tag in enumerate(scenario.tags):
        if tag.tag_id not in payloads:
            continue
        chips = tag.chip_stream(payloads[tag.tag_id], spc)
        offset = lead_in + tag.oscillator.total_delay_samples(spc)
        base = scenario.effective_amplitude(i)
        unit = fractional_delay(ook_baseband(chips, amplitude=1.0), offset)
        unit_streams.append((i, base, unit))
        truth.amplitudes[tag.tag_id] = base * gains[0, i]
        truth.offsets_samples[tag.tag_id] = offset
        max_len = max(max_len, unit.size + scenario.tail_chips * spc)

    branches: List[np.ndarray] = []
    for k in range(gains.shape[0]):
        total = np.zeros(max_len, dtype=np.complex128)
        for i, base, unit in unit_streams:
            total[: unit.size] += base * gains[k, i] * unit
        if scenario.excitation_gate is not None:
            gate = scenario.excitation_gate.gate(max_len, scenario.sample_rate_hz, rng)
            total *= gate
        total += scenario.interference.sample(max_len, scenario.sample_rate_hz, rng)
        total += scenario.noise.sample(max_len, rng)
        branches.append(total)

    truth.n_samples = max_len
    return branches, truth
