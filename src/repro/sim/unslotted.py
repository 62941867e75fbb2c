"""Fully unslotted CBMA: no rounds, no shared timing of any kind.

The round-based simulator still implies a loose slot structure (every
tag starts within a few chips of its peers).  A maximally distributed
deployment has none: each tag transmits whenever its own traffic says
to, and frames overlap partially, fully, or not at all.  This module
simulates that regime over one long continuous buffer and decodes it
with the :class:`~repro.receiver.streaming.StreamingReceiver` --
producing the classic random-access throughput curve, except that
CBMA's code-domain capture lets overlapping frames *both* survive
where ALOHA would lose both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.channel.noise import NoiseModel
from repro.obs.taxonomy import C, S, fault_injection
from repro.obs.tracer import as_tracer
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver.streaming import StreamingReceiver
from repro.tag.tag import Tag
from repro.utils.rng import make_rng

__all__ = ["UnslottedScenario", "UnslottedResult", "simulate_unslotted"]


@dataclass(frozen=True)
class _Transmission:
    tag_index: int
    payload: bytes
    start_sample: float


@dataclass
class UnslottedResult:
    """Outcome of an unslotted simulation."""

    offered: int
    delivered: int
    duration_s: float
    payload_bits: int
    per_tag_offered: Dict[int, int] = field(default_factory=dict)
    per_tag_delivered: Dict[int, int] = field(default_factory=dict)
    faults_injected: Dict[str, int] = field(default_factory=dict)
    """``fault.*`` slug -> injections, when a fault plan was supplied."""

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.offered if self.offered else 1.0

    @property
    def goodput_bps(self) -> float:
        return self.delivered * self.payload_bits / self.duration_s if self.duration_s else 0.0


@dataclass
class UnslottedScenario:
    """Configuration of an unslotted run.

    Attributes
    ----------
    tags:
        The transmitting tags.
    amplitudes:
        Complex link amplitude per tag at unit delta-Gamma.
    rate_hz:
        Per-tag Poisson frame rate.
    duration_s:
        Simulated air time.
    payload_bytes / samples_per_chip / chip_rate_hz / noise:
        As in the round-based simulator.
    """

    tags: List[Tag]
    amplitudes: Sequence[complex]
    rate_hz: float
    duration_s: float
    payload_bytes: int = 12
    samples_per_chip: int = 2
    chip_rate_hz: float = 1.0e6
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        if len(self.tags) != len(self.amplitudes):
            raise ValueError("need one amplitude per tag")
        if self.rate_hz < 0 or self.duration_s <= 0:
            raise ValueError("rate must be >= 0 and duration positive")

    @property
    def sample_rate_hz(self) -> float:
        return self.chip_rate_hz * self.samples_per_chip

    def frame_samples(self, tag: Tag) -> int:
        bits = tag.fmt.frame_bits(self.payload_bytes)
        return bits * tag.code.size * self.samples_per_chip


def simulate_unslotted(
    scenario: UnslottedScenario,
    receiver: StreamingReceiver,
    rng=None,
    tracer=None,
    faults=None,
) -> UnslottedResult:
    """Run one unslotted simulation and decode the whole stream.

    *tracer* (a :class:`repro.obs.Tracer`) records the waveform
    synthesis and stream-decode spans plus offered/delivered counters;
    it never consumes *rng*.

    *faults* (a :class:`repro.faults.FaultPlan`) injects deployment
    failures into the round-free regime.  With no rounds to index, the
    plan's round windows map onto frame-airtime units (one "round" =
    one frame duration of tag 0): dropout/brownout resolve per
    transmission at its start time, and the jammer/ADC-clip faults
    apply per airtime window of the buffer.  The epoch-loop faults
    (clock drift, ACK loss, stuck impedance) have no unslotted
    equivalent and are ignored here.
    """
    tracer = as_tracer(tracer)
    rng = make_rng(rng)
    n_samples = int(scenario.duration_s * scenario.sample_rate_hz)
    buffer = scenario.noise.sample(n_samples, rng)
    n_tags = len(scenario.tags)
    fault_unit = scenario.frame_samples(scenario.tags[0]) if scenario.tags else 0
    plan = faults if (faults is not None and not faults.empty and fault_unit > 0) else None
    injected: Dict[str, int] = {}

    def _inject(reason: str) -> None:
        injected[reason] = injected.get(reason, 0) + 1

    transmissions: List[_Transmission] = []
    for i, tag in enumerate(scenario.tags):
        frame_len = scenario.frame_samples(tag)
        t = 0.0
        while True:
            gap = rng.exponential(1.0 / scenario.rate_hz) if scenario.rate_hz > 0 else np.inf
            t += gap
            start = t * scenario.sample_rate_hz
            if start + frame_len >= n_samples:
                break
            payload = bytes(rng.integers(0, 256, scenario.payload_bytes, dtype=np.uint8))
            transmissions.append(_Transmission(i, payload, start))

    result = UnslottedResult(
        offered=len(transmissions),
        delivered=0,
        duration_s=scenario.duration_s,
        payload_bits=8 * scenario.payload_bytes,
    )
    for tx in transmissions:
        result.per_tag_offered[tx.tag_index] = result.per_tag_offered.get(tx.tag_index, 0) + 1

    with tracer.span(S.SYNTHESIZE, tags=len(scenario.tags)):
        for tx in transmissions:
            tag = scenario.tags[tx.tag_index]
            # Phase draw happens for every offered transmission (even a
            # dropped one) so the fault plan never perturbs the RNG
            # stream of the surviving traffic.
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            keep_fraction = None
            if plan is not None:
                rf = plan.resolve(int(tx.start_sample // fault_unit), n_tags)
                if tx.tag_index in rf.silent:
                    _inject("fault.dropout")
                    continue
                keep_fraction = rf.brownout.get(tx.tag_index)
                if keep_fraction is not None:
                    _inject("fault.brownout")
            amp = complex(scenario.amplitudes[tx.tag_index]) * tag.delta_gamma
            signal = ook_baseband(tag.chip_stream(tx.payload, scenario.samples_per_chip), amplitude=amp * phase)
            if keep_fraction is not None:
                signal = signal.copy()
                signal[int(round(keep_fraction * signal.size)):] = 0.0
            placed = fractional_delay(signal, tx.start_sample, total_length=n_samples)
            buffer += placed

    if plan is not None:
        # Shared-medium faults, one frame-airtime window at a time: the
        # jammer adds band noise, the saturated ADC hard-limits I/Q.
        for r in range(int(np.ceil(n_samples / fault_unit))):
            rf = plan.resolve(r, n_tags)
            lo, hi = r * fault_unit, min((r + 1) * fault_unit, n_samples)
            jam = rf.jammer_samples(hi - lo, scenario.sample_rate_hz)
            if jam is not None:
                buffer[lo:hi] += jam
                _inject("fault.interference")
            if rf.clip_level is not None:
                buffer[lo:hi] = rf.clip(buffer[lo:hi])
                _inject("fault.adc_clip")

    with tracer.span(S.STREAM_DECODE):
        decoded = receiver.process_stream(buffer)

    # Score: a decode counts once per matching offered transmission
    # (payloads are random, so payload identity is an exact matcher).
    outstanding: Dict[Tuple[int, bytes], int] = {}
    for tx in transmissions:
        key = (tx.tag_index, tx.payload)
        outstanding[key] = outstanding.get(key, 0) + 1
    for frame in decoded:
        key = (frame.user_id, frame.payload)
        if outstanding.get(key, 0) > 0:
            outstanding[key] -= 1
            result.delivered += 1
            result.per_tag_delivered[frame.user_id] = (
                result.per_tag_delivered.get(frame.user_id, 0) + 1
            )
    result.faults_injected = injected
    if tracer.enabled:
        tracer.count(C.UNSLOTTED_OFFERED, result.offered)
        tracer.count(C.UNSLOTTED_DELIVERED, result.delivered)
        for reason, count in injected.items():
            tracer.count(fault_injection(reason), count)
    return result
