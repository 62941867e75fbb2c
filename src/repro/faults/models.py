"""The fault model catalog.

Each model is a small frozen dataclass describing one *class* of
deployment failure, over a window of rounds and (where applicable) a
subset of tags.  The models are pure data: all randomness is drawn by
:class:`~repro.faults.plan.FaultPlan` from seeds derived per
``(plan seed, fault index, round index)``, so a plan resolves
bit-identically regardless of how, or how often, it is queried.

Windows are half-open round intervals ``[start_round, end_round)``;
``end_round=None`` means "until the end of the run".  ``tags=None``
means "every tag in the group".  Each tag or medium model carries a
``reason`` slug; frames lost to the fault surface in the observability
error budget as ``fault.<reason>`` (see :mod:`repro.obs.profile`).
The two load models act on the gateway, not the air: they target no
tag, lose no frame by themselves (shed chunks are counted as
``gateway.shed``) and so carry no slug.

The catalog covers the failure classes a deployed backscatter network
actually meets:

================== ==================================================
:class:`TagDropout`       tag browns out and stays silent for a round
:class:`TagBrownout`      tag loses power *mid-frame* (truncated burst)
:class:`OscillatorDrift`  clock error beyond the chip-offset budget
:class:`BurstInterferer`  time-windowed jammer added at the channel
:class:`AdcSaturation`    receiver front-end clipping (ADC rails)
:class:`AckLoss`          downlink ACK never reaches the tag
:class:`StuckImpedance`   power-control commands are ignored
:class:`TrafficSpike`     gateway load: offered chunk rate multiplied
:class:`CapacityBrownout` gateway load: dispatch budget cut
================== ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.taxonomy import FAULT_KINDS
from repro.utils.db import dbm_to_watts

__all__ = [
    "TagDropout",
    "TagBrownout",
    "OscillatorDrift",
    "BurstInterferer",
    "AdcSaturation",
    "AckLoss",
    "StuckImpedance",
    "TrafficSpike",
    "CapacityBrownout",
    "TAG_FAULTS",
    "LOAD_FAULTS",
    "FAULT_REASONS",
]

#: Every loss-attribution slug a fault model can emit, in the priority
#: order used when several faults hit the same frame.  Derived from the
#: taxonomy's declared fault kinds (:data:`repro.obs.taxonomy.FAULT_KINDS`)
#: so the slugs and the ``errors.fault.<kind>`` counter family cannot
#: drift apart; ``ack_loss`` is excluded because a lost ACK never loses
#: the *data* frame (it surfaces as ``faults.ack_lost`` instead).
FAULT_REASONS = tuple(
    f"fault.{kind}" for kind in FAULT_KINDS if kind != "ack_loss"
)


def _check_window(start_round: int, end_round: Optional[int]) -> None:
    if start_round < 0:
        raise ValueError(f"start_round must be >= 0, got {start_round}")
    if end_round is not None and end_round <= start_round:
        raise ValueError(f"empty fault window [{start_round}, {end_round})")


def _check_probability(p: float, name: str = "probability") -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


class _Window:
    """The round window ``[start_round, end_round)`` of every fault model."""

    start_round: int
    end_round: Optional[int]

    def active(self, round_index: int) -> bool:
        """Whether the fault's window covers *round_index*."""
        if round_index < self.start_round:
            return False
        return self.end_round is None or round_index < self.end_round


@dataclass(frozen=True)
class _WindowedFault(_Window):
    """Shared window/target fields of every tag and medium fault model."""

    tags: Optional[Tuple[int, ...]] = None
    start_round: int = 0
    end_round: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start_round, self.end_round)
        if self.tags is not None:
            object.__setattr__(self, "tags", tuple(int(t) for t in self.tags))

    def targets(self, n_tags: int) -> Tuple[int, ...]:
        """The tag ids this fault may hit, within a group of *n_tags*."""
        if self.tags is None:
            return tuple(range(n_tags))
        return tuple(t for t in self.tags if 0 <= t < n_tags)


@dataclass(frozen=True)
class TagDropout(_WindowedFault):
    """A tag goes completely silent for a round (power brown-out,
    harvester starvation, or a hard reset).  Each targeted tag drops
    out independently with *probability* in every window round."""

    probability: float = 1.0
    reason = "fault.dropout"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability(self.probability)


@dataclass(frozen=True)
class TagBrownout(_WindowedFault):
    """A tag loses power *mid-frame*: it transmits only the leading
    fraction of its burst, drawn uniformly from
    ``[keep_min, keep_max]``, then goes dark for the rest of the
    round.  The truncated burst still trips the energy detector, so
    this exercises the receiver's malformed-input path, not just a
    miss."""

    probability: float = 1.0
    keep_min: float = 0.1
    keep_max: float = 0.6
    reason = "fault.brownout"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability(self.probability)
        if not 0.0 <= self.keep_min <= self.keep_max <= 1.0:
            raise ValueError(
                f"need 0 <= keep_min <= keep_max <= 1, got [{self.keep_min}, {self.keep_max}]"
            )


@dataclass(frozen=True)
class OscillatorDrift(_WindowedFault):
    """A tag's clock drifts far beyond the chip-offset budget -- the RC
    oscillator regime of the paper's clock ablation (~1% = 10^4 ppm
    loses chip alignment within a frame).  *drift_ppm* is added on top
    of whatever drift the config already models."""

    probability: float = 1.0
    drift_ppm: float = 10_000.0
    reason = "fault.clock_drift"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability(self.probability)
        if self.drift_ppm <= 0:
            raise ValueError("drift_ppm must be positive")


@dataclass(frozen=True)
class BurstInterferer(_WindowedFault):
    """A time-windowed wideband jammer added at the channel: every
    window round is jammed independently with probability *duty*, and a
    jammed round receives complex Gaussian interference at
    *power_dbm* across the whole buffer.  ``tags`` is ignored (the
    jammer hits the shared medium)."""

    probability: float = 1.0  # alias kept for uniformity; see ``duty``
    power_dbm: float = -55.0
    duty: float = 1.0

    reason = "fault.interference"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability(self.duty, "duty")

    @property
    def power_w(self) -> float:
        return dbm_to_watts(self.power_dbm)


@dataclass(frozen=True)
class AdcSaturation(_WindowedFault):
    """The receiver front end clips: both I and Q rails saturate at
    ``full_scale`` (linear amplitude).  Models an ADC driven past its
    reference by a nearby strong emitter; the resulting hard-limited
    buffer is exactly the malformed input the decode pipeline must
    survive."""

    full_scale: float = 1e-6

    reason = "fault.adc_clip"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")


@dataclass(frozen=True)
class AckLoss(_WindowedFault):
    """The downlink ACK never reaches the tag (or arrives corrupted and
    fails its check -- indistinguishable to the tag).  The frame *was*
    delivered; only the tag's bookkeeping is wrong, so the cost is
    retransmissions/duplicates, never data."""

    probability: float = 1.0
    reason = "fault.ack_loss"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_probability(self.probability)


@dataclass(frozen=True)
class StuckImpedance(_WindowedFault):
    """A tag's impedance switch wedges: power-control commands
    (``step_impedance`` / ``set_impedance``) are ignored while the
    fault is active.  The tag keeps transmitting on whatever state it
    was last in -- Algorithm 1 must converge around it."""

    reason = "fault.stuck_impedance"


@dataclass(frozen=True)
class _LoadFault(_Window):
    """Shared fields of the gateway load models: a *factor* over a
    round window, with no tag targets."""

    factor: float
    start_round: int = 0
    end_round: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start_round, self.end_round)


@dataclass(frozen=True)
class TrafficSpike(_LoadFault):
    """Offered traffic multiplied by *factor* over a round window.
    Active spikes multiply."""

    factor: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("spike factor must be >= 1")


@dataclass(frozen=True)
class CapacityBrownout(_LoadFault):
    """Dispatch budget cut to *factor* of normal over a round window:
    the decode pool slows (a noisy neighbour, a thermal throttle, a
    worker drain) while traffic keeps arriving.  The load-side
    analogue of :class:`TagBrownout`; the tightest active brownout
    wins."""

    factor: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError("brownout factor must be in [0, 1]")


#: The tag and medium faults: what the round simulators and the session
#: soak apply.
TAG_FAULTS = (
    TagDropout,
    TagBrownout,
    OscillatorDrift,
    BurstInterferer,
    AdcSaturation,
    AckLoss,
    StuckImpedance,
)
#: The gateway load faults: what the gateway soak applies.
LOAD_FAULTS = (TrafficSpike, CapacityBrownout)
