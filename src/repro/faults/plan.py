"""Deterministic, seed-driven fault injection plans.

A :class:`FaultPlan` bundles fault models (:mod:`repro.faults.models`)
with one root seed and resolves them round by round into a concrete
:class:`RoundFaults` -- *which* tags are silent, truncated, drifting or
deaf to ACKs this round, whether the jammer fires, whether the ADC
clips, and how the gateway's offered load and dispatch budget scale.
Resolution is a pure function of ``(plan seed, fault index, round
index)``: the same plan queried twice, in any order, by any consumer
(the round simulator, the ARQ layer, the unslotted driver, the gateway
soak) yields bit-identical faults.  That is what makes faulted
experiments reproducible and lets a sweep re-run a single crashed
point.

Typical use::

    from repro.faults import BurstInterferer, FaultPlan, TagDropout

    plan = FaultPlan(
        [TagDropout(probability=0.2), BurstInterferer(start_round=10, end_round=20)],
        seed=42,
    )
    net = CbmaNetwork(config, deployment, faults=plan)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.faults.models import (
    LOAD_FAULTS,
    TAG_FAULTS,
    AckLoss,
    AdcSaturation,
    BurstInterferer,
    CapacityBrownout,
    OscillatorDrift,
    StuckImpedance,
    TagBrownout,
    TagDropout,
    TrafficSpike,
    _LoadFault,
)

__all__ = ["FaultPlan", "RoundFaults", "TagTxFault"]


@dataclass(frozen=True)
class TagTxFault:
    """Resolved transmit-side impairment of one tag for one round.

    Consumed by the waveform synthesizers
    (:func:`repro.sim.collision.simulate_round`,
    :func:`repro.sim.unslotted.simulate_unslotted`): a *silent* tag
    radiates nothing; a tag with ``keep_fraction`` transmits only the
    leading fraction of its burst.
    """

    silent: bool = False
    keep_fraction: Optional[float] = None


def _rng(seed: int, fault_index: int, round_index: int) -> np.random.Generator:
    """The deterministic stream for one (fault, round) cell."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, fault_index, round_index))
    )


@dataclass(frozen=True)
class RoundFaults:
    """Every fault resolved for one round.

    ``silent`` / ``brownout`` / ``drift_ppm`` / ``stuck`` / ``ack_lost``
    are tag-indexed; ``jammers`` is a tuple of ``(power_w, seed)``
    bursts to add at the channel and ``clip_level`` the ADC full-scale
    amplitude (``None`` = no clipping).  ``spike`` multiplies the
    gateway's offered chunks and ``budget`` its dispatch budget; they
    touch no waveform, so :attr:`any_active` ignores them.
    """

    round_index: int
    silent: FrozenSet[int] = frozenset()
    brownout: Dict[int, float] = field(default_factory=dict)
    drift_ppm: Dict[int, float] = field(default_factory=dict)
    stuck: FrozenSet[int] = frozenset()
    ack_lost: FrozenSet[int] = frozenset()
    jammers: Tuple[Tuple[float, int], ...] = ()
    clip_level: Optional[float] = None
    spike: float = 1.0
    budget: float = 1.0

    @property
    def any_active(self) -> bool:
        """Whether any fault touches the air interface this round."""
        return bool(
            self.silent
            or self.brownout
            or self.drift_ppm
            or self.stuck
            or self.ack_lost
            or self.jammers
            or self.clip_level is not None
        )

    # ------------------------------------------------------------------
    # Views for the consumers
    # ------------------------------------------------------------------

    def tx_faults(self) -> Dict[int, TagTxFault]:
        """Per-tag transmit impairments for the waveform synthesizer."""
        out: Dict[int, TagTxFault] = {}
        for tag in self.silent:
            out[tag] = TagTxFault(silent=True)
        for tag, keep in self.brownout.items():
            if tag not in out:  # full dropout wins over brownout
                out[tag] = TagTxFault(keep_fraction=keep)
        return out

    def loss_reason(self, tag_id: int) -> Optional[str]:
        """The fault slug that best explains losing *tag_id*'s frame.

        Priority follows causality: a silent tag cannot even be
        truncated; tag-local faults beat shared-medium ones.
        """
        if tag_id in self.silent:
            return "fault.dropout"
        if tag_id in self.brownout:
            return "fault.brownout"
        if tag_id in self.drift_ppm:
            return "fault.clock_drift"
        if self.clip_level is not None:
            return "fault.adc_clip"
        if self.jammers:
            return "fault.interference"
        return None

    def jammer_samples(self, n: int, sample_rate_hz: float) -> Optional[np.ndarray]:
        """The summed jammer contribution for an *n*-sample buffer.

        Each burst draws from its own seeded generator, so the jammer
        waveform never perturbs (and is never perturbed by) the
        simulation's main RNG stream.
        """
        if not self.jammers:
            return None
        total = np.zeros(n, dtype=np.complex128)
        for power_w, seed in self.jammers:
            gen = np.random.default_rng(seed)
            std = float(np.sqrt(power_w / 2.0))
            total += gen.normal(0.0, std, n) + 1j * gen.normal(0.0, std, n)
        return total

    def clip(self, iq: np.ndarray) -> np.ndarray:
        """Apply ADC saturation to a buffer (no-op when not clipping)."""
        if self.clip_level is None:
            return iq
        level = self.clip_level
        return np.clip(iq.real, -level, level) + 1j * np.clip(iq.imag, -level, level)


#: The no-fault singleton returned for rounds nothing touches.
_CLEAN = RoundFaults(round_index=-1)

#: Fault model classes a serialised plan may reference, by class name.
#: Keeping this an explicit registry (rather than getattr on the module)
#: means a checkpoint can never instantiate an arbitrary symbol.
_MODEL_REGISTRY = {cls.__name__: cls for cls in TAG_FAULTS + LOAD_FAULTS}


class FaultPlan:
    """A deterministic schedule of faults for one run.

    Parameters
    ----------
    faults:
        Fault model instances from :mod:`repro.faults.models`.
    seed:
        Root seed of every stochastic draw the plan makes.  The same
        ``(faults, seed)`` pair resolves identically forever.
    """

    def __init__(self, faults: Sequence = (), seed: int = 0):
        faults = tuple(faults)
        for f in faults:
            if _MODEL_REGISTRY.get(type(f).__name__) is not type(f):
                raise TypeError(
                    f"{f!r} is not a fault model (see repro.faults.models)"
                )
        self.faults = faults
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ", ".join(type(f).__name__ for f in self.faults)
        return f"FaultPlan([{kinds}], seed={self.seed})"

    @property
    def empty(self) -> bool:
        return not self.faults

    def check_kinds(self, allowed: Tuple[type, ...], consumer: str) -> None:
        """Raise ValueError naming every fault that is not one of the
        *allowed* models: *consumer* (``"the gateway soak"``) would
        silently ignore it."""
        foreign = [type(f).__name__ for f in self.faults if not isinstance(f, allowed)]
        if foreign:
            names = [cls.__name__ for cls in allowed]
            only = ", ".join(names[:-1]) + " and " + names[-1] if len(names) > 1 else names[0]
            raise ValueError(f"{consumer} applies only {only}, not {', '.join(foreign)}")

    def describe(self) -> str:
        """One human-readable line per fault."""
        if not self.faults:
            return "(no faults)"
        lines = []
        for i, f in enumerate(self.faults):
            end = "inf" if f.end_round is None else str(f.end_round)
            if isinstance(f, _LoadFault):
                target = f"factor {f.factor:g}"
            else:
                target = "tags " + ("all" if f.tags is None else ",".join(map(str, f.tags)))
            lines.append(
                f"[{i}] {type(f).__name__} rounds [{f.start_round}, {end}) {target}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialisation (checkpoints, shrunken-plan artifacts)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form: ``{"seed": ..., "faults": [...]}``.

        Each fault is its class name plus its dataclass fields, so the
        round-trip through :meth:`from_dict` reconstructs a plan that
        resolves bit-identically -- what lets a chaos-soak artifact
        replay a shrunken fault schedule on another machine.
        """
        return {
            "seed": self.seed,
            "faults": [
                {
                    "kind": type(f).__name__,
                    "params": {
                        fld.name: (
                            list(value) if isinstance(value, tuple) else value
                        )
                        for fld in dataclasses.fields(f)
                        for value in (getattr(f, fld.name),)
                    },
                }
                for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`.  Strict: a missing ``faults``,
        ``seed``, ``kind`` or ``params`` key raises ValueError naming
        it, and so does an unknown kind."""
        for key in ("faults", "seed"):
            if key not in data:
                raise ValueError(f"fault plan has no {key!r} key")
        faults = []
        for rec in data["faults"]:
            for key in ("kind", "params"):
                if key not in rec:
                    raise ValueError(f"fault record {rec!r} has no {key!r} key")
            kind = rec["kind"]
            model = _MODEL_REGISTRY.get(kind)
            if model is None:
                raise ValueError(
                    f"unknown fault kind {kind!r} (known: {sorted(_MODEL_REGISTRY)})"
                )
            params = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in rec["params"].items()
            }
            faults.append(model(**params))
        return cls(faults, seed=int(data["seed"]))

    # ------------------------------------------------------------------

    def resolve(self, round_index: int, n_tags: int = 0) -> RoundFaults:
        """Resolve every fault for *round_index* over *n_tags* tags.

        A caller without tags (the gateway soak) gets the medium-wide
        and load faults only.  Load faults draw nothing: active spikes
        multiply and the tightest active brownout wins.
        """
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        silent = set()
        brownout: Dict[int, float] = {}
        drift: Dict[int, float] = {}
        stuck = set()
        ack_lost = set()
        jammers = []
        clip_level: Optional[float] = None
        spike = budget = 1.0
        load = False

        for idx, f in enumerate(self.faults):
            if not f.active(round_index):
                continue
            if isinstance(f, TrafficSpike):
                spike *= f.factor
                load = True
                continue
            if isinstance(f, CapacityBrownout):
                budget = min(budget, f.factor)
                load = True
                continue
            if isinstance(f, StuckImpedance):
                stuck.update(f.targets(n_tags))
                continue
            if isinstance(f, AdcSaturation):
                clip_level = (
                    f.full_scale if clip_level is None else min(clip_level, f.full_scale)
                )
                continue
            gen = _rng(self.seed, idx, round_index)
            if isinstance(f, BurstInterferer):
                if gen.random() < f.duty:
                    # An independent per-round seed keeps the burst
                    # waveform decoupled from this decision draw.
                    jammers.append((f.power_w, int(gen.integers(0, 2**63 - 1))))
                continue
            # Tag-targeted stochastic faults: one draw per target, in
            # tag order, so resolution is order-independent.
            for tag in f.targets(n_tags):
                hit = gen.random() < f.probability
                if isinstance(f, TagBrownout):
                    keep = float(gen.uniform(f.keep_min, f.keep_max))
                    if hit:
                        brownout[tag] = keep
                elif hit:
                    if isinstance(f, TagDropout):
                        silent.add(tag)
                    elif isinstance(f, OscillatorDrift):
                        drift[tag] = drift.get(tag, 0.0) + f.drift_ppm
                    elif isinstance(f, AckLoss):
                        ack_lost.add(tag)

        if not (silent or brownout or drift or stuck or ack_lost or jammers or load) and clip_level is None:
            return _CLEAN
        return RoundFaults(
            round_index=round_index,
            silent=frozenset(silent),
            brownout=brownout,
            drift_ppm=drift,
            stuck=frozenset(stuck),
            ack_lost=frozenset(ack_lost),
            jammers=tuple(jammers),
            clip_level=clip_level,
            spike=spike,
            budget=budget,
        )
