"""Deterministic chaos soak for the gateway: spikes, brownouts, drains.

The session-level soak (:mod:`repro.sim.experiments.soak`) stresses
one decoder with waveform faults; this harness stresses the *service*
above it with load faults -- traffic spikes that multiply the offered
chunk rate and capacity brownouts that cut the dispatch budget -- and
verifies the gateway's own invariants: every offered chunk is
admitted or rejected (never silently lost), every admitted chunk is
decoded or counted as shed, frames stay ordered and duplicate-free
per stream, intake and retention memory stay bounded, and the
degradation ladder only ever moves one rung at a time unless forced.

Everything is a pure function of ``(config, plan)``: the gateway runs
on a virtual clock (admission, throttling and retries all derive from
it), fault plans resolve from dataclass parameters alone, and
``max_retries=0`` keeps the admission path free of sleeps -- so a red
soak replays bit-identically anywhere, and
:func:`repro.sim.experiments.soak.shrink_fault_plan` (which this
plan class is shaped for) can ddmin a failing plan to a minimal
reproduction.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.farm.config import FarmConfig
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import Gateway, StreamReport
from repro.gateway.ladder import GatewayState
from repro.sim.experiments.soak import (
    InvariantViolation,
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
)
from repro.sim.network import CbmaConfig

__all__ = [
    "TrafficSpike",
    "CapacityBrownout",
    "GatewayRoundFaults",
    "GatewayFaultPlan",
    "GatewaySoakConfig",
    "GatewaySoakResult",
    "random_gateway_fault_plan",
    "run_gateway_soak",
    "check_gateway_invariants",
]


# ----------------------------------------------------------------------
# Gateway-level fault models and plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpike:
    """Offered traffic multiplied by *factor* over a round window."""

    factor: float = 3.0
    start_round: int = 0
    end_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("spike factor must be >= 1")
        if self.start_round < 0:
            raise ValueError("start_round must be >= 0")

    def active(self, round_index: int) -> bool:
        return round_index >= self.start_round and (
            self.end_round is None or round_index < self.end_round
        )


@dataclass(frozen=True)
class CapacityBrownout:
    """Dispatch budget cut to *factor* of normal over a round window.

    The load-side analogue of :class:`repro.faults.models.TagBrownout`:
    the decode pool slows (a noisy neighbour, a thermal throttle, a
    worker drain) while traffic keeps arriving.
    """

    factor: float = 0.25
    start_round: int = 0
    end_round: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError("brownout factor must be in [0, 1]")
        if self.start_round < 0:
            raise ValueError("start_round must be >= 0")

    def active(self, round_index: int) -> bool:
        return round_index >= self.start_round and (
            self.end_round is None or round_index < self.end_round
        )


@dataclass(frozen=True)
class GatewayRoundFaults:
    """Every gateway fault resolved for one round."""

    round_index: int
    spike: float = 1.0
    """Multiplier on the offered chunks per stream this round."""
    budget: float = 1.0
    """Multiplier on the dispatch budget this round."""


_GATEWAY_MODEL_REGISTRY = {
    "traffic_spike": TrafficSpike,
    "capacity_brownout": CapacityBrownout,
}


class GatewayFaultPlan:
    """A seeded schedule of gateway load faults.

    Shaped like :class:`repro.faults.plan.FaultPlan` -- ``faults``,
    ``seed``, ``empty``, ``resolve`` and the ``cls(faults, seed=...)``
    constructor -- so
    :func:`repro.sim.experiments.soak.shrink_fault_plan` shrinks these
    plans through the identical ddmin machinery.  Resolution is pure
    (dataclass parameters only): active spike factors multiply,
    active brownout factors take their minimum.
    """

    def __init__(self, faults: Sequence[object], seed: int = 0) -> None:
        self.faults: Tuple[object, ...] = tuple(faults)
        self.seed = int(seed)
        for f in self.faults:
            if not isinstance(f, (TrafficSpike, CapacityBrownout)):
                raise TypeError(f"not a gateway fault model: {f!r}")

    @property
    def empty(self) -> bool:
        return not self.faults

    def resolve(self, round_index: int) -> GatewayRoundFaults:
        spike = 1.0
        budget = 1.0
        for f in self.faults:
            if not f.active(round_index):
                continue
            if isinstance(f, TrafficSpike):
                spike *= f.factor
            else:
                budget = min(budget, f.factor)
        return GatewayRoundFaults(round_index, spike=spike, budget=budget)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``repro gateway soak`` artifact)."""
        names = {cls: name for name, cls in _GATEWAY_MODEL_REGISTRY.items()}
        return {
            "seed": self.seed,
            "faults": [
                {"kind": names[type(f)], **_asdict(f)} for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GatewayFaultPlan":
        """Inverse of :meth:`to_dict`.  Strict: a missing ``faults``,
        ``seed`` or ``kind`` raises ValueError naming the key, so a
        foreign document (say a whole soak artifact) cannot replay as an
        empty plan."""
        for key in ("faults", "seed"):
            if key not in data:
                raise ValueError(f"gateway fault plan has no {key!r} key")
        faults = []
        for item in data["faults"]:
            params = dict(item)
            if "kind" not in params:
                raise ValueError(f"gateway fault {item!r} has no 'kind' key")
            kind = params.pop("kind")
            try:
                model = _GATEWAY_MODEL_REGISTRY[kind]
            except KeyError:
                raise ValueError(f"unknown gateway fault kind {kind!r}") from None
            faults.append(model(**params))
        return cls(faults, seed=int(data["seed"]))

    def __repr__(self) -> str:
        return f"GatewayFaultPlan({list(self.faults)!r}, seed={self.seed})"


def _asdict(model: object) -> Dict[str, object]:
    """Shallow dataclass -> dict (the models are flat)."""
    return {
        f.name: getattr(model, f.name) for f in dataclasses.fields(model)
    }


def random_gateway_fault_plan(seed: int, n_rounds: int) -> GatewayFaultPlan:
    """A randomized (seed-determined) spike/brownout schedule."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 3)))
    n_faults = int(rng.integers(1, 4))
    faults: List[object] = []
    for _ in range(n_faults):
        lo = int(rng.integers(0, max(n_rounds - 2, 1)))
        length = int(rng.integers(2, max(n_rounds // 3, 3)))
        hi = max(min(lo + length, n_rounds), lo + 1)
        if rng.random() < 0.5:
            faults.append(
                TrafficSpike(
                    factor=float(rng.uniform(2.0, 5.0)), start_round=lo, end_round=hi
                )
            )
        else:
            faults.append(
                CapacityBrownout(
                    factor=float(rng.uniform(0.05, 0.5)), start_round=lo, end_round=hi
                )
            )
    return GatewayFaultPlan(faults, seed=int(seed))


# ----------------------------------------------------------------------
# The soak itself
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GatewaySoakConfig:
    """Shape of one gateway soak.

    Every stream decodes the same deterministic capture (one
    :class:`~repro.sim.experiments.soak.SoakConfig` stream cut into
    chunks), so all sessions share a template bank -- the farm's
    cross-session batched gate engages exactly as in production --
    and per-stream outcomes are directly comparable.
    """

    n_streams: int = 50
    n_rounds: int = 12
    seed: int = 7
    round_s: float = 0.1
    """Virtual seconds per round (drives token refill)."""
    chunks_per_round: int = 1
    """Chunks offered per stream per round, before spikes."""
    dispatch_budget: int = 96
    """Chunks decoded per round at full capacity, before brownouts."""
    priority_classes: int = 4
    """Stream priority is ``stream_id % priority_classes``."""
    n_workers: int = 2
    migrate_round: Optional[int] = None
    """Round after which worker ``migrate_worker`` is drained live."""
    migrate_worker: int = 0
    backend: str = "inline"
    """Farm backend; ``inline`` keeps a 50-stream soak CI-cheap and is
    the bit-identity oracle, ``process`` exercises the real pool."""
    capture: SoakConfig = field(
        default_factory=lambda: SoakConfig(
            n_windows=12, n_tags=2, seed=7, traffic_rate=0.3
        )
    )

    def __post_init__(self) -> None:
        if self.n_streams < 1 or self.n_rounds < 1:
            raise ValueError("n_streams and n_rounds must be >= 1")
        if self.chunks_per_round < 1 or self.dispatch_budget < 1:
            raise ValueError("chunks_per_round and dispatch_budget must be >= 1")
        if self.priority_classes < 1 or self.n_workers < 1:
            raise ValueError("priority_classes and n_workers must be >= 1")
        if self.round_s <= 0.0:
            raise ValueError("round_s must be positive")


@dataclass
class GatewaySoakResult:
    """Outcome of one :func:`run_gateway_soak`."""

    config: GatewaySoakConfig
    plan: Optional[GatewayFaultPlan]
    reports: Dict[int, StreamReport]
    offered: Dict[int, int]
    round_states: List[str]
    transitions: List[Tuple[str, str, bool]]
    admitted: int
    rejected: int
    shed: int
    deadline_misses: int
    migrations: int
    moved_sessions: List[int]
    peak_queue_depth: int
    peak_retained_samples: int
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def delivered_frames(self) -> int:
        return sum(len(r.frames) for r in self.reports.values())


def _phy_config(cap: SoakConfig) -> CbmaConfig:
    """The PHY config whose receiver decodes a *cap*-shaped capture."""
    return CbmaConfig(
        n_tags=cap.n_tags,
        seed=cap.seed,
        payload_bytes=cap.payload_bytes,
        code_length=cap.code_length,
        samples_per_chip=cap.samples_per_chip,
        user_threshold=cap.user_threshold,
    )


def _soak_gateway_config(cfg: GatewaySoakConfig) -> GatewayConfig:
    """Admission policy sized to the soak's offered load.

    Token refill covers twice the nominal offered rate (spikes have
    to fight for tokens), the queue watermarks sit at one round of
    traffic, and ``max_retries=0`` keeps admission sleep-free so the
    run is a pure function of the virtual clock.
    """
    nominal = cfg.n_streams * cfg.chunks_per_round / cfg.round_s
    return GatewayConfig(
        token_rate=2.0 * nominal,
        token_burst=2.0 * cfg.n_streams * cfg.chunks_per_round,
        max_intake_chunks=8,
        max_streams=cfg.n_streams,
        queue_high=cfg.n_streams * cfg.chunks_per_round,
        queue_low=max(1, cfg.n_streams // 5),
        patience=2,
        max_retries=0,
        retain_chunks=32,
    )


def run_gateway_soak(
    cfg: GatewaySoakConfig,
    plan: Optional[GatewayFaultPlan] = None,
    tracer=None,
) -> GatewaySoakResult:
    """One full gateway soak: offer, dispatch, fault, drain, verify.

    Per round every stream offers its next chunks (multiplied by any
    active spike), the gateway runs one dispatch cycle at the
    (possibly browned-out) budget, and the virtual clock advances.
    After the last round the intake drains, every stream closes with
    a flush, and :func:`check_gateway_invariants` audits the ledger.
    """
    result = asyncio.run(_drive(cfg, plan, tracer))
    result.violations = check_gateway_invariants(cfg, result)
    return result


async def _drive(
    cfg: GatewaySoakConfig,
    plan: Optional[GatewayFaultPlan],
    tracer,
) -> GatewaySoakResult:
    tags, stream = build_soak_stack(cfg.capture)
    buffer, _offered_tx = build_soak_stream(cfg.capture, None, stream, tags)
    chunk = cfg.capture.chunk_hops * stream.hop_samples
    chunks = [buffer[lo : lo + chunk] for lo in range(0, buffer.size, chunk)]

    now = [0.0]

    def clock() -> float:
        return now[0]

    async def vsleep(dt: float) -> None:
        now[0] += dt

    gw = Gateway.from_config(
        _phy_config(cfg.capture),
        gateway=_soak_gateway_config(cfg),
        farm=FarmConfig(
            n_workers=cfg.n_workers,
            ring_slots=8,
            ring_slot_samples=max(chunk, 1),
        ),
        tracer=tracer,
        backend=cfg.backend,
        clock=clock,
        sleep=vsleep,
        seed=cfg.seed,
    )
    try:
        sids = []
        for i in range(cfg.n_streams):
            sids.append(
                await gw.open_stream(priority=i % cfg.priority_classes)
            )
        cursor = {sid: 0 for sid in sids}
        offered = {sid: 0 for sid in sids}
        round_states: List[str] = []
        moved: List[int] = []
        for r in range(cfg.n_rounds):
            rf = (
                plan.resolve(r)
                if plan is not None and not plan.empty
                else GatewayRoundFaults(r)
            )
            n_offer = max(1, int(round(cfg.chunks_per_round * rf.spike)))
            for sid in sids:
                for _ in range(n_offer):
                    if cursor[sid] >= len(chunks):
                        break
                    await gw.submit(sid, chunks[cursor[sid]])
                    cursor[sid] += 1
                    offered[sid] += 1
            budget = max(1, int(cfg.dispatch_budget * rf.budget))
            await gw.step(budget=budget)
            if cfg.migrate_round is not None and r == cfg.migrate_round:
                moved = await gw.drain_worker(cfg.migrate_worker)
            round_states.append(gw.state.value)
            now[0] += cfg.round_s
        while gw.queue_depth:
            await gw.step()
            now[0] += cfg.round_s
        reports = {}
        for sid in list(gw.stream_ids):
            reports[sid] = await gw.close_stream(sid, flush=True)
        return GatewaySoakResult(
            config=cfg,
            plan=plan,
            reports=reports,
            offered=offered,
            round_states=round_states,
            transitions=[
                (frm.value, to.value, forced)
                for frm, to, forced in gw.ladder.transitions
            ],
            admitted=gw.admitted,
            rejected=gw.rejected,
            shed=gw.shed,
            deadline_misses=gw.deadline_misses,
            migrations=gw.migrations,
            moved_sessions=moved,
            peak_queue_depth=gw.peak_queue_depth,
            peak_retained_samples=gw.peak_retained_samples,
        )
    finally:
        gw.close()


_LADDER_ORDER = ["full", "throttled", "shed", "draining"]


def check_gateway_invariants(
    cfg: GatewaySoakConfig, result: GatewaySoakResult
) -> List[InvariantViolation]:
    """Every machine-verifiable invariant of a finished gateway soak."""
    out: List[InvariantViolation] = []
    _tags, stream = build_soak_stack(cfg.capture)
    tolerance = stream.frame_samples // 2
    gwcfg = _soak_gateway_config(cfg)

    for sid, rep in sorted(result.reports.items()):
        if result.offered.get(sid, 0) != rep.admitted + rep.rejected:
            out.append(
                InvariantViolation(
                    "silent_drop",
                    f"stream {sid}: offered {result.offered.get(sid, 0)} != "
                    f"admitted {rep.admitted} + rejected {rep.rejected}",
                )
            )
        if rep.admitted != rep.fed + rep.shed:
            out.append(
                InvariantViolation(
                    "admission_accounting",
                    f"stream {sid}: admitted {rep.admitted} != "
                    f"fed {rep.fed} + shed {rep.shed}",
                )
            )
        last_by_key: Dict[Tuple[int, bytes], int] = {}
        prev_start = None
        for k, f in enumerate(rep.frames):
            key = (f.user_id, f.payload)
            prev = last_by_key.get(key)
            if prev is not None and abs(f.start_sample - prev) < tolerance:
                out.append(
                    InvariantViolation(
                        "duplicate_frame",
                        f"stream {sid} frame #{k} user {f.user_id} at "
                        f"{f.start_sample} duplicates one at {prev}",
                    )
                )
            last_by_key[key] = f.start_sample
            if prev_start is not None and f.start_sample < prev_start:
                out.append(
                    InvariantViolation(
                        "order",
                        f"stream {sid} frame #{k} start {f.start_sample} "
                        f"emitted after start {prev_start}",
                    )
                )
            prev_start = f.start_sample

    intake_bound = cfg.n_streams * gwcfg.max_intake_chunks
    if result.peak_queue_depth > intake_bound:
        out.append(
            InvariantViolation(
                "intake_bound",
                f"peak aggregate intake {result.peak_queue_depth} exceeds "
                f"{cfg.n_streams} x max_intake_chunks {gwcfg.max_intake_chunks}",
            )
        )
    chunk = cfg.capture.chunk_hops * stream.hop_samples
    retain_bound = cfg.n_streams * gwcfg.retain_chunks * chunk
    if result.peak_retained_samples > retain_bound:
        out.append(
            InvariantViolation(
                "retention_bound",
                f"peak retained samples {result.peak_retained_samples} "
                f"exceed bound {retain_bound}",
            )
        )

    for i, (frm, to, forced) in enumerate(result.transitions):
        if forced:
            continue
        gap = abs(_LADDER_ORDER.index(to) - _LADDER_ORDER.index(frm))
        if gap != 1:
            out.append(
                InvariantViolation(
                    "ladder_step",
                    f"transition #{i} {frm} -> {to} skips rungs without force",
                )
            )
        if to == "draining":
            out.append(
                InvariantViolation(
                    "ladder_step",
                    f"transition #{i} entered draining without force",
                )
            )
    return out
