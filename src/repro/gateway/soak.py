"""Deterministic chaos soak for the gateway: spikes, brownouts, drains.

The session-level soak (:mod:`repro.sim.experiments.soak`) stresses
one decoder with waveform faults; this harness stresses the *service*
above it with the catalogue's load faults
(:class:`~repro.faults.models.TrafficSpike` multiplies the offered
chunk rate, :class:`~repro.faults.models.CapacityBrownout` cuts the
dispatch budget) and verifies the gateway's own invariants: every
offered chunk is admitted or rejected (never silently lost), every
admitted chunk is decoded or counted as shed, frames stay ordered and
duplicate-free per stream, intake and retention memory stay bounded,
and the degradation ladder only ever moves one rung at a time unless
forced.

Plans are ordinary :class:`~repro.faults.plan.FaultPlan`\\ s, in the one
plan schema; :func:`run_gateway_soak` refuses any fault other than the
two load models, since it has no waveform to apply them to.
Everything is a pure function of ``(config, plan)``: the gateway runs
on a virtual clock (admission, throttling and retries all derive from
it), load faults resolve from their parameters alone, and
``max_retries=0`` keeps the admission path free of sleeps -- so a red
soak replays bit-identically anywhere, and
:func:`repro.sim.experiments.soak.shrink_fault_plan` can ddmin a
failing plan to a minimal reproduction.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.farm.config import FarmConfig
from repro.faults.models import LOAD_FAULTS, CapacityBrownout, TrafficSpike
from repro.faults.plan import FaultPlan
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import Gateway, StreamReport
from repro.gateway.ladder import GatewayState
from repro.sim.experiments.soak import (
    InvariantViolation,
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    check_frame_stream,
    soak_phy_config,
)

__all__ = [
    "GatewaySoakConfig",
    "GatewaySoakResult",
    "check_load_plan",
    "random_gateway_fault_plan",
    "run_gateway_soak",
    "check_gateway_invariants",
]

# FaultPlan's old name here, kept for perfbench, its only reader (it also
# imports TrafficSpike and CapacityBrownout from this module).
GatewayFaultPlan = FaultPlan


def check_load_plan(plan: FaultPlan) -> None:
    """Raise ValueError naming every fault the gateway soak cannot
    apply: it offers load, so only the two load models act on it."""
    plan.check_kinds(LOAD_FAULTS, "the gateway soak")


def random_gateway_fault_plan(seed: int, n_rounds: int) -> FaultPlan:
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
    return FaultPlan(faults, seed=int(seed))


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
        if not 0 <= self.migrate_worker < self.n_workers:
            raise ValueError(
                f"migrate_worker {self.migrate_worker} is not in [0, {self.n_workers})"
            )
        if self.migrate_round is not None:
            if not 0 <= self.migrate_round < self.n_rounds:
                raise ValueError(
                    f"migrate_round {self.migrate_round} is not in [0, {self.n_rounds})"
                )
            if self.n_workers < 2:
                raise ValueError("a migrate needs n_workers >= 2 (a live worker to move to)")


@dataclass
class GatewaySoakResult:
    """Outcome of one :func:`run_gateway_soak`."""

    config: GatewaySoakConfig
    plan: Optional[FaultPlan]
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
    plan: Optional[FaultPlan] = None,
    tracer=None,
) -> GatewaySoakResult:
    """One full gateway soak: offer, dispatch, fault, drain, verify.

    Per round every stream offers its next chunks (multiplied by any
    active spike), the gateway runs one dispatch cycle at the
    (possibly browned-out) budget, and the virtual clock advances.
    After the last round the intake drains, every stream closes with
    a flush, and :func:`check_gateway_invariants` audits the ledger.
    A *plan* holding any fault but the load models raises ValueError
    (:func:`check_load_plan`) before anything runs.
    """
    if plan is not None:
        check_load_plan(plan)
    result = asyncio.run(_drive(cfg, plan, tracer))
    result.violations = check_gateway_invariants(cfg, result)
    return result


async def _drive(
    cfg: GatewaySoakConfig,
    plan: Optional[FaultPlan],
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
        soak_phy_config(cfg.capture),
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
        faults = plan if plan is not None else FaultPlan()
        for r in range(cfg.n_rounds):
            rf = faults.resolve(r)
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


#: Rung index by state value, in the ladder's declared order.
_RUNG = {state.value: i for i, state in enumerate(GatewayState)}


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
        out += check_frame_stream(rep.frames, tolerance, label=f"stream {sid} ")

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
        gap = abs(_RUNG[to] - _RUNG[frm])
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
