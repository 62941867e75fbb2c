"""Chaos-soak harness: supervised sessions under randomized faults.

Unit tests prove single behaviours; a *soak* asks the opposite
question -- does anything break when a supervised streaming session
(:class:`~repro.receiver.session.SessionSupervisor`) digests thousands
of windows of traffic while a randomized-but-seeded
:class:`~repro.faults.FaultPlan` drops tags out, browns them out
mid-frame, drifts their oscillators off the chip grid, keys up a
jammer and saturates the ADC?

The harness is built around **machine-verifiable invariants**
(:func:`check_invariants`), not expectations about throughput:

- no two emitted :class:`~repro.receiver.streaming.StreamFrame`\\ s are
  duplicates (same user and payload within half a frame);
- ``start_sample`` is non-decreasing in emission order;
- the ingest backlog never exceeds the configured maximum;
- every frame the session counted was emitted;
- every window is accounted for: processed + shed equals the number of
  window positions walked, and live + skipped equals processed.

When a campaign violates an invariant, :func:`shrink_fault_plan`
reduces the fault schedule ddmin-style -- dropping whole faults, then
narrowing round windows -- to a *minimal* plan that still reproduces
the violation.  Because plans resolve as a pure function of their
seed, the shrunken plan replays the failure deterministically on any
machine; ``repro soak`` writes it as a JSON artifact.  The gateway
soak (:mod:`repro.gateway.soak`) shares this module's capture, frame
checks and shrinker, and its plans are :class:`FaultPlan`\\ s too,
holding the catalogue's load faults.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes import twonc_codes
from repro.faults.models import (
    TAG_FAULTS,
    AdcSaturation,
    BurstInterferer,
    OscillatorDrift,
    TagBrownout,
    TagDropout,
)
from repro.faults.plan import FaultPlan
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver.receiver import CbmaReceiver
from repro.receiver.session import SessionConfig, SessionSupervisor
from repro.receiver.streaming import StreamFrame, StreamingReceiver
from repro.sim.network import CbmaConfig
from repro.tag import FrameFormat, Tag

__all__ = [
    "SoakConfig",
    "SoakResult",
    "SoakTransmission",
    "InvariantViolation",
    "CampaignOutcome",
    "build_soak_stack",
    "soak_phy_config",
    "build_soak_stream",
    "check_frame_stream",
    "check_invariants",
    "run_soak",
    "random_fault_plan",
    "shrink_fault_plan",
    "run_campaign",
]


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak stream.

    One "window" here is one hop of the streaming walk (one maximum
    frame airtime); traffic, faults and the session walk all share
    that unit, exactly as :mod:`repro.sim.unslotted` maps fault-plan
    rounds onto frame airtimes.
    """

    n_windows: int = 2000
    n_tags: int = 2
    seed: int = 7
    payload_bytes: int = 4
    code_length: int = 32
    samples_per_chip: int = 1
    user_threshold: float = 0.25
    """Detector acceptance threshold.  Raised above the 0.12 default
    because the soak's short spread-preamble template (8 bits x 32
    chips) false-alarms on pure noise near 0.18 normalised correlation;
    at high SNR real frames score ~0.5+, so 0.25 keeps dark windows
    dark without costing detections."""
    traffic_rate: float = 0.05
    """Per-tag probability of starting one frame in each window."""
    amplitude: float = 1.0
    noise_sigma: float = 1e-6
    chunk_hops: int = 3
    """Feed cadence: samples per :meth:`SessionSupervisor.feed` call,
    in hop units (deliberately not a divisor-friendly number, so chunk
    boundaries and window boundaries interleave)."""

    def __post_init__(self) -> None:
        if self.n_windows < 1 or self.n_tags < 1:
            raise ValueError("n_windows and n_tags must be >= 1")
        if not 0.0 <= self.traffic_rate <= 1.0:
            raise ValueError("traffic_rate must be in [0, 1]")
        if self.chunk_hops < 1:
            raise ValueError("chunk_hops must be >= 1")


@dataclass(frozen=True)
class SoakTransmission:
    """One offered frame of soak traffic (pre-fault ground truth)."""

    window: int
    tag: int
    start: float
    payload: bytes
    fault: Optional[str] = None
    """Loss-attribution slug of the tx-side fault that hit it, if any."""


@dataclass(frozen=True)
class InvariantViolation:
    """One broken soak invariant, with enough detail to debug it."""

    name: str
    detail: str


@dataclass
class SoakResult:
    """Outcome of one :func:`run_soak` run."""

    config: SoakConfig
    frames: List[StreamFrame]
    offered: int
    delivered: int
    stats: Dict[str, int]
    final_state: str
    health_history: List[Tuple[int, str]]
    peak_backlog: int
    violations: List[InvariantViolation] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def build_soak_stack(cfg: SoakConfig) -> Tuple[List[Tag], StreamingReceiver]:
    """The tags and streaming receiver a soak stream decodes with."""
    codes = twonc_codes(cfg.n_tags, cfg.code_length)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(cfg.n_tags)]
    rx = CbmaReceiver(
        {i: codes[i] for i in range(cfg.n_tags)},
        fmt=fmt,
        samples_per_chip=cfg.samples_per_chip,
        user_threshold=cfg.user_threshold,
    )
    stream = StreamingReceiver(rx, max_frame_bits=fmt.frame_bits(cfg.payload_bytes))
    return tags, stream


def soak_phy_config(cfg: SoakConfig) -> CbmaConfig:
    """The PHY config whose receiver decodes a *cfg*-shaped capture
    (what a farm or gateway needs to build the soak's stack)."""
    return CbmaConfig(
        n_tags=cfg.n_tags,
        seed=cfg.seed,
        payload_bytes=cfg.payload_bytes,
        code_length=cfg.code_length,
        samples_per_chip=cfg.samples_per_chip,
        user_threshold=cfg.user_threshold,
    )


def _stretch(signal: np.ndarray, ppm: float) -> np.ndarray:
    """Resample *signal* as a clock running *ppm* fast would emit it.

    Unlike a plain start-offset, a time-stretch accumulates across the
    frame: the preamble stays near-aligned (the user detector still
    fires) while payload chips walk off the grid -- the exact
    live-but-undecodable signature that drives the session's RESYNC
    path.
    """
    if not ppm:
        return signal
    factor = 1.0 + ppm * 1e-6
    base = np.arange(signal.size, dtype=np.float64)
    t = base * factor
    return np.interp(t, base, signal.real, left=0.0, right=0.0) + 1j * np.interp(
        t, base, signal.imag, left=0.0, right=0.0
    )


def build_soak_stream(
    cfg: SoakConfig,
    plan: Optional[FaultPlan] = None,
    stream: Optional[StreamingReceiver] = None,
    tags: Optional[List[Tag]] = None,
) -> Tuple[np.ndarray, List[SoakTransmission]]:
    """Synthesize the soak capture: traffic plus injected faults.

    Deterministic for a given ``(cfg, plan)``: traffic draws come from
    one seeded generator walked in a fixed (window, tag) order and are
    made *before* faults are consulted, so two plans over the same
    config stress the identical underlying traffic.  Fault semantics
    follow :mod:`repro.sim.unslotted`: dropout silences a frame,
    brownout truncates it, drift time-stretches it, and the
    jammer/ADC-clip faults hit the shared buffer one window at a time.
    """
    if stream is None or tags is None:
        tags, stream = build_soak_stack(cfg)
    hop = stream.hop_samples
    n_samples = (cfg.n_windows + 2) * hop
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 1)))
    buffer = cfg.noise_sigma * (
        rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    )
    plan = plan if (plan is not None and not plan.empty) else None

    offered: List[SoakTransmission] = []
    for r in range(cfg.n_windows):
        rf = plan.resolve(r, cfg.n_tags) if plan is not None else None
        for i, tag in enumerate(tags):
            if rng.random() >= cfg.traffic_rate:
                continue
            start = r * hop + rng.uniform(0.0, hop - 1)
            payload = bytes(rng.integers(0, 256, cfg.payload_bytes, dtype=np.uint8))
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            fault = None
            keep = None
            ppm = 0.0
            if rf is not None:
                if i in rf.silent:
                    fault = "fault.dropout"
                else:
                    keep = rf.brownout.get(i)
                    if keep is not None:
                        fault = "fault.brownout"
                    ppm = rf.drift_ppm.get(i, 0.0)
                    if ppm and fault is None:
                        fault = "fault.clock_drift"
            offered.append(SoakTransmission(r, i, start, payload, fault))
            if fault == "fault.dropout":
                continue
            signal = ook_baseband(
                tag.chip_stream(payload, cfg.samples_per_chip),
                amplitude=cfg.amplitude * phase,
            )
            if keep is not None:
                signal = signal.copy()
                signal[int(round(keep * signal.size)) :] = 0.0
            if ppm:
                signal = _stretch(signal, ppm)
            buffer += fractional_delay(signal, start, total_length=n_samples)

    if plan is not None:
        for r in range(cfg.n_windows):
            rf = plan.resolve(r, cfg.n_tags)
            lo, hi = r * hop, (r + 1) * hop
            jam = rf.jammer_samples(hi - lo, 1.0)
            if jam is not None:
                buffer[lo:hi] += jam
            if rf.clip_level is not None:
                buffer[lo:hi] = rf.clip(buffer[lo:hi])
    return buffer, offered


def check_frame_stream(
    frames: Sequence[StreamFrame], tolerance: int, label: str = ""
) -> List[InvariantViolation]:
    """``duplicate_frame`` and ``order`` violations of one emitted stream.

    Two frames of the same user and payload closer than *tolerance*
    samples are duplicates; ``start_sample`` must not decrease in
    emission order.  *label* (``"stream 3 "``) prefixes each message
    when several streams are checked.
    """
    out: List[InvariantViolation] = []
    last_by_key: Dict[Tuple[int, bytes], int] = {}
    prev_start = None
    for k, f in enumerate(frames):
        key = (f.user_id, f.payload)
        prev = last_by_key.get(key)
        if prev is not None and abs(f.start_sample - prev) < tolerance:
            out.append(
                InvariantViolation(
                    "duplicate_frame",
                    f"{label}frame #{k} user {f.user_id} payload {f.payload.hex()} "
                    f"at {f.start_sample} duplicates one at {prev}",
                )
            )
        last_by_key[key] = f.start_sample
        if prev_start is not None and f.start_sample < prev_start:
            out.append(
                InvariantViolation(
                    "order",
                    f"{label}frame #{k} start {f.start_sample} emitted after start {prev_start}",
                )
            )
        prev_start = f.start_sample
    return out


def check_invariants(
    stream: StreamingReceiver, session: SessionSupervisor, frames: List[StreamFrame]
) -> List[InvariantViolation]:
    """Every machine-verifiable invariant of a finished session.

    Module-level (rather than a method) so chaos tests can substitute
    a stricter or deliberately-tripping checker.
    """
    out = check_frame_stream(frames, tolerance=stream.frame_samples // 2)
    if session.peak_backlog_windows > session.config.max_backlog_windows:
        out.append(
            InvariantViolation(
                "backlog_bound",
                f"peak backlog {session.peak_backlog_windows} exceeds "
                f"max {session.config.max_backlog_windows}",
            )
        )

    s = session.stats
    walked = s["windows"] + s["windows_shed"]
    if walked * stream.hop_samples != session.position:
        out.append(
            InvariantViolation(
                "window_accounting",
                f"processed {s['windows']} + shed {s['windows_shed']} windows "
                f"!= position {session.position} / hop {stream.hop_samples}",
            )
        )
    if s["windows_live"] + s["windows_skipped"] != s["windows"]:
        out.append(
            InvariantViolation(
                "window_accounting",
                f"live {s['windows_live']} + skipped {s['windows_skipped']} "
                f"!= processed {s['windows']}",
            )
        )
    if len(frames) != s["frames"]:
        out.append(
            InvariantViolation(
                "frame_accounting", f"emitted {len(frames)} != decoded {s['frames']}"
            )
        )
    return out


def run_soak(
    cfg: SoakConfig,
    plan: Optional[FaultPlan] = None,
    session_config: Optional[SessionConfig] = None,
    tracer=None,
) -> SoakResult:
    """One full soak: synthesize, feed chunk by chunk, verify.

    Deterministic for a given ``(cfg, plan, session_config)``; the
    wall-clock field is the only thing that varies between runs.  A
    *plan* holding a gateway load fault (``TrafficSpike``,
    ``CapacityBrownout``) raises ValueError before anything runs: one
    stream offers no load to scale.
    """
    if plan is not None:
        plan.check_kinds(TAG_FAULTS, "the session soak")
    t0 = time.perf_counter()
    tags, stream = build_soak_stack(cfg)
    buffer, offered = build_soak_stream(cfg, plan, stream=stream, tags=tags)
    session = SessionSupervisor(stream, config=session_config, tracer=tracer)
    chunk = cfg.chunk_hops * stream.hop_samples
    frames: List[StreamFrame] = []
    for lo in range(0, buffer.size, chunk):
        frames.extend(session.feed(buffer[lo : lo + chunk]))
    frames.extend(session.finish())

    outstanding: Dict[Tuple[int, bytes], int] = {}
    for tx in offered:
        if tx.fault != "fault.dropout":
            key = (tx.tag, tx.payload)
            outstanding[key] = outstanding.get(key, 0) + 1
    delivered = 0
    for f in frames:
        key = (f.user_id, f.payload)
        if outstanding.get(key, 0) > 0:
            outstanding[key] -= 1
            delivered += 1

    violations = check_invariants(stream, session, frames)
    return SoakResult(
        config=cfg,
        frames=frames,
        offered=len(offered),
        delivered=delivered,
        stats=dict(session.stats),
        final_state=session.state.value,
        health_history=list(session.health_history),
        peak_backlog=session.peak_backlog_windows,
        violations=violations,
        wall_time_s=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# Randomized campaigns and plan shrinking
# ----------------------------------------------------------------------

def random_fault_plan(seed: int, n_windows: int, n_tags: int) -> FaultPlan:
    """A randomized (but fully seed-determined) chaos fault schedule.

    Draws 1-4 fault models from the catalog, each over a random round
    window with moderate severity -- rough enough to exercise every
    degradation path, bounded enough that a healthy session should
    survive it.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 2)))

    catalog: List[Callable[[int, int], object]] = [
        lambda lo, hi: TagDropout(
            probability=float(rng.uniform(0.2, 0.8)), start_round=lo, end_round=hi
        ),
        lambda lo, hi: TagBrownout(
            probability=float(rng.uniform(0.2, 0.6)), start_round=lo, end_round=hi
        ),
        # 2k-6k ppm is the nasty regime for this geometry: small
        # enough that the spread preamble still correlates (the tag is
        # detected), large enough that payload chips walk off the grid
        # (the decode fails) -- the exact signature the session's
        # RESYNC path exists for.  Far larger drifts just make the tag
        # invisible, which dropout already covers.
        lambda lo, hi: OscillatorDrift(
            probability=float(rng.uniform(0.3, 0.8)),
            drift_ppm=float(rng.uniform(2_000.0, 6_000.0)),
            start_round=lo,
            end_round=hi,
        ),
        lambda lo, hi: BurstInterferer(
            duty=float(rng.uniform(0.2, 0.7)),
            power_dbm=float(rng.uniform(20.0, 35.0)),
            start_round=lo,
            end_round=hi,
        ),
        lambda lo, hi: AdcSaturation(
            full_scale=float(rng.uniform(0.3, 0.9)), start_round=lo, end_round=hi
        ),
    ]
    n_faults = int(rng.integers(1, 5))
    picks = rng.choice(len(catalog), size=n_faults, replace=True)
    faults = []
    for p in picks:
        lo = int(rng.integers(0, max(n_windows - 2, 1)))
        length = int(rng.integers(2, max(n_windows // 4, 3)))
        hi = max(min(lo + length, n_windows), lo + 1)
        faults.append(catalog[int(p)](lo, hi))
    return FaultPlan(faults, seed=int(seed))


def shrink_fault_plan(
    plan: FaultPlan,
    reproduces: Callable[[FaultPlan], bool],
    horizon: Optional[int] = None,
) -> FaultPlan:
    """Reduce *plan* to a minimal schedule still satisfying *reproduces*.

    ddmin in spirit, specialised to fault plans: first greedily remove
    whole faults to a fixpoint (no single fault can be dropped), then
    bisect each survivor's round window as long as a half still
    reproduces.  *reproduces* must be deterministic (plans resolve
    purely from their seed, so a soak-backed predicate is); *horizon*
    bounds open-ended windows during narrowing.  Session and gateway
    plans alike shrink here: every fault model carries
    ``start_round``/``end_round``.

    Raises ``ValueError`` when the input plan does not reproduce --
    shrinking a non-failure would "converge" on the empty plan.
    """
    if not reproduces(plan):
        raise ValueError("plan does not reproduce the violation; nothing to shrink")

    current = plan
    changed = True
    while changed and len(current.faults) > 1:
        changed = False
        for i in range(len(current.faults)):
            candidate = FaultPlan(
                current.faults[:i] + current.faults[i + 1 :], seed=current.seed
            )
            if reproduces(candidate):
                current = candidate
                changed = True
                break

    faults = list(current.faults)
    for i, f in enumerate(faults):
        lo = f.start_round
        hi = f.end_round if f.end_round is not None else horizon
        if hi is None:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            narrowed = None
            for new_lo, new_hi in ((lo, mid), (mid, hi)):
                trial = list(faults)
                trial[i] = dataclasses.replace(
                    f, start_round=new_lo, end_round=new_hi
                )
                if reproduces(FaultPlan(trial, seed=current.seed)):
                    narrowed = (new_lo, new_hi)
                    break
            if narrowed is None:
                break
            lo, hi = narrowed
            f = dataclasses.replace(f, start_round=lo, end_round=hi)
            faults[i] = f
        faults[i] = f
    return FaultPlan(faults, seed=current.seed)


@dataclass
class CampaignOutcome:
    """One campaign of :func:`run_campaign`."""

    campaign: int
    plan: FaultPlan
    result: SoakResult
    shrunken: Optional[FaultPlan] = None
    """Minimal reproducing plan, present only when invariants broke."""


def run_campaign(
    cfg: SoakConfig,
    n_campaigns: int = 3,
    session_config: Optional[SessionConfig] = None,
    shrink: bool = True,
    tracer=None,
) -> List[CampaignOutcome]:
    """Run *n_campaigns* randomized fault campaigns over one config.

    Campaign ``k`` uses the fault plan seeded ``cfg.seed + k`` over the
    same (seed-fixed) traffic, so a red campaign is re-runnable in
    isolation.  When a campaign violates an invariant and *shrink* is
    set, the outcome carries the minimal reproducing plan.
    """
    outcomes: List[CampaignOutcome] = []
    for k in range(n_campaigns):
        plan = random_fault_plan(cfg.seed + k, cfg.n_windows, cfg.n_tags)
        result = run_soak(cfg, plan, session_config=session_config, tracer=tracer)
        outcome = CampaignOutcome(campaign=k, plan=plan, result=result)
        if result.violations and shrink:

            def reproduces(candidate: FaultPlan) -> bool:
                return bool(
                    run_soak(cfg, candidate, session_config=session_config).violations
                )

            outcome.shrunken = shrink_fault_plan(
                plan, reproduces, horizon=cfg.n_windows
            )
        outcomes.append(outcome)
    return outcomes
