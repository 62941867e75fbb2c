"""Benchmark workload builders: realistic, seeded, reusable buffers.

Each builder returns closures over pre-synthesized data so the timed
region contains **only** the operation under test -- template banks,
collision buffers and detectors are constructed once outside the
timing loop.  Everything is seeded: a workload is a pure function of
``(params, seed)``, the same contract the simulators keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.codes import twonc_codes
from repro.receiver.receiver import CbmaReceiver
from repro.receiver.user_detection import UserDetector
from repro.sim.collision import CollisionScenario, simulate_round
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag
from repro.utils.correlation import sliding_correlation
from repro.utils.correlation_batch import sliding_correlation_batch

__all__ = ["TIERS", "Workload", "build_workloads"]

#: Selectable workload tiers (``all`` = every tier).
TIERS = ("micro", "detect", "e2e", "farm", "gateway", "macro", "all")


@dataclass(frozen=True)
class Workload:
    """One timed operation: a closure plus its descriptive params."""

    op: str
    """Slug naming the operation (also keys ``bench.<op>.*`` metrics)."""
    params: Dict[str, object]
    fn: Callable[[], object]
    reps: int
    group: str = "micro"
    """Report grouping: ``micro`` | ``detect`` | ``e2e`` | ``farm`` |
    ``gateway`` | ``macro``."""


def _bipolar_templates(rng: np.random.Generator, n_templates: int, m: int) -> np.ndarray:
    return np.sign(rng.normal(size=(n_templates, m))) + 0.0


def _collision_buffer(
    n_tags: int, samples_per_chip: int, payload_bytes: int, seed: int
) -> Tuple[np.ndarray, Dict[int, np.ndarray], FrameFormat]:
    """A synthesized *n_tags*-collision round (buffer, codes, format)."""
    rng = np.random.default_rng(seed)
    fmt = FrameFormat()
    codes = twonc_codes(n_tags, 64)
    code_map = {i: codes[i] for i in range(n_tags)}
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(n_tags)]
    scenario = CollisionScenario(
        tags=tags,
        amplitudes=[1.0 + 0.0j] * n_tags,
        samples_per_chip=samples_per_chip,
    )
    payloads = {
        i: rng.integers(0, 256, size=payload_bytes).astype(np.uint8).tobytes()
        for i in range(n_tags)
    }
    iq, _truth = simulate_round(scenario, payloads, rng=rng)
    return np.asarray(iq), code_map, fmt


def _farm_workloads(quick: bool, seed: int) -> List[Workload]:
    """The parallel-decode tier: one 4-session farm per worker count.

    The timed region is the farm's whole life -- construct, feed every
    chunk with the sequential cadence, pump, finish, close -- because
    that is what a deployment pays per capture: worker startup and
    shared-memory setup are part of the cost the ``process`` backend
    must amortise.  The derived sessions-per-core / real-time-factor
    metrics come from the ``stream_seconds`` param recorded here.
    """
    # Imported lazily: the micro tiers must not pay for the farm stack.
    from repro.farm import DecodeFarm, FarmConfig
    from repro.sim.experiments.soak import (
        SoakConfig,
        build_soak_stack,
        build_soak_stream,
    )
    from repro.sim.network import CbmaConfig

    n_windows = 10 if quick else 24
    n_sessions = 4
    soak = SoakConfig(n_windows=n_windows, n_tags=4, seed=seed, traffic_rate=0.3)
    tags, stream = build_soak_stack(soak)
    buffer, _offered = build_soak_stream(soak, None, stream, tags)
    chunk = 3 * stream.hop_samples
    chunks = [buffer[lo : lo + chunk] for lo in range(0, buffer.size, chunk)]
    net = CbmaConfig(
        n_tags=4,
        seed=seed,
        payload_bytes=4,
        code_length=32,
        samples_per_chip=1,
        user_threshold=0.25,
    )
    # Wall-clock seconds of airtime each session decodes, at the
    # config's sample rate -- the real-time yardstick.
    stream_seconds = buffer.size / (net.samples_per_chip * net.chip_rate_hz)
    reps = 2 if quick else 4
    workloads: List[Workload] = []
    for n_workers in (1, 2, 4):
        params = {
            "n_sessions": n_sessions,
            "n_workers": n_workers,
            "n_tags": 4,
            "n_windows": n_windows,
            "n_samples": int(buffer.size),
            "stream_seconds": stream_seconds,
            "backend": "process",
        }

        def run(n_workers: int = n_workers) -> object:
            farm = DecodeFarm.from_config(
                net,
                n_sessions=n_sessions,
                farm=FarmConfig(n_workers=n_workers, ring_slot_samples=chunk),
                backend="process",
            )
            try:
                for piece in chunks:
                    for sid in farm.session_ids:
                        farm.feed(sid, piece)
                    farm.pump()
                return farm.finish()
            finally:
                farm.close()

        workloads.append(
            Workload(f"farm_decode_w{n_workers}", params, run, reps, "farm")
        )
    return workloads


def _gateway_workloads(quick: bool, seed: int) -> List[Workload]:
    """The service tier: full gateway soaks plus the admission hot path.

    The soak workloads time a whole gateway life under a fixed
    spike/brownout plan -- open streams, admit, dispatch, drain, close
    -- on the inline backend so the measurement isolates the service
    layer (admission, ladder, shedding, retention) from process-pool
    startup, which the farm tier already prices.  The ``_migrate``
    variant adds a mid-soak worker drain so ``derived`` can report the
    relative cost of a live checkpoint/migrate/resume.  The admission
    workload times the token-bucket + ladder decision loop alone --
    the per-chunk overhead every admitted byte pays.
    """
    # Imported lazily: the other tiers must not pay for the gateway stack.
    from repro.gateway import DegradationLadder, TokenBucket
    from repro.gateway.soak import (
        CapacityBrownout,
        GatewayFaultPlan,
        GatewaySoakConfig,
        TrafficSpike,
        run_gateway_soak,
    )
    from repro.sim.experiments.soak import SoakConfig, build_soak_stack
    from repro.sim.network import CbmaConfig

    n_streams = 8 if quick else 24
    n_rounds = 6 if quick else 12
    reps = 2 if quick else 4
    cap = SoakConfig(
        n_windows=8 if quick else 16, n_tags=2, seed=seed, traffic_rate=0.3
    )
    plan = GatewayFaultPlan(
        [
            TrafficSpike(
                factor=3.0, start_round=n_rounds // 3, end_round=2 * n_rounds // 3
            ),
            CapacityBrownout(
                factor=0.25,
                start_round=n_rounds // 3 + 1,
                end_round=2 * n_rounds // 3 + 1,
            ),
        ],
        seed=seed,
    )
    net = CbmaConfig(
        n_tags=cap.n_tags,
        seed=cap.seed,
        payload_bytes=cap.payload_bytes,
        code_length=cap.code_length,
        samples_per_chip=cap.samples_per_chip,
        user_threshold=cap.user_threshold,
    )
    _tags, stream = build_soak_stack(cap)
    chunk = cap.chunk_hops * stream.hop_samples
    chunk_seconds = chunk / (net.samples_per_chip * net.chip_rate_hz)
    workloads: List[Workload] = []
    for op, migrate_round in (
        ("gateway_soak", None),
        ("gateway_soak_migrate", n_rounds // 2),
    ):
        cfg = GatewaySoakConfig(
            n_streams=n_streams,
            n_rounds=n_rounds,
            seed=seed,
            migrate_round=migrate_round,
            backend="inline",
            capture=cap,
        )
        # One probe run pins the deterministic decoded-airtime figure
        # (admission decides how many chunks are actually fed).
        probe = run_gateway_soak(cfg, plan)
        decoded_seconds = (
            sum(r.fed for r in probe.reports.values()) * chunk_seconds
        )
        params = {
            "n_streams": n_streams,
            "n_rounds": n_rounds,
            "n_faults": len(plan.faults),
            "migrate_round": migrate_round,
            "backend": "inline",
            "decoded_seconds": decoded_seconds,
        }

        def run(cfg: "GatewaySoakConfig" = cfg) -> object:
            return run_gateway_soak(cfg, plan)

        workloads.append(Workload(op, params, run, reps, "gateway"))

    n_decisions = 50_000 if quick else 200_000
    admission_reps = 5 if quick else 8

    def run_admission() -> object:
        now = [0.0]
        bucket = TokenBucket(rate=1000.0, burst=64.0, clock=lambda: now[0])
        ladder = DegradationLadder(
            queue_high=64, queue_low=16, rtf_high=1.0, rtf_low=0.5
        )
        admitted = 0
        for i in range(n_decisions):
            now[0] += 1e-3
            if bucket.try_acquire():
                admitted += 1
            ladder.observe(i % 96, 0.0)
        return admitted

    workloads.append(
        Workload(
            "gateway_admission",
            {"n_decisions": n_decisions},
            run_admission,
            admission_reps,
            "gateway",
        )
    )
    return workloads


def _macro_workloads(quick: bool, seed: int) -> List[Workload]:
    """The fleet-scale tier: macro engine throughput and surface lookups.

    The FER surface comes from a fresh tiny calibration (seconds, and a
    pure function of the seed) rather than the committed artifact, so
    the workload does not depend on the benchmark's working directory.
    Each engine op records its deterministic ``events`` count so the
    runner can derive ``<op>_events_per_sec`` -- the macro tier's
    capacity figure, the analogue of the farm's real-time factor.
    """
    # Imported lazily: the sample-domain tiers must not pay for it.
    from repro.macro import CalibrationSpec, MacroConfig, MacroSimulator, calibrate
    from repro.sim.traffic import PoissonArrivals

    surface = calibrate(CalibrationSpec.tiny())
    n_tags = 2_000 if quick else 10_000
    n_slots = 60 if quick else 200
    slot_s = float(surface.provenance["frame_duration_s"])
    rate_hz = 0.05 / slot_s  # 0.05 frames per tag per slot
    reps = 3 if quick else 6
    workloads: List[Workload] = []
    for slotted in (True, False):
        mode = "slotted" if slotted else "unslotted"
        config = MacroConfig(
            n_tags=n_tags,
            traffic=PoissonArrivals(rate_hz=rate_hz),
            slotted=slotted,
            seed=seed,
        )

        def run(config: "MacroConfig" = config) -> object:
            sim = MacroSimulator(config, surface)
            return sim.run(n_slots)

        # One probe run pins the deterministic event count into params.
        events = int(MacroSimulator(config, surface).run(n_slots).events)
        params = {
            "n_tags": n_tags,
            "n_slots": n_slots,
            "rate_per_slot": 0.05,
            "slotted": slotted,
            "backoff": "beb",
            "surface": "tiny",
            "events": events,
        }
        workloads.append(Workload(f"macro_engine_{mode}", params, run, reps, "macro"))

    lookup_n = 200_000 if quick else 1_000_000
    rng = np.random.default_rng(seed)
    snr = rng.uniform(surface.snr_db_axis[0] - 2, surface.snr_db_axis[-1] + 2, lookup_n)
    k = rng.uniform(1.0, 12.0, lookup_n)

    def run_lookup() -> object:
        return surface.fer_at(snr, k)

    workloads.append(
        Workload(
            "macro_surface_lookup",
            {"n_points": lookup_n, "surface": "tiny"},
            run_lookup,
            reps,
            "macro",
        )
    )
    return workloads


def build_workloads(
    quick: bool = False, seed: int = 7, tier: str = "all"
) -> List[Workload]:
    """The standard benchmark suite.

    Four tiers, mirroring how the decode machinery is consumed:

    - ``micro``: raw sliding correlation, direct loop vs. batched FFT,
      across window sizes (10 stacked templates);
    - ``detect``: :meth:`UserDetector.detect` over a real synthesized
      10-tag / 4-samples-per-chip collision, per backend -- the
      acceptance benchmark for the batched kernel;
    - ``e2e``: the full :meth:`CbmaReceiver.process` pipeline on the
      same class of buffer, at two payload sizes (two buffer lengths);
    - ``farm``: :class:`~repro.farm.DecodeFarm` over a multi-session
      soak capture at 1/2/4 workers (sessions-per-core and real-time
      factor land in ``derived``);
    - ``gateway``: full :class:`~repro.gateway.Gateway` soaks under a
      spike/brownout plan, with and without a mid-soak live migration,
      plus the raw admission decision loop (service real-time factor,
      migration overhead and admissions-per-second land in
      ``derived``);
    - ``macro``: the fleet-scale :class:`~repro.macro.MacroSimulator`
      at 10^4 tags, slotted and unslotted, plus batched FER-surface
      lookups (events-per-second lands in ``derived``).

    *tier* selects one tier (or ``"all"``); *quick* shrinks window
    sizes and repetition counts for CI smoke runs; op names stay
    identical so a quick run compares against a quick baseline.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown bench tier {tier!r} (allowed: {TIERS})")
    rng = np.random.default_rng(seed)
    workloads: List[Workload] = []
    if tier == "farm":
        return _farm_workloads(quick, seed)
    if tier == "gateway":
        return _gateway_workloads(quick, seed)
    if tier == "macro":
        return _macro_workloads(quick, seed)

    # --- micro: sliding correlation, 10 templates --------------------------
    window_sizes = (4096, 16384) if quick else (8192, 32768, 131072)
    # Even quick mode takes 5 reps: the baseline gate compares p50s, and
    # a 3-rep median moves with a single noisy repetition.
    micro_reps = 5 if quick else 10
    m = 2048
    n_templates = 10
    templates = _bipolar_templates(rng, n_templates, m)
    for n in window_sizes:
        signal = rng.normal(size=n) + 1j * rng.normal(size=n)
        params = {"n": n, "m": m, "n_templates": n_templates}

        # "direct" times the reference loop the kernel is tested
        # against; op names and params keep the bench trajectory.
        def run_direct(signal: np.ndarray = signal) -> object:
            return [sliding_correlation(signal, t) for t in templates]

        def run_fft(signal: np.ndarray = signal) -> object:
            return sliding_correlation_batch(signal, templates)

        workloads.append(
            Workload(f"corr_direct_w{n}", {**params, "backend": "direct"}, run_direct, micro_reps)
        )
        workloads.append(
            Workload(f"corr_fft_w{n}", {**params, "backend": "fft"}, run_fft, micro_reps)
        )

    # --- detect: the acceptance benchmark (10 tags, 4 samples/chip) --------
    detect_reps = 5 if quick else 8
    payload_bytes = 2 if quick else 8
    iq, code_map, fmt = _collision_buffer(
        n_tags=10, samples_per_chip=4, payload_bytes=payload_bytes, seed=seed
    )
    detector = UserDetector(code_map, fmt, samples_per_chip=4)
    detect_params = {
        "n_tags": 10,
        "samples_per_chip": 4,
        "n_samples": int(iq.size),
        "payload_bytes": payload_bytes,
    }

    # The reference loop over the detector's own bank rows.
    detect_templates = detector.bank.matrix

    def detect_direct() -> object:
        return [sliding_correlation(iq, t) for t in detect_templates]

    def detect_fft() -> object:
        return [corr for _uid, corr in detector.correlation_rows(iq)]

    def detect_full() -> object:
        return detector.detect(iq)

    workloads.append(
        Workload("detect_direct", {**detect_params, "backend": "direct"}, detect_direct, detect_reps, "detect")
    )
    workloads.append(
        Workload("detect_fft", {**detect_params, "backend": "fft"}, detect_fft, detect_reps, "detect")
    )
    workloads.append(
        Workload("detect_pipeline", {**detect_params, "backend": "fft"}, detect_full, detect_reps, "detect")
    )

    # --- e2e: full receiver pipeline over 10-tag collisions ----------------
    e2e_reps = 2 if quick else 5
    for pb in ((2,) if quick else (2, 16)):
        iq_e, codes_e, fmt_e = _collision_buffer(
            n_tags=10, samples_per_chip=4, payload_bytes=pb, seed=seed + pb
        )
        receiver = CbmaReceiver(codes_e, fmt_e, samples_per_chip=4)

        def run_e2e(iq_e: np.ndarray = iq_e, receiver: CbmaReceiver = receiver) -> object:
            return receiver.process(iq_e, skip_energy_gate=True)

        workloads.append(
            Workload(
                f"e2e_decode_10tag_p{pb}",
                {"n_tags": 10, "samples_per_chip": 4, "payload_bytes": pb, "n_samples": int(iq_e.size)},
                run_e2e,
                e2e_reps,
                "e2e",
            )
        )
    if tier == "all":
        workloads.extend(_farm_workloads(quick, seed))
        workloads.extend(_gateway_workloads(quick, seed))
        workloads.extend(_macro_workloads(quick, seed))
    else:
        workloads = [w for w in workloads if w.group == tier]
    return workloads
