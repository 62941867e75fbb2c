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
TIERS = ("micro", "detect", "e2e", "macro", "all")


@dataclass(frozen=True)
class Workload:
    """One timed operation: a closure plus its descriptive params."""

    op: str
    """Slug naming the operation (also keys ``bench.<op>.*`` metrics)."""
    params: Dict[str, object]
    fn: Callable[[], object]
    reps: int
    group: str = "micro"
    """Report grouping: ``micro`` | ``detect`` | ``e2e`` | ``macro``."""


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
    - ``macro``: the fleet-scale :class:`~repro.macro.MacroSimulator`
      at 10^4 tags, slotted and unslotted, plus batched FER-surface
      lookups (events-per-second lands in ``derived``).

    The decode farm and the gateway are timed by ``perfbench``, with
    set-up split from steady state and every frame checked against an
    oracle (``docs/performance.md``, "The benchmark harness").

    *tier* selects one tier (or ``"all"``); *quick* shrinks window
    sizes and repetition counts for CI smoke runs; op names stay
    identical so a quick run compares against a quick baseline.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown bench tier {tier!r} (allowed: {TIERS})")
    rng = np.random.default_rng(seed)
    workloads: List[Workload] = []
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
        workloads.extend(_macro_workloads(quick, seed))
    else:
        workloads = [w for w in workloads if w.group == tier]
    return workloads
