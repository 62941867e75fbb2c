"""Calibrating the macro link model from the sample-domain PHY.

A `repro.bench`-style workload sweeps the real simulator
(:class:`~repro.sim.network.CbmaNetwork`, fading on, paper-default
config) over a grid of (tag count *k*, tag-to-RX distance *d*),
measuring the Monte-Carlo FER of each cell, and labels each distance
with its **analytic** SNR from the link budget (Friis path loss over
the noise floor, no fading), so every *k* row shares one SNR axis and
the result is the rectangular :class:`~repro.macro.linkmodel.FerSurface`
grid the engine interpolates.

The sweep costs tens of seconds (it runs the full receiver), so it is
run once and cached: :func:`load_or_calibrate` reuses an artifact on
disk whenever its provenance header matches the requesting spec, and
re-sweeps (then overwrites) when it does not.  CI keeps a committed
artifact for the default spec; the ``tiny`` spec exists so smoke jobs
can calibrate from scratch in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.channel.geometry import Deployment, PAPER_D_METERS
from repro.channel.noise import NoiseModel
from repro.channel.pathloss import LinkBudget
from repro.macro.linkmodel import FerSurface
from repro.obs.taxonomy import C, S
from repro.obs.tracer import as_tracer
from repro.sim.network import CALIBRATED_EXTRA_NOISE_DB, CbmaConfig, CbmaNetwork
from repro.utils.rng import make_rng, spawn_seed

__all__ = [
    "CalibrationSpec",
    "geometry_snr_db",
    "calibrate",
    "load_or_calibrate",
]


def geometry_snr_db(
    tag_to_rx_m: float,
    es_to_tag_m: float = PAPER_D_METERS,
    budget: Optional[LinkBudget] = None,
    noise: Optional[NoiseModel] = None,
) -> float:
    """Analytic per-tag SNR (dB) of the paper's linear layout.

    Friis backscatter power (eq. (1), unit ``|delta Gamma|``) over the
    calibrated noise floor -- the deterministic axis label the
    calibration grid uses, deliberately excluding fading so the same
    distance always maps to the same SNR.
    """
    budget = budget or LinkBudget()
    noise = noise or NoiseModel(extra_noise_db=CALIBRATED_EXTRA_NOISE_DB)
    amp = budget.received_amplitude(es_to_tag_m, tag_to_rx_m)
    return float(10.0 * np.log10(max(amp**2 / noise.power_w, 1e-30)))


@dataclass(frozen=True)
class CalibrationSpec:
    """What to sweep: the grid, the Monte-Carlo depth, the seed.

    The defaults cover the paper's operating regime: 1-10 concurrent
    tags (the sample-domain ceiling) by 0.5-4 m tag-to-RX distance
    (the Fig. 8(a) sweep), 60 fading realisations per cell.
    """

    tag_counts: Tuple[int, ...] = (1, 2, 4, 6, 8, 10)
    distances_m: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    rounds: int = 60
    seed: int = 7
    es_to_tag_m: float = PAPER_D_METERS

    def __post_init__(self) -> None:
        if not self.tag_counts or not self.distances_m:
            raise ValueError("grid axes must be non-empty")
        if list(self.tag_counts) != sorted(set(self.tag_counts)):
            raise ValueError("tag_counts must be strictly ascending")
        if any(k < 1 for k in self.tag_counts):
            raise ValueError("tag counts must be >= 1")
        if len(set(self.distances_m)) != len(self.distances_m):
            raise ValueError("distances must be distinct")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    @classmethod
    def tiny(cls) -> "CalibrationSpec":
        """A seconds-scale grid for smoke jobs and tests."""
        return cls(tag_counts=(1, 4, 10), distances_m=(0.5, 1.5, 3.0), rounds=8)

    def provenance(self) -> Dict[str, Any]:
        """The header written into (and matched against) the artifact."""
        cfg = CbmaConfig()
        return {
            "calibrated_from": "repro.sim.network.CbmaNetwork",
            "tag_counts": list(self.tag_counts),
            "distances_m": list(self.distances_m),
            "rounds": self.rounds,
            "seed": self.seed,
            "es_to_tag_m": self.es_to_tag_m,
            "code": f"{cfg.code_family}-{cfg.code_length}",
            "payload_bytes": cfg.payload_bytes,
            "frame_duration_s": cfg.frame_duration_s(),
            "extra_noise_db": CALIBRATED_EXTRA_NOISE_DB,
            "fading": "on",
        }


def calibrate(spec: Optional[CalibrationSpec] = None, tracer=None) -> FerSurface:
    """Sweep the sample-domain PHY into a :class:`FerSurface`.

    Each grid cell builds a fresh :class:`CbmaNetwork` (paper-default
    config, fading on) on the :meth:`Deployment.linear` layout and
    averages FER over ``spec.rounds`` rounds.  Cell seeds derive from
    ``spec.seed`` through one root generator, so the whole sweep is
    reproducible from a single integer yet cells stay independent.
    """
    spec = spec or CalibrationSpec()
    tracer = as_tracer(tracer)
    root = make_rng(spec.seed)
    # Distances sorted by *descending* distance = ascending SNR, the
    # axis order FerSurface requires.
    order = sorted(range(len(spec.distances_m)), key=lambda i: -spec.distances_m[i])
    snr_axis = np.array(
        [geometry_snr_db(spec.distances_m[i], spec.es_to_tag_m) for i in order]
    )
    fer = np.empty((len(spec.tag_counts), len(spec.distances_m)))
    with tracer.span(S.MACRO_CALIBRATION, cells=fer.size):
        for row, k in enumerate(spec.tag_counts):
            for col, i in enumerate(order):
                d = spec.distances_m[i]
                cfg = CbmaConfig(n_tags=k, seed=spawn_seed(root))
                net = CbmaNetwork(
                    cfg,
                    Deployment.linear(k, tag_to_rx=d, es_to_tag=spec.es_to_tag_m),
                )
                fer[row, col] = net.run_rounds(spec.rounds).fer
                tracer.count(C.MACRO_CALIBRATION_ROUNDS, spec.rounds)
    return FerSurface(
        snr_db_axis=snr_axis,
        k_axis=np.array(spec.tag_counts, dtype=np.float64),
        fer=fer,
        provenance=spec.provenance(),
    )


def _provenance_matches(surface: FerSurface, spec: CalibrationSpec) -> bool:
    want = spec.provenance()
    have = surface.provenance
    return all(have.get(key) == val for key, val in want.items())


def load_or_calibrate(
    path: Union[str, Path],
    spec: Optional[CalibrationSpec] = None,
    tracer=None,
) -> FerSurface:
    """The cached calibration: load *path* if its provenance matches
    *spec*, otherwise sweep fresh and save over it.

    A stale or foreign artifact (different grid, rounds, seed or PHY
    config) is never silently reused -- the provenance header is the
    cache key.
    """
    spec = spec or CalibrationSpec()
    tracer = as_tracer(tracer)
    path = Path(path)
    if path.exists():
        try:
            surface = FerSurface.load(path)
        except (ValueError, KeyError, OSError):
            surface = None
        if surface is not None and _provenance_matches(surface, spec):
            tracer.count(C.MACRO_SURFACE_CACHE_HITS)
            return surface
    t0 = time.perf_counter()
    surface = calibrate(spec, tracer=tracer)
    surface.provenance["sweep_wall_s"] = round(time.perf_counter() - t0, 3)
    path.parent.mkdir(parents=True, exist_ok=True)
    surface.save(path)
    return surface
