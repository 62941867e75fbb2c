"""Benchmark runner: time workloads, summarise, persist, compare.

The runner is deliberately thin: workloads come from
:mod:`repro.bench.workloads`, per-rep latencies are summarised per op
and, when a :class:`repro.obs.Tracer` is passed, also recorded under
the ``bench.<op>.op_s`` gauge family (so the same observability
machinery that profiles simulations also carries the benchmark
samples), and the summary is an explicit, versioned JSON document --
the ``BENCH_XXXX.json`` trajectory file CI uploads and diffs against
the committed baseline.

Schema (``repro.bench/1``)::

    {
      "schema":   "repro.bench/1",
      "bench_id": "BENCH_0008",
      "quick":    true,
      "seed":     7,
      "env":      {"python": "...", "numpy": "...", "platform": "..."},
      "ops": [
        {"op": "detect_fft", "group": "detect", "params": {...},
         "reps": 8, "p50_s": ..., "p95_s": ..., "mean_s": ...,
         "min_s": ..., "max_s": ...},
        ...
      ],
      "derived": {"detect_speedup_fft_over_direct": 7.4, ...}
    }

``derived`` carries cross-op ratios (machine-independent, unlike raw
latencies): the headline is ``detect_speedup_fft_over_direct``, the
batched kernel's advantage on the 10-tag / 4-samples-per-chip
detection benchmark.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.bench.workloads import Workload, build_workloads
from repro.obs.profile import GaugeStats
from repro.obs.taxonomy import S, bench_op_s, bench_reps
from repro.obs.tracer import Tracer, as_tracer

__all__ = [
    "BENCH_ID",
    "SCHEMA",
    "OpResult",
    "BenchReport",
    "Regression",
    "run_bench",
    "compare_to_baseline",
]

SCHEMA = "repro.bench/1"
#: Identifier of the current trajectory file (bumped per tracked era).
BENCH_ID = "BENCH_0008"


@dataclass(frozen=True)
class OpResult:
    """Latency summary of one benchmarked operation."""

    op: str
    group: str
    params: Dict[str, Any]
    reps: int
    p50_s: float
    p95_s: float
    mean_s: float
    min_s: float
    max_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "group": self.group,
            "params": dict(self.params),
            "reps": self.reps,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpResult":
        return cls(
            op=str(data["op"]),
            group=str(data.get("group", "micro")),
            params=dict(data.get("params", {})),
            reps=int(data["reps"]),
            p50_s=float(data["p50_s"]),
            p95_s=float(data["p95_s"]),
            mean_s=float(data["mean_s"]),
            min_s=float(data["min_s"]),
            max_s=float(data["max_s"]),
        )


@dataclass
class BenchReport:
    """One complete benchmark run (what ``BENCH_XXXX.json`` holds)."""

    ops: List[OpResult] = field(default_factory=list)
    derived: Dict[str, float] = field(default_factory=dict)
    quick: bool = False
    seed: int = 7
    bench_id: str = BENCH_ID
    env: Dict[str, str] = field(default_factory=dict)

    def op(self, name: str) -> Optional[OpResult]:
        for result in self.ops:
            if result.op == name:
                return result
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "bench_id": self.bench_id,
            "quick": self.quick,
            "seed": self.seed,
            "env": dict(self.env),
            "ops": [op.to_dict() for op in self.ops],
            "derived": dict(self.derived),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchReport":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"unsupported bench schema {schema!r} (expected {SCHEMA!r})")
        return cls(
            ops=[OpResult.from_dict(op) for op in data.get("ops", [])],
            derived={k: float(v) for k, v in data.get("derived", {}).items()},
            quick=bool(data.get("quick", False)),
            seed=int(data.get("seed", 0)),
            bench_id=str(data.get("bench_id", BENCH_ID)),
            env={k: str(v) for k, v in data.get("env", {}).items()},
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _time_workload(tracer: Tracer, workload: Workload) -> OpResult:
    """Run one workload: warmup, then *reps* timed repetitions.

    Each rep runs inside a ``bench`` span; its latency also lands on
    the tracer as a ``bench.<op>.op_s`` gauge sample (and the rep count
    as a ``bench.<op>.reps`` counter).  The summary is computed from
    this call's own samples, so a tracer shared across runs (or the
    disabled one) cannot change it.
    """
    op = workload.op
    op_s, reps = bench_op_s(op), bench_reps(op)
    workload.fn()  # warmup: page in buffers, build FFT twiddle caches
    samples: List[float] = []
    for _ in range(workload.reps):
        with tracer.span(S.BENCH, op=op):
            t0 = time.perf_counter()
            workload.fn()
            dt = time.perf_counter() - t0
        samples.append(dt)
        tracer.gauge(op_s, dt)
    tracer.count(reps, workload.reps)
    stats = GaugeStats.from_values(op, samples)
    return OpResult(
        op=op,
        group=workload.group,
        params=dict(workload.params),
        reps=workload.reps,
        p50_s=stats.p50,
        p95_s=stats.p95,
        mean_s=stats.mean,
        min_s=stats.min,
        max_s=stats.max,
    )


def _derive(ops: List[OpResult]) -> Dict[str, float]:
    """Cross-op ratios: machine-independent speedups."""
    by_name = {op.op: op for op in ops}
    derived: Dict[str, float] = {}
    direct = by_name.get("detect_direct")
    fft = by_name.get("detect_fft")
    if direct is not None and fft is not None and fft.p50_s > 0:
        derived["detect_speedup_fft_over_direct"] = direct.p50_s / fft.p50_s
    for op in ops:
        if op.op.startswith("corr_direct_w"):
            suffix = op.op[len("corr_direct_w"):]
            partner = by_name.get(f"corr_fft_w{suffix}")
            if partner is not None and partner.p50_s > 0:
                derived[f"corr_speedup_w{suffix}"] = op.p50_s / partner.p50_s
    # Farm tier: scaling across worker counts plus the two capacity
    # figures -- real-time factor (aggregate decoded airtime seconds
    # per wall second) and sessions-per-core (real-time factor per
    # worker: how many live streams one core can carry).
    one_worker = by_name.get("farm_decode_w1")
    for op in ops:
        if op.group != "farm" or op.p50_s <= 0:
            continue
        n_workers = int(op.params.get("n_workers", 1))
        if one_worker is not None and n_workers > 1:
            derived[f"farm_speedup_{n_workers}w_over_1w"] = (
                one_worker.p50_s / op.p50_s
            )
        stream_seconds = float(op.params.get("stream_seconds", 0.0))
        n_sessions = int(op.params.get("n_sessions", 0))
        if stream_seconds > 0 and n_sessions > 0:
            realtime = n_sessions * stream_seconds / op.p50_s
            derived[f"farm_realtime_factor_w{n_workers}"] = realtime
            derived[f"farm_sessions_per_core_w{n_workers}"] = realtime / n_workers
    # Gateway tier: the service-layer capacity figures -- decoded
    # airtime per wall second through the whole admission/dispatch
    # cycle, raw admission decisions per second, and the relative
    # cost of a mid-soak live migration.
    for op in ops:
        if op.group != "gateway" or op.p50_s <= 0:
            continue
        decoded_seconds = float(op.params.get("decoded_seconds", 0.0))
        if decoded_seconds > 0:
            derived[f"{op.op}_realtime_factor"] = decoded_seconds / op.p50_s
        n_decisions = float(op.params.get("n_decisions", 0.0))
        if n_decisions > 0:
            derived["gateway_admissions_per_sec"] = n_decisions / op.p50_s
    plain = by_name.get("gateway_soak")
    migrate = by_name.get("gateway_soak_migrate")
    if plain is not None and migrate is not None and plain.p50_s > 0:
        derived["gateway_migration_overhead"] = migrate.p50_s / plain.p50_s
    # Macro tier: the capacity figure is events simulated per wall
    # second -- the event count is deterministic (recorded at workload
    # build time), so the ratio is the only machine-dependent part.
    for op in ops:
        if op.group != "macro" or op.p50_s <= 0:
            continue
        events = float(op.params.get("events", 0.0))
        if events > 0:
            derived[f"{op.op}_events_per_sec"] = events / op.p50_s
    return derived


def run_bench(
    quick: bool = False,
    seed: int = 7,
    tracer: Optional[Tracer] = None,
    workloads: Optional[List[Workload]] = None,
    tier: str = "all",
) -> BenchReport:
    """Run the benchmark suite and summarise it as a :class:`BenchReport`.

    *tier* selects one workload tier (``micro`` | ``detect`` | ``e2e``
    | ``farm`` | ``gateway`` | ``macro``; default everything); *workloads* overrides the standard
    suite entirely (tests use tiny custom ones); *tracer* receives
    every per-rep sample for callers that want the raw event stream
    alongside the summary.
    """
    tracer = as_tracer(tracer)
    if workloads is None:
        workloads = build_workloads(quick=quick, seed=seed, tier=tier)
    ops = [_time_workload(tracer, workload) for workload in workloads]
    return BenchReport(
        ops=ops,
        derived=_derive(ops),
        quick=quick,
        seed=seed,
        env=_environment(),
    )


@dataclass(frozen=True)
class Regression:
    """One op whose latency regressed past the allowed factor."""

    op: str
    baseline_p50_s: float
    current_p50_s: float

    @property
    def ratio(self) -> float:
        return self.current_p50_s / self.baseline_p50_s if self.baseline_p50_s > 0 else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.op}: p50 {self.current_p50_s * 1e3:.3f} ms vs baseline "
            f"{self.baseline_p50_s * 1e3:.3f} ms ({self.ratio:.2f}x)"
        )


def compare_to_baseline(
    current: BenchReport, baseline: BenchReport, max_regression: float = 2.0
) -> List[Regression]:
    """Ops whose p50 latency exceeds ``max_regression`` x the baseline.

    Ops are matched by name **and** params (a changed workload is a new
    measurement, not a regression); ops present on only one side are
    ignored -- the gate protects tracked operations, it does not forbid
    adding or retiring them.
    """
    regressions: List[Regression] = []
    baseline_by_key = {(op.op, json.dumps(op.params, sort_keys=True)): op for op in baseline.ops}
    for op in current.ops:
        ref = baseline_by_key.get((op.op, json.dumps(op.params, sort_keys=True)))
        if ref is None or ref.p50_s <= 0:
            continue
        if op.p50_s > max_regression * ref.p50_s:
            regressions.append(
                Regression(op=op.op, baseline_p50_s=ref.p50_s, current_p50_s=op.p50_s)
            )
    return regressions
