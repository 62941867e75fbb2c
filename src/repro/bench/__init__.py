"""Microbenchmark harness for the receiver hot path (``repro bench``).

The ROADMAP's "as fast as the hardware allows" goal is only real while
it is *measured*: this package times the correlation kernel (direct
vs. batched-FFT), the multi-user detector, an end-to-end 10-tag
decode and the macro fleet engine, summarises each operation's per-rep
latency as p50/p95 via the :mod:`repro.obs` gauge machinery
(``bench.*`` metric families), and writes the trajectory file
``BENCH_XXXX.json`` that CI tracks for regressions (see
``docs/performance.md``).  The streaming stack -- session, decode farm
and gateway -- is benchmarked by ``perfbench``, not here.
"""

from repro.bench.runner import (
    BENCH_ID,
    SCHEMA,
    BenchReport,
    OpResult,
    compare_to_baseline,
    run_bench,
)
from repro.bench.workloads import TIERS

__all__ = [
    "BENCH_ID",
    "SCHEMA",
    "TIERS",
    "BenchReport",
    "OpResult",
    "compare_to_baseline",
    "run_bench",
]
