"""Unit tests for repro.bench (runner, report persistence, baseline gate)."""

import json
import time

import numpy as np
import pytest

from repro.bench import (
    BENCH_ID,
    SCHEMA,
    BenchReport,
    OpResult,
    compare_to_baseline,
    run_bench,
)
from repro.bench.workloads import Workload, build_workloads
from repro.obs.tracer import NULL_TRACER, Tracer


def _op(name, p50, params=None, group="micro"):
    return OpResult(
        op=name,
        group=group,
        params=params or {},
        reps=3,
        p50_s=p50,
        p95_s=p50 * 1.2,
        mean_s=p50,
        min_s=p50 * 0.9,
        max_s=p50 * 1.3,
    )


def _tiny_workloads():
    sink = []
    return [
        Workload("noop_a", {"k": 1}, lambda: sink.append(1), reps=3),
        Workload("noop_b", {"k": 2}, lambda: sink.append(2), reps=2, group="detect"),
    ]


class TestRunBench:
    def test_runs_custom_workloads_and_summarises(self):
        report = run_bench(workloads=_tiny_workloads(), seed=11)
        assert report.seed == 11
        assert report.bench_id == BENCH_ID
        assert [op.op for op in report.ops] == ["noop_a", "noop_b"]
        a = report.op("noop_a")
        assert a is not None
        assert a.reps == 3
        assert 0.0 <= a.min_s <= a.p50_s <= a.p95_s <= a.max_s
        assert a.params == {"k": 1}
        assert report.op("noop_b").group == "detect"
        assert report.op("missing") is None
        assert set(report.env) >= {"python", "numpy", "platform"}

    def test_samples_flow_through_tracer_taxonomy(self):
        """Per-rep latencies land as bench.<op>.op_s gauges plus a
        bench.<op>.reps counter -- the obs pipeline sees the benchmark."""
        tracer = Tracer()
        run_bench(workloads=_tiny_workloads(), tracer=tracer)
        assert len(tracer.gauges["bench.noop_a.op_s"]) == 3
        assert len(tracer.gauges["bench.noop_b.op_s"]) == 2
        assert tracer.counters["bench.noop_a.reps"] == 3
        spans = [r for r in tracer.records if r.name == "bench"]
        assert len(spans) == 5

    def test_stats_come_from_this_runs_samples_only(self):
        """A tracer shared by two runs collects both runs' samples, but
        each report summarises only its own reps."""
        tracer = Tracer()
        slow = [Workload("noop", {}, lambda: time.sleep(0.05), reps=3)]
        fast = [Workload("noop", {}, lambda: None, reps=3)]
        run_bench(workloads=slow, tracer=tracer)
        op = run_bench(workloads=fast, tracer=tracer).op("noop")
        assert op.reps == 3
        assert op.max_s < 0.015
        assert len(tracer.gauges["bench.noop.op_s"]) == 6
        assert tracer.counters["bench.noop.reps"] == 6

    def test_runs_under_the_disabled_tracer(self):
        report = run_bench(workloads=_tiny_workloads(), tracer=NULL_TRACER)
        a = report.op("noop_a")
        assert a.reps == 3
        assert 0.0 <= a.min_s <= a.p50_s <= a.max_s

    def test_derived_speedups(self):
        workloads = [
            Workload("detect_direct", {}, lambda: None, reps=2, group="detect"),
            Workload("detect_fft", {}, lambda: None, reps=2, group="detect"),
        ]
        report = run_bench(workloads=workloads)
        # Both ops are near-instant; the ratio exists and is positive.
        assert report.derived["detect_speedup_fft_over_direct"] > 0

    def test_standard_quick_suite_shape(self):
        """The quick suite covers all four tiers with the acceptance
        detect ops present (without timing it here -- just the build)."""
        ops = {w.op for w in build_workloads(quick=True, seed=7)}
        assert {"detect_direct", "detect_fft", "detect_pipeline"} <= ops
        assert any(op.startswith("corr_fft_w") for op in ops)
        assert any(op.startswith("e2e_decode_10tag_p") for op in ops)
        assert {"farm_decode_w1", "farm_decode_w2", "farm_decode_w4"} <= ops
        assert {"gateway_soak", "gateway_soak_migrate", "gateway_admission"} <= ops

    @pytest.mark.parametrize("tier", ["micro", "detect", "e2e", "farm", "gateway"])
    def test_tier_selection(self, tier):
        workloads = build_workloads(quick=True, seed=7, tier=tier)
        assert workloads
        assert {w.group for w in workloads} == {tier}

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            build_workloads(quick=True, tier="nano")

    def test_farm_derived_metrics(self):
        """Scaling ratios and the capacity figures come from params,
        not from running a real farm."""
        workloads = [
            Workload(
                f"farm_decode_w{w}",
                {"n_workers": w, "n_sessions": 4, "stream_seconds": 0.5},
                lambda: None,
                reps=2,
                group="farm",
            )
            for w in (1, 2)
        ]
        report = run_bench(workloads=workloads)
        d = report.derived
        assert d["farm_speedup_2w_over_1w"] > 0
        assert d["farm_realtime_factor_w1"] > 0
        assert d["farm_sessions_per_core_w2"] == pytest.approx(
            d["farm_realtime_factor_w2"] / 2
        )

    def test_gateway_derived_metrics(self):
        """Service real-time factor, admission throughput and the
        migration-overhead ratio come from params, not a real soak."""
        workloads = [
            Workload(
                "gateway_soak",
                {"n_streams": 8, "decoded_seconds": 0.25},
                lambda: None,
                reps=2,
                group="gateway",
            ),
            Workload(
                "gateway_soak_migrate",
                {"n_streams": 8, "decoded_seconds": 0.25, "migrate_round": 3},
                lambda: None,
                reps=2,
                group="gateway",
            ),
            Workload(
                "gateway_admission",
                {"n_decisions": 1000},
                lambda: None,
                reps=2,
                group="gateway",
            ),
        ]
        report = run_bench(workloads=workloads)
        d = report.derived
        assert d["gateway_soak_realtime_factor"] > 0
        assert d["gateway_soak_migrate_realtime_factor"] > 0
        assert d["gateway_admissions_per_sec"] > 0
        assert d["gateway_migration_overhead"] == pytest.approx(
            report.op("gateway_soak_migrate").p50_s
            / report.op("gateway_soak").p50_s
        )


class TestReportPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        report = BenchReport(
            ops=[_op("x", 0.5, {"n": 4}), _op("y", 0.25, group="e2e")],
            derived={"speedup": 2.0},
            quick=True,
            seed=3,
            env={"python": "3.x"},
        )
        path = report.save(tmp_path / "BENCH_TEST.json")
        loaded = BenchReport.load(path)
        assert loaded == report

    def test_schema_is_versioned(self, tmp_path):
        report = BenchReport(ops=[_op("x", 0.1)])
        data = json.loads(report.to_json())
        assert data["schema"] == SCHEMA
        assert data["bench_id"] == BENCH_ID

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.bench/999", "ops": []}))
        with pytest.raises(ValueError, match="schema"):
            BenchReport.load(path)

    def test_committed_baseline_parses(self):
        """The checked-in trajectory file must always stay loadable."""
        baseline = BenchReport.load("benchmarks/BENCH_0008.json")
        assert baseline.bench_id == BENCH_ID
        assert baseline.op("detect_fft") is not None
        assert baseline.derived["detect_speedup_fft_over_direct"] >= 3.0
        assert baseline.op("farm_decode_w4") is not None
        assert "farm_sessions_per_core_w1" in baseline.derived
        assert baseline.op("macro_engine_slotted") is not None
        assert "macro_engine_slotted_events_per_sec" in baseline.derived


class TestBaselineGate:
    def test_no_regression_within_factor(self):
        baseline = BenchReport(ops=[_op("x", 0.100)])
        current = BenchReport(ops=[_op("x", 0.150)])
        assert compare_to_baseline(current, baseline, max_regression=2.0) == []

    def test_regression_past_factor_flagged(self):
        baseline = BenchReport(ops=[_op("x", 0.100)])
        current = BenchReport(ops=[_op("x", 0.250)])
        regressions = compare_to_baseline(current, baseline, max_regression=2.0)
        assert len(regressions) == 1
        reg = regressions[0]
        assert reg.op == "x"
        assert reg.ratio == pytest.approx(2.5)
        assert "x:" in str(reg) and "2.50x" in str(reg)

    def test_params_change_is_not_a_regression(self):
        """A changed workload is a new measurement, not a regression."""
        baseline = BenchReport(ops=[_op("x", 0.001, {"n": 4096})])
        current = BenchReport(ops=[_op("x", 9.999, {"n": 8192})])
        assert compare_to_baseline(current, baseline) == []

    def test_new_and_retired_ops_ignored(self):
        baseline = BenchReport(ops=[_op("old", 0.1)])
        current = BenchReport(ops=[_op("new", 99.0)])
        assert compare_to_baseline(current, baseline) == []

    def test_zero_baseline_skipped(self):
        baseline = BenchReport(ops=[_op("x", 0.0)])
        current = BenchReport(ops=[_op("x", 1.0)])
        assert compare_to_baseline(current, baseline) == []


class TestWorkloadDeterminism:
    def test_collision_buffers_are_seeded(self):
        from repro.bench.workloads import _collision_buffer

        iq_a, codes_a, _ = _collision_buffer(3, 2, 2, seed=5)
        iq_b, codes_b, _ = _collision_buffer(3, 2, 2, seed=5)
        assert np.array_equal(iq_a, iq_b)
        assert codes_a.keys() == codes_b.keys()
        iq_c, _, _ = _collision_buffer(3, 2, 2, seed=6)
        assert not np.array_equal(iq_a, iq_c)
