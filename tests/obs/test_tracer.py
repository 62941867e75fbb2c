"""Tracer core: null singleton, span nesting, counters, disabled cost."""

import time

import pytest

from repro.obs import (
    NULL_TRACER,
    PIPELINE_STAGES,
    C,
    G,
    NullTracer,
    S,
    SpanRecord,
    Tracer,
    as_tracer,
)


class TestNullTracer:
    def test_singleton_shared(self):
        assert as_tracer(None) is NULL_TRACER
        assert as_tracer(NULL_TRACER) is NULL_TRACER

    def test_as_tracer_passthrough(self):
        t = Tracer()
        assert as_tracer(t) is t

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_noop_records_nothing(self):
        t = NullTracer()
        with t.span(S.FRAME_SYNC, user=3):
            t.count(C.CRC_OK)
            t.gauge(G.DETECT_SCORE, 1.0)
        profile = t.profile()
        assert profile.stages == {}
        assert profile.counters == {}
        assert profile.gauges == {}

    def test_null_span_reusable_and_nested(self):
        with NULL_TRACER.span(S.ROUND):
            with NULL_TRACER.span(S.DECODE):
                pass  # nesting the shared span object must not blow up

    def test_disabled_overhead_is_small(self):
        """10k spans + counters through the null tracer stay cheap."""
        t = NULL_TRACER
        start = time.perf_counter()
        for _ in range(10_000):
            with t.span(S.FRAME_SYNC):
                t.count(C.CRC_OK)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"null-tracer overhead too high: {elapsed:.3f}s"


class TestTracer:
    def test_span_records_duration(self):
        t = Tracer()
        with t.span(S.FRAME_SYNC):
            pass
        (rec,) = t.records
        assert isinstance(rec, SpanRecord)
        assert rec.name == "frame_sync"
        assert rec.duration_s >= 0.0
        assert rec.depth == 0

    def test_nesting_depths(self):
        t = Tracer()
        with t.span(S.ROUND):
            with t.span(S.SIC):
                with t.span(S.DECODE, user=2):
                    pass
            with t.span(S.DETECT):
                pass
        by_name = {r.name: r for r in t.records}
        assert by_name["round"].depth == 0
        assert by_name["sic"].depth == 1
        assert by_name["decode"].depth == 2
        assert by_name["detect"].depth == 1
        assert by_name["decode"].attrs == {"user": 2}

    def test_span_records_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span(S.CRC):
                raise ValueError("boom")
        assert [r.name for r in t.records] == ["crc"]

    def test_counters_and_gauges(self):
        t = Tracer()
        t.count(C.CRC_OK)
        t.count(C.CRC_OK, 2)
        t.gauge(G.TAG_SNR_DB, 10.0)
        t.gauge(G.TAG_SNR_DB, 20.0)
        assert t.counters["crc.ok"] == 3
        assert t.gauges["tag.snr_db"] == [10.0, 20.0]

    def test_clear(self):
        t = Tracer()
        with t.span(S.DECODE):
            t.count(C.CRC_OK)
            t.gauge(G.TAG_SNR_DB, 1.0)
        t.clear()
        assert t.records == [] and t.counters == {} and t.gauges == {}

    def test_pipeline_stage_names_are_canonical(self):
        assert PIPELINE_STAGES == ("frame_sync", "detect", "decode", "crc", "sic")
        assert PIPELINE_STAGES == (S.FRAME_SYNC, S.DETECT, S.DECODE, S.CRC, S.SIC)

    def test_rejects_bare_string_names(self):
        """An undeclared name fails at its first traced emission, even
        when it spells a declared one."""
        t = Tracer()
        with pytest.raises(TypeError, match="CounterName"):
            t.count("crc.ok")
        with pytest.raises(TypeError, match="GaugeName"):
            t.gauge("detect.scor", 1.0)
        with pytest.raises(TypeError, match="SpanName"):
            t.span("not_a_stage")
        assert t.counters == {} and t.gauges == {} and t.records == []

    def test_rejects_kind_mismatch(self):
        t = Tracer()
        with pytest.raises(TypeError):
            t.count(G.DETECT_SCORE)
        with pytest.raises(TypeError):
            t.gauge(C.CRC_OK, 1.0)
        with pytest.raises(TypeError):
            t.span(C.SIC_PASSES)


class TestZeroCostInPipeline:
    def test_untraced_run_identical_to_traced(self):
        """Tracing observes the pipeline without perturbing it."""
        from repro.channel.geometry import Deployment
        from repro.sim.network import CbmaConfig, CbmaNetwork

        def run(tracer):
            net = CbmaNetwork(
                CbmaConfig(n_tags=3, seed=11),
                Deployment.linear(3, tag_to_rx=1.0),
                tracer=tracer,
            )
            return net.run_rounds(4)

        untraced = run(None)
        traced = run(Tracer())
        assert untraced.fer == traced.fer
        assert untraced.frames_correct == traced.frames_correct
        assert untraced.frames_detected == traced.frames_detected
