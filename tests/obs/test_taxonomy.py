"""Tests for the typed metric-name taxonomy (repro.obs.taxonomy)."""

import pytest

from repro.faults.models import FAULT_REASONS
from repro.obs.taxonomy import (
    C,
    DECODE_REASONS,
    FAULT_KINDS,
    G,
    S,
    CounterName,
    GaugeName,
    SpanName,
    bench_op_s,
    bench_reps,
    decode_outcome,
    fault_injection,
    fault_loss,
    gateway_transition,
    pipeline_failure,
    session_transition,
)
from repro.receiver.failures import DecodeFailure


def _constants(namespace):
    return [value for key, value in vars(namespace).items() if key.isupper()]


def test_every_counter_constant_is_declared():
    names = _constants(C)
    assert names and all(type(name) is CounterName for name in names)


def test_every_gauge_constant_is_declared():
    names = _constants(G)
    assert names and all(type(name) is GaugeName for name in names)


def test_every_span_name_is_declared():
    names = _constants(S)
    assert names and all(type(name) is SpanName for name in names)


def test_each_name_is_declared_once():
    names = _constants(C) + _constants(G) + _constants(S)
    assert len(set(names)) == len(names)


def test_constructor_error_names_the_bad_slug():
    with pytest.raises(ValueError, match="made_up"):
        pipeline_failure("decode", "made_up")
    with pytest.raises(ValueError, match="bogus"):
        session_transition("bogus")
    with pytest.raises(ValueError, match="bogus"):
        gateway_transition("bogus")


def test_pipeline_failure_constructor():
    name = pipeline_failure("decode", "exception")
    assert name == "errors.pipeline.decode.exception"
    assert type(name) is CounterName
    with pytest.raises(ValueError):
        pipeline_failure("decode", "bogus_reason")
    with pytest.raises(ValueError):
        pipeline_failure("bogus_stage", "exception")


def test_fault_loss_accepts_bare_and_prefixed_kinds():
    assert fault_loss("dropout") == "errors.fault.dropout"
    assert fault_loss("fault.dropout") == "errors.fault.dropout"
    assert type(fault_loss("dropout")) is CounterName
    with pytest.raises(ValueError):
        fault_loss("made_up")


def test_fault_injection_constructor():
    assert fault_injection("fault.adc_clip") == "faults.adc_clip"
    assert fault_injection("ack_lost") == C.FAULTS_ACK_LOST
    with pytest.raises(ValueError):
        fault_injection("fault.made_up")


def test_decode_outcome_constructor():
    for reason in DECODE_REASONS:
        name = decode_outcome(reason)
        assert type(name) is CounterName and name == f"decode.{reason}"
    assert decode_outcome("ghost") == C.DECODE_GHOST
    with pytest.raises(ValueError):
        decode_outcome("nonsense")


def test_bench_constructors_are_typed_and_slug_checked():
    assert bench_reps("detect_fft") == "bench.detect_fft.reps"
    assert type(bench_reps("detect_fft")) is CounterName
    assert bench_op_s("detect_fft") == "bench.detect_fft.op_s"
    assert type(bench_op_s("detect_fft")) is GaugeName
    with pytest.raises(ValueError):
        bench_op_s("Detect FFT")


def test_fault_reasons_mirror_fault_kinds():
    # repro.faults derives its injectable reasons from the taxonomy's
    # kind list; the two must never drift apart.
    assert FAULT_REASONS == tuple(
        f"fault.{kind}" for kind in FAULT_KINDS if kind != "ack_loss"
    )
    for reason in FAULT_REASONS:
        assert type(fault_loss(reason)) is CounterName


def test_decode_failure_counter_uses_checked_constructor():
    failure = DecodeFailure(stage="decode", reason="exception", user_id=1)
    assert failure.counter == "errors.pipeline.decode.exception"
    assert type(failure.counter) is CounterName
    bogus = DecodeFailure(stage="decode", reason="bogus", user_id=1)
    with pytest.raises(ValueError):
        _ = bogus.counter
