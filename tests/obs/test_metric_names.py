"""Every emission is a declared name, and every declared name is emitted.

One tiny traced pass drives each instrumented layer: the slotted SIC
network under a fault plan, ARQ, a ``CbmaSystem`` epoch, the
unslotted regime with faults, a chaos-soak campaign over a supervised
session, an inline ``DecodeFarm``, a gateway soak with a live worker
drain, a macro calibration and run, and a one-op benchmark.  The
enabled tracer raises ``TypeError`` on any name that is not a typed
value of :mod:`repro.obs.taxonomy`, so the pass completing is the
first half of the check; the second half is that every constant on
``C``/``G``/``S`` shows up in the trace, apart from the rare-path
names listed (each with the test that covers it).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.bench import run_bench
from repro.bench.workloads import Workload
from repro.channel.geometry import Deployment
from repro.codes import twonc_codes
from repro.faults import (
    AckLoss,
    AdcSaturation,
    BurstInterferer,
    FaultPlan,
    TagBrownout,
    TagDropout,
    TrafficSpike,
)
from repro.farm import DecodeFarm, FarmConfig
from repro.gateway.soak import GatewaySoakConfig, run_gateway_soak
from repro.mac.arq import ArqSimulator
from repro.macro.calibration import CalibrationSpec, calibrate, load_or_calibrate
from repro.macro.engine import MacroConfig, MacroSimulator
from repro.obs import C, G, S, Tracer
from repro.receiver import CbmaReceiver
from repro.receiver.session import SessionConfig, SessionSupervisor
from repro.receiver.streaming import StreamingReceiver
from repro.sim.experiments.soak import (
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    run_campaign,
)
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.sim.traffic import PoissonArrivals
from repro.sim.unslotted import UnslottedScenario, simulate_unslotted
from repro.system import CbmaSystem
from repro.tag import FrameFormat, Tag

#: Declared names the pass below does not reach, each with the test
#: that drives its emission.
RARE = {
    # tests/receiver/test_session.py::TestHealthMachine::
    # test_nodecode_streak_triggers_widened_resync
    C.SESSION_RESYNCS,
    # tests/receiver/test_session.py::TestIngestion::
    # test_cross_window_duplicate_is_counted
    C.SESSION_DUPLICATES,
    # tests/gateway/test_gateway.py::TestAdmission::
    # test_empty_bucket_retries_then_admits and test_deadline_miss_is_counted
    C.GATEWAY_RETRIES,
    C.GATEWAY_DEADLINE_MISSES,
}


class _WrongPayloadReceiver(CbmaReceiver):
    """Turns every decoded payload into a wrong one that passed CRC."""

    def process(self, iq, *args, **kwargs):
        report = super().process(iq, *args, **kwargs)
        report.frames = [
            dataclasses.replace(f, payload=bytes(b ^ 0xFF for b in f.payload))
            if f.success
            else f
            for f in report.frames
        ]
        return report


def _sic_network_with_faults_and_arq(tracer):
    plan = FaultPlan(
        [
            TagDropout(probability=0.3),
            TagBrownout(tags=(1,), probability=0.5),
            BurstInterferer(start_round=2, end_round=4, power_dbm=-60.0),
            AckLoss(probability=0.3),
        ],
        seed=5,
    )
    net = CbmaNetwork(
        CbmaConfig(n_tags=3, seed=7),
        Deployment.linear(3, tag_to_rx=1.0),
        tracer=tracer,
        faults=plan,
        receiver_kwargs={"max_passes": 3},
    )
    net.run_rounds(6)
    arq = ArqSimulator(
        net, PoissonArrivals(rate_hz=30.0), max_retries=3, max_queue=2, ack_loss_prob=0.5
    )
    arq.run(10, rng=6)


def _error_budget(tracer):
    """Clean rounds whose losses fall to the receiver, not to faults."""
    deaf = CbmaNetwork(
        CbmaConfig(n_tags=2, seed=7, user_threshold=0.99),
        Deployment.linear(2, tag_to_rx=1.0),
        tracer=tracer,
    )
    deaf.run_rounds(1)
    far = CbmaNetwork(
        CbmaConfig(n_tags=3, seed=7), Deployment.linear(3, tag_to_rx=10.0), tracer=tracer
    )
    far.run_rounds(2)
    wrong = CbmaNetwork(
        CbmaConfig(n_tags=2, seed=7),
        Deployment.linear(2, tag_to_rx=1.0),
        tracer=tracer,
        receiver_cls=_WrongPayloadReceiver,
    )
    wrong.run_rounds(1)


def _system_epoch(tracer):
    system = CbmaSystem(
        CbmaConfig(n_tags=3, seed=11),
        Deployment.linear(6, tag_to_rx=1.0),
        seed=11,
        tracer=tracer,
        faults=FaultPlan([TagDropout(probability=0.2)], seed=3),
    )
    system.run_epoch(rounds=4)


def _unslotted_with_faults(tracer):
    fmt = FrameFormat()
    codes = twonc_codes(3, 32)
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(3)]
    scenario = UnslottedScenario(
        tags=tags, amplitudes=[2e-6] * 3, rate_hz=40.0, duration_s=0.02, payload_bytes=4
    )
    rx = CbmaReceiver({i: codes[i] for i in range(3)}, fmt=fmt, samples_per_chip=2)
    stream = StreamingReceiver(rx, max_frame_bits=fmt.frame_bits(4))
    plan = FaultPlan([TagDropout(probability=0.4), AdcSaturation(full_scale=5e-6)], seed=2)
    simulate_unslotted(scenario, stream, rng=1, faults=plan, tracer=tracer)


def _session_soak_and_farm(tracer):
    cfg = SoakConfig(n_windows=24, n_tags=2, seed=7, traffic_rate=0.3)
    run_campaign(cfg, n_campaigns=1, shrink=False, tracer=tracer)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    chunk = 3 * stream.hop_samples

    # Quarantine, backlog shedding, the watchdog (a clock that jumps
    # 10 s per read) and a checkpoint round trip on one session.
    ticks = itertools.count()
    session = SessionSupervisor(
        stream,
        config=SessionConfig(max_windows_per_feed=2, max_backlog_windows=2),
        tracer=tracer,
        clock=lambda: 10.0 * next(ticks),
    )
    corrupt = buffer[:chunk].copy()
    corrupt[0] = np.nan
    session.feed(corrupt)
    session.feed(buffer[chunk:])
    SessionSupervisor.from_checkpoint_records(session.checkpoint_records(), stream, tracer=tracer)

    # Both farm backends, two sessions sharing a template bank (the
    # batched gate engages); the two-slot ring makes process-backend
    # feeds wait on back-pressure.
    net = CbmaConfig(n_tags=2, seed=7, payload_bytes=4, code_length=32, samples_per_chip=1)
    for backend in ("inline", "process"):
        farm = DecodeFarm.from_config(
            net,
            n_sessions=2,
            farm=FarmConfig(n_workers=1, ring_slots=2, ring_slot_samples=chunk),
            tracer=tracer,
            backend=backend,
        )
        try:
            for lo in range(0, buffer.size, chunk):
                for sid in farm.session_ids:
                    farm.feed(sid, buffer[lo : lo + chunk])
            farm.pump()
            farm.finish()
        finally:
            farm.close()


def _gateway_soak(tracer):
    cfg = GatewaySoakConfig(
        n_streams=4,
        n_rounds=6,
        dispatch_budget=2,
        migrate_round=3,
        capture=SoakConfig(n_windows=12, n_tags=2, seed=7, traffic_rate=0.3),
    )
    spike = FaultPlan([TrafficSpike(start_round=1, end_round=4, factor=8.0)])
    run_gateway_soak(cfg, spike, tracer=tracer)


def _macro(tracer, tmp_path):
    spec = CalibrationSpec(tag_counts=(1, 2), distances_m=(1.0,), rounds=2)
    surface = calibrate(spec, tracer=tracer)
    path = tmp_path / "surface.json"
    surface.save(path)
    load_or_calibrate(path, spec, tracer=tracer)
    cfg = MacroConfig(n_tags=20, traffic=PoissonArrivals(rate_hz=50.0), seed=4)
    MacroSimulator(cfg, surface, tracer=tracer).run(20)


def _bench(tracer):
    run_bench(workloads=[Workload("noop", {}, lambda: None, reps=2)], tracer=tracer)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tracer carried through every layer (raises on a bad name)."""
    tracer = Tracer()
    _sic_network_with_faults_and_arq(tracer)
    _error_budget(tracer)
    _system_epoch(tracer)
    _unslotted_with_faults(tracer)
    _session_soak_and_farm(tracer)
    _gateway_soak(tracer)
    _macro(tracer, tmp_path_factory.mktemp("macro"))
    _bench(tracer)
    return tracer


def _declared(namespace):
    return {value for key, value in vars(namespace).items() if key.isupper()}


def test_every_layer_emits_only_declared_names(traced):
    assert traced.counters and traced.gauges and traced.records


def test_every_declared_name_is_emitted(traced):
    emitted = set(traced.counters) | set(traced.gauges) | {r.name for r in traced.records}
    declared = _declared(C) | _declared(G) | _declared(S)
    assert RARE <= declared
    assert declared - RARE - emitted == set()


def test_rare_list_holds_only_unreached_names(traced):
    """A rare-path name the pass starts reaching leaves the list."""
    emitted = set(traced.counters) | set(traced.gauges) | {r.name for r in traced.records}
    assert RARE & emitted == set()
