"""Chaos-soak tests: repro.sim.experiments.soak + real-PHY sessions.

The module-scoped ``acceptance`` fixture runs the full 2000-window
acceptance soak once -- dropout, jammer and oscillator-drift faults
over seeded traffic -- and the tests assert its invariants, health
trajectory and checkpoint/restore determinism against it.
"""

import numpy as np
import pytest

from repro.faults import (
    BurstInterferer,
    CapacityBrownout,
    FaultPlan,
    OscillatorDrift,
    TagDropout,
    TrafficSpike,
)
from repro.receiver.session import SessionSupervisor
from repro.sim.experiments import soak as soak_mod
from repro.sim.experiments.soak import (
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    random_fault_plan,
    run_campaign,
    run_soak,
    shrink_fault_plan,
)

ACCEPTANCE_CFG = SoakConfig(n_windows=2000, seed=7)

#: Dropout burst, jammer burst, then sustained 3000 ppm drift -- the
#: drift regime where tags stay detectable but undecodable, forcing
#: the session through its RESYNC path.
ACCEPTANCE_PLAN = FaultPlan(
    [
        TagDropout(probability=0.5, start_round=300, end_round=420),
        BurstInterferer(duty=0.4, power_dbm=28.0, start_round=800, end_round=950),
        OscillatorDrift(
            probability=1.0, drift_ppm=3000.0, start_round=1300, end_round=1345
        ),
    ],
    seed=99,
)


@pytest.fixture(scope="module")
def acceptance():
    return run_soak(ACCEPTANCE_CFG, ACCEPTANCE_PLAN)


class TestAcceptanceSoak:
    def test_all_invariants_hold(self, acceptance):
        assert acceptance.violations == []
        assert acceptance.ok

    def test_ends_in_operational_state(self, acceptance):
        assert acceptance.final_state in ("healthy", "degraded")

    def test_drift_forces_resync_and_recovery(self, acceptance):
        assert acceptance.stats["resyncs"] >= 1
        states = [s for _, s in acceptance.health_history]
        assert "resync" in states
        # Recovery: after the last resync entry the session reached
        # healthy again.
        assert states[-1] == "healthy"

    def test_memory_stays_bounded(self, acceptance):
        assert acceptance.peak_backlog <= 64

    def test_traffic_actually_flows(self, acceptance):
        # Seeded and deterministic; loose bounds guard against an
        # accidentally silent (or fault-free) stream.
        assert acceptance.offered >= 150
        assert acceptance.delivered >= 0.75 * acceptance.offered
        assert acceptance.stats["windows_skipped"] > acceptance.stats["windows_live"]

    def test_kill_restore_resume_is_identical(self, acceptance, tmp_path):
        """Kill mid-stream, checkpoint, restore onto a fresh stack and
        resume with a *different* chunk cadence: the emitted frame list
        and final state must match the uninterrupted run exactly."""
        cfg = ACCEPTANCE_CFG
        tags, stream = build_soak_stack(cfg)
        buffer, _ = build_soak_stream(cfg, ACCEPTANCE_PLAN, stream=stream, tags=tags)
        session = SessionSupervisor(stream)
        chunk = cfg.chunk_hops * stream.hop_samples
        cut = (buffer.size // (2 * chunk)) * chunk  # "kill" at ~50%
        frames = []
        for lo in range(0, cut, chunk):
            frames.extend(session.feed(buffer[lo : lo + chunk]))
        ckpt = session.checkpoint(tmp_path / "soak.jsonl")

        _, stream2 = build_soak_stack(cfg)
        resumed = SessionSupervisor.restore(ckpt, stream2)
        assert resumed.position == session.position
        chunk2 = 5 * stream2.hop_samples + 17
        for lo in range(resumed.position, buffer.size, chunk2):
            frames.extend(resumed.feed(buffer[lo : lo + chunk2]))
        frames.extend(resumed.finish())

        key = lambda fs: [(f.user_id, f.payload, f.start_sample) for f in fs]
        assert key(frames) == key(acceptance.frames)
        assert resumed.state.value == acceptance.final_state


class TestStreamSynthesis:
    def test_traffic_is_plan_independent(self):
        """Two different plans over one config stress identical
        underlying traffic (same windows, tags, payloads)."""
        cfg = SoakConfig(n_windows=40, seed=3)
        _, offered_a = build_soak_stream(cfg, None)
        _, offered_b = build_soak_stream(
            cfg, FaultPlan([TagDropout(probability=1.0)], seed=8)
        )
        assert [(t.window, t.tag, t.payload) for t in offered_a] == [
            (t.window, t.tag, t.payload) for t in offered_b
        ]
        assert all(t.fault == "fault.dropout" for t in offered_b)

    def test_buffer_is_deterministic(self):
        cfg = SoakConfig(n_windows=30, seed=5)
        plan = random_fault_plan(5, cfg.n_windows, cfg.n_tags)
        buf_a, _ = build_soak_stream(cfg, plan)
        buf_b, _ = build_soak_stream(cfg, plan)
        np.testing.assert_array_equal(buf_a, buf_b)

    def test_load_faults_refused(self):
        """One stream offers no load to scale: a spike or a brownout
        would leave the soak's frames and stats unchanged, so
        ``run_soak`` names them instead of running."""
        plan = FaultPlan([TrafficSpike(5.0), CapacityBrownout(0.0)])
        with pytest.raises(ValueError, match="not TrafficSpike, CapacityBrownout$"):
            run_soak(SoakConfig(n_windows=30, seed=7, traffic_rate=0.3), plan)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoakConfig(n_windows=0)
        with pytest.raises(ValueError):
            SoakConfig(traffic_rate=1.5)
        with pytest.raises(ValueError):
            SoakConfig(chunk_hops=0)


class TestRandomPlans:
    def test_seeded_plans_are_reproducible(self):
        a = random_fault_plan(17, 500, 2)
        b = random_fault_plan(17, 500, 2)
        assert a.to_dict() == b.to_dict()
        assert 1 <= len(a.faults) <= 4

    def test_windows_are_well_formed(self):
        for seed in range(25):
            plan = random_fault_plan(seed, 200, 2)
            for f in plan.faults:
                assert 0 <= f.start_round < f.end_round <= 200


class TestShrink:
    def test_non_reproducing_plan_rejected(self):
        plan = FaultPlan([TagDropout()], seed=1)
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_fault_plan(plan, lambda p: False)

    def test_converges_to_minimal_plan_deterministically(self):
        plan = FaultPlan(
            [
                TagDropout(probability=0.5, start_round=0, end_round=200),
                BurstInterferer(duty=0.5, power_dbm=30.0, start_round=0, end_round=200),
                OscillatorDrift(
                    probability=0.5, drift_ppm=3000.0, start_round=100, end_round=300
                ),
            ],
            seed=4,
        )

        def reproduces(p):
            return any(
                isinstance(f, BurstInterferer) and f.active(50) for f in p.faults
            )

        a = shrink_fault_plan(plan, reproduces, horizon=300)
        b = shrink_fault_plan(plan, reproduces, horizon=300)
        assert a.to_dict() == b.to_dict()
        assert len(a.faults) == 1
        fault = a.faults[0]
        assert isinstance(fault, BurstInterferer)
        assert (fault.start_round, fault.end_round) == (50, 51)

    def test_shrinks_real_soak_failure_to_single_window(self):
        """End to end over the PHY: a frame-losing dropout plus an
        irrelevant (weak) jammer shrink to a one-window dropout that
        still reproduces the loss."""
        cfg = SoakConfig(n_windows=60, seed=11)
        clean = run_soak(cfg).stats["frames"]
        plan = FaultPlan(
            [
                TagDropout(probability=1.0, tags=(0,), start_round=0, end_round=60),
                BurstInterferer(
                    duty=0.3, power_dbm=-10.0, start_round=40, end_round=55
                ),
            ],
            seed=5,
        )

        def reproduces(p):
            return run_soak(cfg, p).stats["frames"] < clean

        assert reproduces(plan)
        shrunk = shrink_fault_plan(plan, reproduces, horizon=60)
        assert len(shrunk.faults) == 1
        fault = shrunk.faults[0]
        assert isinstance(fault, TagDropout)
        assert fault.end_round - fault.start_round == 1
        # The minimal plan replays the failure deterministically.
        assert reproduces(shrunk)


class TestCampaigns:
    def test_clean_campaigns_pass(self):
        cfg = SoakConfig(n_windows=120, seed=21)
        outcomes = run_campaign(cfg, n_campaigns=2)
        assert len(outcomes) == 2
        for k, outcome in enumerate(outcomes):
            assert outcome.campaign == k
            assert outcome.result.violations == []
            assert outcome.shrunken is None

    def test_injected_violation_is_shrunk(self, monkeypatch):
        """A deliberately-tripping invariant checker must surface as a
        violation and come back with a minimal reproducing plan."""
        cfg = SoakConfig(n_windows=60, seed=11)
        clean = run_soak(cfg).stats["frames"]
        real_check = soak_mod.check_invariants

        def strict_check(stream, session, frames):
            out = real_check(stream, session, frames)
            if session.stats["frames"] < clean:
                out.append(
                    soak_mod.InvariantViolation(
                        "frame_loss", f"decoded {session.stats['frames']} < {clean}"
                    )
                )
            return out

        monkeypatch.setattr(soak_mod, "check_invariants", strict_check)
        plan = FaultPlan(
            [TagDropout(probability=1.0, tags=(0,), start_round=0, end_round=60)],
            seed=5,
        )
        result = run_soak(cfg, plan)
        assert any(v.name == "frame_loss" for v in result.violations)
        shrunk = shrink_fault_plan(
            plan, lambda p: bool(run_soak(cfg, p).violations), horizon=60
        )
        assert shrunk.faults[0].end_round - shrunk.faults[0].start_round == 1
        assert run_soak(cfg, shrunk).violations
