"""Gateway chaos soak: fault plans, invariants, and the acceptance run.

The acceptance soak is the ISSUE's bar: 50 concurrent streams under a
traffic spike overlapping a capacity brownout, harsh enough to climb
the ladder to SHED with counted sheds, completing with every machine
-checked invariant holding -- and a mid-soak worker drain/migrate/
resume that is bit-identical to the unmigrated run.
"""

import dataclasses

import pytest

from repro.gateway.soak import (
    CapacityBrownout,
    GatewayFaultPlan,
    GatewaySoakConfig,
    GatewaySoakResult,
    TrafficSpike,
    check_gateway_invariants,
    random_gateway_fault_plan,
    run_gateway_soak,
)
from repro.gateway.gateway import StreamReport
from repro.sim.experiments.soak import SoakConfig, shrink_fault_plan


def harsh_plan(seed=7):
    """Spike x4 overlapping a 95% brownout: enough pressure to SHED."""
    return GatewayFaultPlan(
        [
            TrafficSpike(factor=4.0, start_round=2, end_round=8),
            CapacityBrownout(factor=0.05, start_round=3, end_round=9),
        ],
        seed=seed,
    )


def acceptance_config(**overrides):
    base = dict(
        n_streams=50,
        n_rounds=12,
        seed=7,
        backend="inline",
        capture=SoakConfig(n_windows=30, n_tags=2, seed=7, traffic_rate=0.3),
    )
    base.update(overrides)
    return GatewaySoakConfig(**base)


@pytest.fixture(scope="module")
def acceptance_pair():
    """The 50-stream acceptance soak, with and without a live migrate."""
    cfg = acceptance_config()
    plain = run_gateway_soak(cfg, harsh_plan())
    migrated = run_gateway_soak(
        dataclasses.replace(cfg, migrate_round=5), harsh_plan()
    )
    return plain, migrated


class TestFaultPlan:
    def test_resolve_spikes_multiply_brownouts_min(self):
        plan = GatewayFaultPlan(
            [
                TrafficSpike(factor=2.0, start_round=0, end_round=4),
                TrafficSpike(factor=3.0, start_round=2, end_round=4),
                CapacityBrownout(factor=0.5, start_round=0, end_round=4),
                CapacityBrownout(factor=0.2, start_round=2, end_round=4),
            ]
        )
        early, late, after = plan.resolve(1), plan.resolve(3), plan.resolve(4)
        assert (early.spike, early.budget) == (2.0, 0.5)
        assert (late.spike, late.budget) == (6.0, 0.2)
        assert (after.spike, after.budget) == (1.0, 1.0)

    def test_roundtrip_through_dict(self):
        plan = harsh_plan(seed=13)
        clone = GatewayFaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 13
        assert clone.faults == plan.faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gateway fault kind"):
            GatewayFaultPlan.from_dict(
                {"faults": [{"kind": "meteor_strike"}], "seed": 0}
            )
        with pytest.raises(TypeError):
            GatewayFaultPlan([object()])

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"seed": 0}, "'faults'"),
            ({"faults": []}, "'seed'"),
            ({"faults": [{"factor": 2.0}], "seed": 0}, "'kind'"),
        ],
    )
    def test_missing_key_rejected(self, data, key):
        with pytest.raises(ValueError, match=key):
            GatewayFaultPlan.from_dict(data)

    def test_artifact_wrapper_is_not_a_plan(self):
        artifact = {"config": {}, "violations": [], "plan": harsh_plan(3).to_dict()}
        with pytest.raises(ValueError, match="'faults'"):
            GatewayFaultPlan.from_dict(artifact)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TrafficSpike(factor=0.5)
        with pytest.raises(ValueError):
            CapacityBrownout(factor=1.5)
        with pytest.raises(ValueError):
            TrafficSpike(start_round=-1)

    def test_random_plan_is_seed_deterministic(self):
        a = random_gateway_fault_plan(5, 12)
        b = random_gateway_fault_plan(5, 12)
        assert a.faults == b.faults
        assert not a.empty
        assert a.faults != random_gateway_fault_plan(6, 12).faults

    def test_shrinks_through_the_shared_ddmin(self):
        """The generalized shrinker reduces a gateway plan to the one
        fault the (synthetic, deterministic) predicate needs."""
        plan = GatewayFaultPlan(
            [
                TrafficSpike(factor=5.0, start_round=0, end_round=10),
                TrafficSpike(factor=2.0, start_round=1, end_round=6),
                CapacityBrownout(factor=0.3, start_round=2, end_round=7),
            ],
            seed=3,
        )

        def reproduces(p):
            return p.resolve(5).spike >= 5.0

        minimal = shrink_fault_plan(plan, reproduces, horizon=12)
        assert type(minimal) is GatewayFaultPlan
        assert minimal.seed == 3
        assert len(minimal.faults) == 1
        (fault,) = minimal.faults
        assert isinstance(fault, TrafficSpike)
        assert fault.active(5)


class TestInvariantChecker:
    def test_flags_silent_drop_and_rung_skips(self):
        cfg = acceptance_config(
            n_streams=8, capture=SoakConfig(n_windows=8, n_tags=2, seed=7)
        )
        result = GatewaySoakResult(
            config=cfg,
            plan=None,
            reports={
                0: StreamReport(
                    stream_id=0, frames=[], stats={},
                    admitted=1, fed=0, shed=0, rejected=0,
                )
            },
            offered={0: 2},
            round_states=[],
            transitions=[
                ("full", "shed", False),
                ("throttled", "draining", False),
                ("full", "draining", True),
            ],
            admitted=1,
            rejected=0,
            shed=0,
            deadline_misses=0,
            migrations=0,
            moved_sessions=[],
            peak_queue_depth=0,
            peak_retained_samples=0,
        )
        names = [v.name for v in check_gateway_invariants(cfg, result)]
        assert names.count("silent_drop") == 1
        assert names.count("admission_accounting") == 1
        # Rung-skip, plus unforced draining (twice: skip + entry);
        # the forced jump on the last transition is exempt.
        assert names.count("ladder_step") == 3


class TestAcceptanceSoak:
    def test_all_invariants_hold(self, acceptance_pair):
        plain, _ = acceptance_pair
        assert plain.ok, [f"{v.name}: {v.detail}" for v in plain.violations]

    def test_ladder_reaches_shed_with_counted_sheds(self, acceptance_pair):
        plain, _ = acceptance_pair
        assert "shed" in plain.round_states
        assert plain.shed > 0
        assert plain.round_states[-1] == "full"  # recovered after faults

    def test_offered_work_fully_accounted(self, acceptance_pair):
        plain, _ = acceptance_pair
        assert sum(plain.offered.values()) == plain.admitted + plain.rejected
        for sid, rep in plain.reports.items():
            assert rep.admitted == rep.fed + rep.shed

    def test_delivers_frames_under_fault_load(self, acceptance_pair):
        plain, _ = acceptance_pair
        assert plain.delivered_frames > 0
        assert len(plain.reports) == 50

    def test_migration_is_bit_identical(self, acceptance_pair):
        plain, migrated = acceptance_pair
        assert migrated.ok, [
            f"{v.name}: {v.detail}" for v in migrated.violations
        ]
        assert migrated.moved_sessions
        assert migrated.migrations == len(migrated.moved_sessions)
        assert plain.reports.keys() == migrated.reports.keys()
        for sid in plain.reports:
            a, b = plain.reports[sid], migrated.reports[sid]
            assert [
                (f.user_id, f.payload, f.start_sample) for f in a.frames
            ] == [(f.user_id, f.payload, f.start_sample) for f in b.frames]
            assert (a.admitted, a.fed, a.shed, a.rejected) == (
                b.admitted, b.fed, b.shed, b.rejected,
            )

    def test_migration_forces_draining_only_transitions(self, acceptance_pair):
        _, migrated = acceptance_pair
        draining = [t for t in migrated.transitions if t[1] == "draining"]
        assert draining
        assert all(forced for _frm, _to, forced in draining)


class TestBackendParity:
    def test_process_backend_matches_inline(self):
        """A small soak decodes identically through the real pool."""
        kwargs = dict(
            n_streams=4,
            n_rounds=4,
            seed=7,
            n_workers=2,
            capture=SoakConfig(n_windows=12, n_tags=2, seed=7, traffic_rate=0.3),
        )
        plan = GatewayFaultPlan(
            [TrafficSpike(factor=2.0, start_round=1, end_round=3)], seed=7
        )
        inline = run_gateway_soak(
            GatewaySoakConfig(backend="inline", **kwargs), plan
        )
        process = run_gateway_soak(
            GatewaySoakConfig(backend="process", **kwargs), plan
        )
        assert inline.ok and process.ok
        assert inline.reports.keys() == process.reports.keys()
        for sid in inline.reports:
            a, b = inline.reports[sid], process.reports[sid]
            assert [
                (f.user_id, f.payload, f.start_sample) for f in a.frames
            ] == [(f.user_id, f.payload, f.start_sample) for f in b.frames]
            assert (a.admitted, a.fed, a.shed) == (b.admitted, b.fed, b.shed)
