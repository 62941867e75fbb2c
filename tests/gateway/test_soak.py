"""Gateway chaos soak: load-fault plans, invariants, and the acceptance run.

The acceptance soak is the ISSUE's bar: 50 concurrent streams under a
traffic spike overlapping a capacity brownout, harsh enough to climb
the ladder to SHED with counted sheds, completing with every machine
-checked invariant holding -- and a mid-soak worker drain/migrate/
resume that is bit-identical to the unmigrated run.
"""

import dataclasses

import pytest

from repro.faults import CapacityBrownout, FaultPlan, TagDropout, TrafficSpike
from repro.gateway.soak import (
    GatewaySoakConfig,
    GatewaySoakResult,
    check_gateway_invariants,
    random_gateway_fault_plan,
    run_gateway_soak,
)
from repro.gateway import soak as gwsoak
from repro.gateway.gateway import Gateway, StreamReport
from repro.sim.experiments.soak import SoakConfig, shrink_fault_plan


def harsh_plan(seed=7):
    """Spike x4 overlapping a 95% brownout: enough pressure to SHED."""
    return FaultPlan(
        [
            TrafficSpike(factor=4.0, start_round=2, end_round=8),
            CapacityBrownout(factor=0.05, start_round=3, end_round=9),
        ],
        seed=seed,
    )


def blank_result(cfg, **fields):
    """A finished soak that offered, fed and shed nothing; *fields* override."""
    base = dict(
        config=cfg, plan=None, reports={}, offered={}, round_states=[], transitions=[],
        admitted=0, rejected=0, shed=0, deadline_misses=0, migrations=0,
        moved_sessions=[], peak_queue_depth=0, peak_retained_samples=0,
    )
    return GatewaySoakResult(**{**base, **fields})


def ledger(report):
    """What a stream decoded and how its chunks were accounted."""
    frames = [(f.user_id, f.payload, f.start_sample) for f in report.frames]
    return frames, report.admitted, report.fed, report.shed, report.rejected


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
    def test_artifact_wrapper_is_not_a_plan(self):
        artifact = {"config": {}, "violations": [], "plan": harsh_plan(3).to_dict()}
        with pytest.raises(ValueError, match="'faults'"):
            FaultPlan.from_dict(artifact)

    def test_random_plan_is_seed_deterministic(self):
        a = random_gateway_fault_plan(5, 12)
        b = random_gateway_fault_plan(5, 12)
        assert a.faults == b.faults
        assert not a.empty
        assert a.faults != random_gateway_fault_plan(6, 12).faults

    def test_shrinks_through_the_shared_ddmin(self):
        """The shared shrinker reduces a load plan to the one fault and
        round the (synthetic, deterministic) predicate needs."""
        plan = FaultPlan(
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
        assert type(minimal) is FaultPlan
        assert minimal.seed == 3
        assert len(minimal.faults) == 1
        (fault,) = minimal.faults
        assert isinstance(fault, TrafficSpike)
        assert fault.active(5)

    def test_refuses_faults_it_cannot_apply(self):
        """A session-soak plan parses as the same type, so the soak
        names the faults it has no waveform for instead of ignoring them."""
        plan = FaultPlan([TrafficSpike(), TagDropout(start_round=2)], seed=1)
        with pytest.raises(ValueError, match="not TagDropout"):
            run_gateway_soak(acceptance_config(n_streams=2), plan)


class TestInvariantChecker:
    def test_flags_silent_drop_and_rung_skips(self):
        cfg = acceptance_config(
            n_streams=8, capture=SoakConfig(n_windows=8, n_tags=2, seed=7)
        )
        result = blank_result(
            cfg,
            reports={
                0: StreamReport(
                    stream_id=0, frames=[], stats={},
                    admitted=1, fed=0, shed=0, rejected=0,
                )
            },
            offered={0: 2},
            transitions=[
                ("full", "shed", False),
                ("throttled", "draining", False),
                ("full", "draining", True),
            ],
            admitted=1,
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
        # The drain moves half the sessions off worker 0, and the next
        # step's rebalance moves as many back.
        assert migrated.migrations == 2 * len(migrated.moved_sessions)
        assert plain.reports.keys() == migrated.reports.keys()
        for sid in plain.reports:
            assert ledger(plain.reports[sid]) == ledger(migrated.reports[sid])

    def test_migration_forces_draining_only_transitions(self, acceptance_pair):
        _, migrated = acceptance_pair
        draining = [t for t in migrated.transitions if t[1] == "draining"]
        assert draining
        assert all(forced for _frm, _to, forced in draining)


class TestBackendParity:
    def test_process_backend_matches_inline(self):
        """A small soak (the default 12-window capture, 2 workers)
        decodes identically through the real pool."""
        plan = FaultPlan([TrafficSpike(factor=2.0, start_round=1, end_round=3)], seed=7)
        inline = run_gateway_soak(GatewaySoakConfig(n_streams=4, n_rounds=4), plan)
        process = run_gateway_soak(
            GatewaySoakConfig(n_streams=4, n_rounds=4, backend="process"), plan
        )
        assert inline.ok and process.ok
        assert inline.reports.keys() == process.reports.keys()
        for sid in inline.reports:
            assert ledger(inline.reports[sid]) == ledger(process.reports[sid])


class TestRetentionCount:
    """Each stream keeps a running count of the samples it retains for
    migration re-feed, instead of re-summing its retention every step."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_count_matches_retention_after_every_step(self, seed, monkeypatch):
        step = Gateway._step
        wrapped = []

        def checked(self, budget):
            dispatched = step(self, budget)
            for st in self._streams.values():
                assert st.retained_samples == sum(c.size for _, c in st.retained)
                wrapped.append(len(st.retained) == self.config.retain_chunks)
            return dispatched

        # Six retained chunks, so the busiest streams' retention wraps.
        soak_config = gwsoak._soak_gateway_config
        monkeypatch.setattr(
            gwsoak,
            "_soak_gateway_config",
            lambda cfg: dataclasses.replace(soak_config(cfg), retain_chunks=6),
        )
        monkeypatch.setattr(Gateway, "_step", checked)
        cfg = GatewaySoakConfig(
            n_streams=8,
            n_rounds=10,
            seed=seed,
            migrate_round=4,
            capture=SoakConfig(n_windows=30, n_tags=2, seed=seed, traffic_rate=0.3),
        )
        plan = FaultPlan(
            [
                TrafficSpike(factor=3.0, start_round=1, end_round=4),
                CapacityBrownout(factor=0.1, start_round=2, end_round=5),
            ],
            seed=seed,
        )
        result = run_gateway_soak(cfg, plan)
        assert result.ok and result.migrations > 0 and any(wrapped)
        # The high-water mark the summed retention gave before.
        assert result.peak_retained_samples == 188416
