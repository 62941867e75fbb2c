"""Unit tests for repro.faults: models, plan resolution, determinism."""

import json

import numpy as np
import pytest

from repro.faults import (
    FAULT_REASONS,
    AckLoss,
    AdcSaturation,
    BurstInterferer,
    FaultPlan,
    OscillatorDrift,
    RoundFaults,
    StuckImpedance,
    TagBrownout,
    TagDropout,
    TagTxFault,
)


class TestModelValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            TagDropout(probability=1.5)
        with pytest.raises(ValueError):
            AckLoss(probability=-0.1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            TagDropout(start_round=-1)
        with pytest.raises(ValueError):
            TagDropout(start_round=5, end_round=5)

    def test_window_activity(self):
        f = TagDropout(start_round=3, end_round=7)
        assert not f.active(2)
        assert f.active(3)
        assert f.active(6)
        assert not f.active(7)

    def test_open_ended_window(self):
        f = TagDropout(start_round=2)
        assert f.active(10**6)
        assert not f.active(1)

    def test_targets_default_all_tags(self):
        assert TagDropout().targets(3) == (0, 1, 2)

    def test_targets_explicit_clipped_to_population(self):
        assert StuckImpedance(tags=(0, 5)).targets(3) == (0,)

    def test_fault_reasons_catalog(self):
        assert "fault.dropout" in FAULT_REASONS
        assert len(set(FAULT_REASONS)) == len(FAULT_REASONS)

    def test_burst_power_conversion(self):
        assert BurstInterferer(power_dbm=-30.0).power_w == pytest.approx(1e-6)


class TestPlanValidation:
    def test_rejects_non_fault(self):
        with pytest.raises(TypeError):
            FaultPlan(["not a fault"])

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert len(plan) == 0
        assert plan.describe() == "(no faults)"

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([TagDropout()]).resolve(-1, 2)

    def test_describe_mentions_each_fault(self):
        plan = FaultPlan([TagDropout(), BurstInterferer(start_round=2, end_round=4)])
        text = plan.describe()
        assert "TagDropout" in text and "BurstInterferer" in text
        assert "[2, 4)" in text


class TestDeterminism:
    def _plan(self, seed=11):
        return FaultPlan(
            [
                TagDropout(probability=0.4),
                TagBrownout(probability=0.5, tags=(1,)),
                OscillatorDrift(probability=0.3, drift_ppm=5000.0),
                BurstInterferer(duty=0.6, power_dbm=-55.0),
                AckLoss(probability=0.3),
                AdcSaturation(full_scale=1e-6, start_round=4),
                StuckImpedance(tags=(0,)),
            ],
            seed=seed,
        )

    def test_same_seed_bit_identical(self):
        a, b = self._plan(), self._plan()
        for r in range(20):
            ra, rb = a.resolve(r, 3), b.resolve(r, 3)
            assert ra.silent == rb.silent
            assert ra.brownout == rb.brownout
            assert ra.drift_ppm == rb.drift_ppm
            assert ra.ack_lost == rb.ack_lost
            assert ra.jammers == rb.jammers
            assert ra.clip_level == rb.clip_level

    def test_resolution_is_order_independent(self):
        a, b = self._plan(), self._plan()
        for r in range(10):
            a.resolve(r, 3)
        # b jumps straight to round 7 without resolving 0..6 first.
        r7a, r7b = a.resolve(7, 3), b.resolve(7, 3)
        assert r7a.silent == r7b.silent
        assert r7a.jammers == r7b.jammers

    def test_different_seed_differs(self):
        rounds = range(30)
        a = [self._plan(1).resolve(r, 3).silent for r in rounds]
        b = [self._plan(2).resolve(r, 3).silent for r in rounds]
        assert a != b

    def test_jammer_waveform_reproducible(self):
        plan = FaultPlan([BurstInterferer(duty=1.0, power_dbm=-55.0)], seed=11)
        rf = plan.resolve(0, 3)
        assert rf.jammers
        w1 = rf.jammer_samples(128, 2e6)
        w2 = rf.jammer_samples(128, 2e6)
        np.testing.assert_array_equal(w1, w2)

    def test_jammer_never_touches_global_rng(self):
        plan = FaultPlan([BurstInterferer(duty=1.0)], seed=11)
        rf = plan.resolve(0, 3)
        state_before = np.random.get_state()[1].copy()
        rf.jammer_samples(64, 2e6)
        np.testing.assert_array_equal(np.random.get_state()[1], state_before)


class TestSerialization:
    def _plan(self):
        return FaultPlan(
            [
                TagDropout(probability=0.4, tags=(0, 2), start_round=3, end_round=9),
                BurstInterferer(duty=0.6, power_dbm=-55.0),
                OscillatorDrift(probability=0.3, drift_ppm=5000.0, start_round=1),
                AdcSaturation(full_scale=1e-6, start_round=4),
            ],
            seed=13,
        )

    def test_round_trip_is_json_safe_and_stable(self):
        plan = self._plan()
        wire = json.loads(json.dumps(plan.to_dict()))
        back = FaultPlan.from_dict(wire)
        assert back.to_dict() == plan.to_dict()
        assert back.seed == plan.seed
        assert [type(f).__name__ for f in back.faults] == [
            type(f).__name__ for f in plan.faults
        ]
        assert back.faults[0].tags == (0, 2)  # lists re-normalised to tuples

    def test_round_trip_resolves_bit_identically(self):
        plan = self._plan()
        back = FaultPlan.from_dict(plan.to_dict())
        for r in range(20):
            ra, rb = plan.resolve(r, 4), back.resolve(r, 4)
            assert ra.silent == rb.silent
            assert ra.brownout == rb.brownout
            assert ra.drift_ppm == rb.drift_ppm
            assert ra.jammers == rb.jammers
            assert ra.clip_level == rb.clip_level

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"seed": 0, "faults": [{"kind": "EvilFault", "params": {}}]}
            )

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"seed": 0}, "'faults'"),
            ({"faults": []}, "'seed'"),
            ({"seed": 0, "faults": [{"params": {}}]}, "'kind'"),
            ({"seed": 0, "faults": [{"kind": "TagDropout"}]}, "'params'"),
        ],
    )
    def test_missing_key_rejected(self, data, key):
        with pytest.raises(ValueError, match=key):
            FaultPlan.from_dict(data)

    def test_empty_plan_round_trip(self):
        back = FaultPlan.from_dict(FaultPlan().to_dict())
        assert back.empty


class TestRoundFaults:
    def test_clean_round_is_inactive(self):
        plan = FaultPlan([TagDropout(start_round=100)], seed=0)
        rf = plan.resolve(0, 2)
        assert not rf.any_active
        assert rf.tx_faults() == {}
        assert rf.loss_reason(0) is None

    def test_dropout_wins_over_brownout(self):
        rf = RoundFaults(round_index=0, silent=frozenset({0}), brownout={0: 0.5, 1: 0.4})
        tx = rf.tx_faults()
        assert tx[0] == TagTxFault(silent=True)
        assert tx[1] == TagTxFault(keep_fraction=0.4)

    def test_loss_reason_priority(self):
        rf = RoundFaults(
            round_index=0,
            silent=frozenset({0}),
            brownout={1: 0.5},
            drift_ppm={2: 1000.0},
            jammers=((1e-9, 7),),
            clip_level=1e-6,
        )
        assert rf.loss_reason(0) == "fault.dropout"
        assert rf.loss_reason(1) == "fault.brownout"
        assert rf.loss_reason(2) == "fault.clock_drift"
        # Untouched tag: shared-medium faults are the best explanation,
        # ADC clipping before interference.
        assert rf.loss_reason(3) == "fault.adc_clip"

    def test_clip_limits_both_rails(self):
        rf = RoundFaults(round_index=0, clip_level=1.0)
        out = rf.clip(np.array([3.0 - 4.0j, 0.5 + 0.25j]))
        assert out[0] == 1.0 - 1.0j
        assert out[1] == 0.5 + 0.25j

    def test_clip_noop_without_level(self):
        rf = RoundFaults(round_index=0)
        x = np.array([5.0 + 5.0j])
        assert rf.clip(x) is x

    def test_adc_saturation_takes_tightest_level(self):
        plan = FaultPlan(
            [AdcSaturation(full_scale=2e-6), AdcSaturation(full_scale=5e-7)], seed=0
        )
        assert plan.resolve(0, 1).clip_level == 5e-7

    def test_deterministic_drift_accumulates(self):
        plan = FaultPlan(
            [
                OscillatorDrift(probability=1.0, drift_ppm=100.0),
                OscillatorDrift(probability=1.0, drift_ppm=50.0),
            ],
            seed=0,
        )
        rf = plan.resolve(0, 1)
        assert rf.drift_ppm[0] == pytest.approx(150.0)
