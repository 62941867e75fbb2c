"""Unit tests for the admission primitives: bucket and retry policy."""

import pytest

from repro.gateway import RetryPolicy, TokenBucket

from tests.gateway.conftest import VirtualClock


class TestTokenBucket:
    def test_starts_at_burst_and_drains(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=4.0, clock=clock)
        assert bucket.tokens == pytest.approx(4.0)
        for _ in range(4):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_from_clock(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=100.0, clock=clock)
        while bucket.try_acquire():
            pass
        clock.advance(0.5)  # 5 tokens at rate 10
        for _ in range(5):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=100.0, burst=8.0, clock=clock)
        clock.advance(1e6)
        assert bucket.tokens == pytest.approx(8.0)

    def test_throttle_slows_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=100.0, clock=clock)
        while bucket.try_acquire():
            pass
        bucket.throttle = 0.5
        clock.advance(1.0)  # 10 nominal -> 5 throttled
        assert bucket.tokens == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=4.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestRetryPolicy:
    def test_yields_max_retries_delays(self):
        policy = RetryPolicy(max_retries=5, seed=3)
        assert len(list(policy.delays())) == 5

    def test_zero_retries_is_empty(self):
        assert list(RetryPolicy(max_retries=0).delays()) == []

    def test_deterministic_given_seed(self):
        a = list(RetryPolicy(max_retries=6, seed=11).delays())
        b = list(RetryPolicy(max_retries=6, seed=11).delays())
        assert a == b
        c = list(RetryPolicy(max_retries=6, seed=12).delays())
        assert a != c

    def test_delays_scale_with_slot(self):
        a = list(RetryPolicy(max_retries=4, seed=5, slot_s=0.02).delays())
        b = list(RetryPolicy(max_retries=4, seed=5, slot_s=0.04).delays())
        assert b == pytest.approx([x * 2 for x in a])

    def test_delays_non_negative_and_widening(self):
        """The jitter draw is bounded by the widening window: every
        delay sits in ``[0, cw * slot_s]`` for a BEB-widened cw."""
        policy = RetryPolicy(backoff="beb", max_retries=8, seed=9, slot_s=1.0)
        cw = policy.strategy.initial_cw()
        for attempt, delay in enumerate(policy.delays(), start=1):
            cw = float(policy.strategy.on_failure(cw, attempt))
            assert 0.0 <= delay <= cw

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(slot_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
