"""Admission primitives: the token bucket and the retry policy.

Both are deterministic given their inputs: the bucket refills as a
pure function of the injected clock (so a soak driven by a virtual
clock admits identically every run), and the retry policy draws its
jittered delays from one seeded generator through the shared backoff
zoo (:mod:`repro.macro.backoff`) -- the same BEB/Fibonacci/EIED/
adaptive strategies the MAC and macro tiers use, with the drawn slot
count scaled to seconds.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

import numpy as np

from repro.macro.backoff import make_backoff

__all__ = ["TokenBucket", "RetryPolicy"]


class TokenBucket:
    """Classic token bucket with an injectable clock and a throttle.

    ``throttle`` multiplies the refill rate -- the degradation ladder
    sets it below 1.0 while THROTTLED so admission slows without any
    per-request bookkeeping.  Tokens are fractional; one admitted
    chunk costs one token.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if rate <= 0.0 or burst < 1.0:
            raise ValueError("need rate > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.throttle = 1.0
        self._clock = clock if clock is not None else time.monotonic
        self._tokens = float(burst)
        self._last = self._clock()

    def _refill(self) -> None:
        now = self._clock()
        dt = now - self._last
        if dt > 0.0:
            self._tokens = min(
                self.burst, self._tokens + dt * self.rate * self.throttle
            )
        self._last = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the clock)."""
        self._refill()
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take *n* tokens if available; never blocks."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False


class RetryPolicy:
    """Jittered exponential backoff for admission retries.

    Wraps a :mod:`repro.macro.backoff` strategy: each failed attempt
    widens the contention window (``on_failure``) and the wait is a
    uniform draw in ``[0, cw)`` slots (``delay_slots`` -- the jitter),
    scaled by ``slot_s``.  One seeded generator makes the delay
    sequence reproducible.
    """

    def __init__(
        self,
        backoff: str = "beb",
        slot_s: float = 0.02,
        max_retries: int = 3,
        seed: int = 0,
        **params: float,
    ) -> None:
        if slot_s < 0.0 or max_retries < 0:
            raise ValueError("slot_s and max_retries must be non-negative")
        self.strategy = make_backoff(backoff, **params)
        self.slot_s = float(slot_s)
        self.max_retries = int(max_retries)
        self._rng = np.random.default_rng(seed)

    def delays(self) -> Iterator[float]:
        """The delay (seconds) before each retry, attempt by attempt."""
        cw = self.strategy.initial_cw()
        for attempt in range(1, self.max_retries + 1):
            cw = float(self.strategy.on_failure(cw, attempt))
            yield float(self.strategy.delay_slots(cw, self._rng)) * self.slot_s
