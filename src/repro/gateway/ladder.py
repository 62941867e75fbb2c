"""The degradation ladder: FULL -> THROTTLED -> SHED -> DRAINING.

The gateway's answer to the session layer's health machine: a small,
fully-observable state machine that reacts to load instead of decode
quality.  Two watermarked signals drive it -- aggregate intake depth
and the real-time factor -- with hysteresis (separate high/low
watermarks) and patience (consecutive observations before a step) so
transient spikes do not flap the service.

Rungs mean, in order:

- **FULL**       -- admit everything the token bucket allows;
- **THROTTLED**  -- refill the bucket at ``throttle_factor`` of the
  configured rate (admission slows, nothing is lost);
- **SHED**       -- additionally drop queued intake of the
  lowest-priority streams, counted and observable, until the
  aggregate depth falls back to the low watermark;
- **DRAINING**   -- admit nothing; reached only by :meth:`force`
  (worker drain/migration, shutdown), never by load alone.

Observed transitions move one rung at a time; :meth:`force` may jump
(its transitions are flagged ``forced`` in :attr:`transitions`).
"""

from __future__ import annotations

import enum
from typing import List, Tuple

__all__ = ["GatewayState", "DegradationLadder"]


class GatewayState(enum.Enum):
    """One rung of the gateway degradation ladder, declared mild to severe
    (the order the ladder steps in)."""

    FULL = "full"
    THROTTLED = "throttled"
    SHED = "shed"
    DRAINING = "draining"


#: Rung order, mild to severe: the enum's declaration order.
#: ``observe`` walks adjacent rungs only and never enters DRAINING on
#: its own.
_RUNGS: Tuple[GatewayState, ...] = tuple(GatewayState)


class DegradationLadder:
    """Watermark-and-patience state machine over the gateway rungs."""

    def __init__(
        self,
        queue_high: int,
        queue_low: int,
        rtf_high: float,
        rtf_low: float,
        patience: int = 3,
    ) -> None:
        if not 0 <= queue_low < queue_high:
            raise ValueError("need 0 <= queue_low < queue_high")
        if not 0.0 <= rtf_low < rtf_high:
            raise ValueError("need 0 <= rtf_low < rtf_high")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.queue_high = int(queue_high)
        self.queue_low = int(queue_low)
        self.rtf_high = float(rtf_high)
        self.rtf_low = float(rtf_low)
        self.patience = int(patience)
        self.state = GatewayState.FULL
        #: Every transition taken: ``(from, to, forced)`` in order.
        self.transitions: List[Tuple[GatewayState, GatewayState, bool]] = []
        self._hot = 0
        self._cool = 0
        self._forced = False

    @property
    def rung(self) -> int:
        """Index of the current rung (0 = FULL)."""
        return _RUNGS.index(self.state)

    def observe(self, queue_depth: int, rtf: float) -> GatewayState:
        """Feed one load observation; returns the (possibly new) state.

        A *hot* observation has either signal at or above its high
        watermark; a *cool* one has both at or below their lows.
        ``patience`` consecutive hot observations step one rung worse
        (capped at SHED); the same count of cool ones steps one rung
        better.  Mixed observations reset both counters -- the ladder
        only moves on sustained evidence.
        """
        if self._forced:
            return self.state
        hot = queue_depth >= self.queue_high or rtf >= self.rtf_high
        cool = queue_depth <= self.queue_low and rtf <= self.rtf_low
        if hot:
            self._hot += 1
            self._cool = 0
        elif cool:
            self._cool += 1
            self._hot = 0
        else:
            self._hot = 0
            self._cool = 0
        if self._hot >= self.patience and self.state not in (
            GatewayState.SHED,
            GatewayState.DRAINING,
        ):
            self._step(_RUNGS[self.rung + 1])
            self._hot = 0
        elif self._cool >= self.patience and self.state is not GatewayState.FULL:
            self._step(_RUNGS[self.rung - 1])
            self._cool = 0
        return self.state

    def force(self, state: GatewayState) -> None:
        """Pin the ladder to *state* (e.g. DRAINING during a migrate).

        While pinned, :meth:`observe` records nothing and moves
        nowhere; :meth:`release` unpins.
        """
        if state is not self.state:
            self._step(state, forced=True)
        self._forced = True
        self._hot = 0
        self._cool = 0

    def release(self, state: GatewayState = GatewayState.FULL) -> None:
        """Unpin a :meth:`force`, landing on *state* (default FULL)."""
        self._forced = False
        if state is not self.state:
            self._step(state, forced=True)

    def _step(self, to: GatewayState, forced: bool = False) -> None:
        self.transitions.append((self.state, to, forced))
        self.state = to
