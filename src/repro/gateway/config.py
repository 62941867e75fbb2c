"""Gateway policy knobs: admission, watermarks, retries, retention.

:class:`GatewayConfig` is pure policy -- *how* the gateway admits,
throttles, sheds and retries -- deliberately separate from the PHY
config (what the sessions decode) and the
:class:`~repro.farm.config.FarmConfig` (how the pool is shaped), both
of which the :class:`~repro.gateway.gateway.Gateway` takes alongside
it.  Frozen and picklable like every other config record in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GatewayConfig"]


@dataclass(frozen=True)
class GatewayConfig:
    """Admission, backpressure and degradation policy of one gateway.

    Watermark semantics mirror the session health machine: crossing
    the *high* watermark on aggregate intake depth (or real-time
    factor) for ``patience`` consecutive observations steps the
    degradation ladder one rung down; sitting below the *low*
    watermarks steps it back up.  Hysteresis (high > low) prevents
    flapping.
    """

    # -- admission -----------------------------------------------------
    token_rate: float = 256.0
    """Token-bucket refill rate, in admitted chunks per second."""
    token_burst: float = 512.0
    """Bucket capacity: the largest instantaneous burst admitted."""
    max_intake_chunks: int = 32
    """Per-stream bound on queued-but-undispatched chunks."""
    max_streams: int = 256
    """Hard cap on concurrently open streams."""

    # -- degradation-ladder watermarks ---------------------------------
    queue_high: int = 64
    """Aggregate intake depth (chunks) that reads as saturation."""
    queue_low: int = 16
    """Aggregate intake depth that reads as recovered."""
    rtf_high: float = 1.0
    """Real-time factor (decode wall seconds per stream second) that
    reads as saturation -- above 1.0 the farm is losing the race."""
    rtf_low: float = 0.5
    patience: int = 3
    """Consecutive hot/cool observations before the ladder steps."""
    throttle_factor: float = 0.5
    """Token refill multiplier while THROTTLED (or worse)."""

    # -- retry / deadline ----------------------------------------------
    backoff: str = "beb"
    """Backoff-strategy registry name (:mod:`repro.macro.backoff`)."""
    slot_s: float = 0.02
    """Seconds per backoff slot: the drawn slot count scales by this."""
    max_retries: int = 3
    """Admission attempts after the first before a submit is rejected."""
    deadline_s: float = 30.0
    """Default per-submit deadline (clock units); a retry that cannot
    complete before it is abandoned as a deadline miss."""

    # -- dispatch / measurement ----------------------------------------
    dispatch_chunks: int = 64
    """Chunks moved intake -> farm per :meth:`Gateway.step` cycle."""
    sample_rate: float = 1.0e6
    """Samples per stream-second, for the real-time-factor gauge."""
    rtf_alpha: float = 0.2
    """EWMA weight of the newest real-time-factor observation."""

    # -- elasticity ----------------------------------------------------
    retain_chunks: int = 64
    """Fed chunks retained per stream for migration gap re-feed.  Must
    cover the session's fed-but-unprocessed span (backlog bound plus
    one widened window); too small a value fails a migrate loudly
    rather than resuming from a gap."""

    def __post_init__(self) -> None:
        if self.token_rate <= 0.0 or self.token_burst < 1.0:
            raise ValueError("need token_rate > 0 and token_burst >= 1")
        if self.max_intake_chunks < 1 or self.max_streams < 1:
            raise ValueError("max_intake_chunks and max_streams must be >= 1")
        if not 0 <= self.queue_low < self.queue_high:
            raise ValueError("need 0 <= queue_low < queue_high")
        if not 0.0 <= self.rtf_low < self.rtf_high:
            raise ValueError("need 0 <= rtf_low < rtf_high")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.throttle_factor <= 1.0:
            raise ValueError("throttle_factor must be in (0, 1]")
        if self.max_retries < 0 or self.slot_s < 0.0 or self.deadline_s <= 0.0:
            raise ValueError("retry/deadline parameters must be non-negative")
        if self.dispatch_chunks < 1 or self.retain_chunks < 1:
            raise ValueError("dispatch_chunks and retain_chunks must be >= 1")
        if self.sample_rate <= 0.0 or not 0.0 < self.rtf_alpha <= 1.0:
            raise ValueError("need sample_rate > 0 and rtf_alpha in (0, 1]")
