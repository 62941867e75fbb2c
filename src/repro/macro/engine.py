"""The fleet-scale event engine.

One simulation step is a *window* (one frame airtime).  Per window the
engine injects arrivals through a :mod:`repro.sim.traffic` model (one
vectorised draw covering the whole fleet), lets every backlogged tag
whose backoff timer expired transmit, and resolves each transmission
against the calibrated :class:`~repro.macro.linkmodel.FerSurface`
instead of decoding samples -- the design that turns a ~25 ms/round
sample-domain simulation into ~10^6 transmission events per second and
makes 10^5-10^6 tags tractable.

Per-tag hot state (backlog depth, head-of-line arrival time/attempts,
backoff window, retransmission timer) lives in flat numpy arrays;
Python-level objects appear only for the rare tags whose queue holds
more than the head message.  The reliability semantics mirror
:class:`repro.mac.arq.ArqSimulator` exactly -- stop-and-wait with a
retry limit, contention-window backoff
(:mod:`repro.macro.backoff`), ACK loss turning deliveries into
duplicates (deduped, never double-counted), tail-drop at the queue
cap -- which is what makes the macro tier directly
cross-validatable against the sample-domain tier
(:func:`repro.macro.scenarios.cross_validate`).

Access modes:

- **slotted** -- every same-window transmission is concurrent: the
  surface is consulted at ``k =`` window occupancy;
- **unslotted** -- each transmission starts at a uniform offset inside
  its window and ``k`` counts only the transmissions whose airtime
  actually overlaps (including the previous window's tail), so light
  load behaves like ALOHA instead of worst-case collision.

Determinism: one seeded generator drives arrivals, link draws, ACK
draws and backoff delays in a fixed order; same seed, same config,
same surface => identical :class:`MacroStats`, bit for bit.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Union

import numpy as np

from repro.macro.backoff import make_backoff
from repro.macro.calibration import geometry_snr_db
from repro.macro.linkmodel import FerSurface
from repro.obs.taxonomy import C, G, S
from repro.obs.tracer import as_tracer
from repro.utils.rng import make_rng, spawn_seed

__all__ = ["MacroConfig", "MacroStats", "MacroSimulator"]

#: Latency reservoir size: percentiles stay exact until this many
#: deliveries, then uniform reservoir sampling keeps memory flat.
_LATENCY_RESERVOIR = 65536


@dataclass
class MacroConfig:
    """Tunables of one macro-tier run.

    ``traffic=None`` selects *saturated* mode: every tag always holds a
    frame (the regime the sample-domain tier measures FER in, used by
    cross-validation).  ``snr_db`` fixes the per-tag link quality
    directly (scalar or one value per tag); when ``None`` it is derived
    from ``distance_m`` through the same analytic link budget the
    calibration labelled its axis with.
    """

    n_tags: int = 1000
    traffic: Optional[Any] = None
    slotted: bool = True
    slot_s: Optional[float] = None
    """Window/airtime length; ``None`` reads ``frame_duration_s`` from
    the surface's provenance (the calibrated PHY's frame airtime)."""
    distance_m: float = 1.0
    snr_db: Optional[Union[float, np.ndarray]] = None
    backoff: Union[str, Any] = "beb"
    backoff_params: Dict[str, Any] = field(default_factory=dict)
    max_retries: int = 8
    max_queue: int = 32
    ack_loss_prob: float = 0.0
    payload_bytes: int = 16
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_tags < 1:
            raise ValueError("n_tags must be >= 1")
        if self.max_retries < 1 or self.max_queue < 1:
            raise ValueError("max_retries and max_queue must be >= 1")
        if not 0.0 <= self.ack_loss_prob <= 1.0:
            raise ValueError("ack_loss_prob must be in [0, 1]")
        if self.slot_s is not None and self.slot_s <= 0:
            raise ValueError("slot_s must be positive")


@dataclass
class MacroStats:
    """Aggregate outcome of a macro run (mirrors
    :class:`repro.mac.arq.ArqStats` where the semantics coincide)."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicates: int = 0
    acks_lost: int = 0
    transmissions: int = 0
    link_failures: int = 0
    """Transmission attempts the FER surface failed (the macro tier's
    collision/noise losses, counted as ``macro.collisions``)."""
    windows: int = 0
    elapsed_s: float = 0.0
    wall_s: float = 0.0
    peak_backlog: int = 0
    final_backlog: int = 0
    latencies_s: List[float] = field(default_factory=list)
    """Reservoir sample of delivery latencies (exact until
    ``_LATENCY_RESERVOIR`` deliveries)."""
    latency_seen: int = 0

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.offered if self.offered else 1.0

    @property
    def link_fer(self) -> float:
        return self.link_failures / self.transmissions if self.transmissions else 0.0

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latencies_s)) if self.latencies_s else 0.0

    @property
    def p95_latency_s(self) -> float:
        return float(np.percentile(self.latencies_s, 95)) if self.latencies_s else 0.0

    @property
    def events(self) -> int:
        """Arrival + transmission events the engine processed."""
        return self.offered + self.transmissions

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def goodput_bps(self, payload_bits: int) -> float:
        """Delivered application bits per simulated second."""
        return self.delivered * payload_bits / self.elapsed_s if self.elapsed_s else 0.0


class MacroSimulator:
    """Event-driven fleet simulator over a calibrated link surface.

    Parameters
    ----------
    config:
        :class:`MacroConfig`; a ``backoff`` given by name is resolved
        through :func:`repro.macro.backoff.make_backoff`.
    surface:
        The calibrated :class:`~repro.macro.linkmodel.FerSurface`.
    tracer:
        Optional :class:`repro.obs.Tracer`; the run is wrapped in a
        ``macro_run`` span and the ``macro.*`` counters/gauges are
        emitted once, aggregated, at the end (never per event).
    """

    def __init__(self, config: MacroConfig, surface: FerSurface, tracer=None):
        self.config = config
        self.surface = surface
        self.tracer = as_tracer(tracer)
        self.backoff = (
            make_backoff(config.backoff, **config.backoff_params)
            if isinstance(config.backoff, str)
            else config.backoff
        )
        self.rng = make_rng(config.seed)
        self._reservoir_rng = make_rng(spawn_seed(self.rng))
        n = config.n_tags
        if config.snr_db is None:
            snr = geometry_snr_db(config.distance_m)
        else:
            snr = config.snr_db
        self.snr_db = np.broadcast_to(
            np.asarray(snr, dtype=np.float64), (n,)
        ).copy()
        self.slot_s = (
            config.slot_s
            if config.slot_s is not None
            else float(surface.provenance.get("frame_duration_s", 1e-2))
        )
        if hasattr(config.traffic, "reset"):
            config.traffic.reset()
        # --- per-tag hot state, flat arrays -------------------------------
        self._backlog = np.zeros(n, dtype=np.int64)
        self._head_arrival = np.zeros(n, dtype=np.float64)
        self._head_attempts = np.zeros(n, dtype=np.int64)
        self._head_delivered = np.zeros(n, dtype=bool)
        self._next_slot = np.zeros(n, dtype=np.int64)
        self._cw = np.full(n, self.backoff.initial_cw(), dtype=np.float64)
        #: Arrival times queued *behind* the head, only for the rare
        #: tags holding more than one message.
        self._queues: Dict[int, Deque[float]] = {}
        self._prev_starts = np.empty(0, dtype=np.float64)
        #: Absolute window cursor; survives across :meth:`run` calls so
        #: a scenario can advance the same fleet in segments.
        self._slot = 0

    @classmethod
    def from_config(
        cls,
        config: MacroConfig,
        surface: Union[FerSurface, str],
        tracer=None,
    ) -> "MacroSimulator":
        """Build a simulator, loading *surface* from a path if given as
        one (the CLI/bench entry point)."""
        if not isinstance(surface, FerSurface):
            surface = FerSurface.load(surface)
        return cls(config, surface, tracer=tracer)

    # ------------------------------------------------------------------
    # Arrival injection
    # ------------------------------------------------------------------

    def _saturate(self, stats: MacroStats, now: float) -> None:
        """Saturated mode: refill every idle tag with a fresh frame."""
        idle = self._backlog == 0
        n_new = int(idle.sum())
        if n_new == 0:
            return
        stats.offered += n_new
        self._backlog[idle] = 1
        self._head_arrival[idle] = now
        self._head_attempts[idle] = 0
        self._head_delivered[idle] = False

    def _inject(self, stats: MacroStats, t: int, now: float) -> None:
        cfg = self.config
        if cfg.traffic is None:
            self._saturate(stats, now)
            return
        counts = np.asarray(cfg.traffic.draw(cfg.n_tags, self.slot_s, self.rng))
        nz = np.nonzero(counts)[0]
        if nz.size == 0:
            return
        stats.offered += int(counts[nz].sum())
        # Fast path: exactly one arrival at an idle tag (the vast
        # majority, including a whole fire-ring storm) is pure numpy.
        one_idle = (counts[nz] == 1) & (self._backlog[nz] == 0)
        simple, rest = nz[one_idle], nz[~one_idle]
        if simple.size:
            self._backlog[simple] = 1
            self._head_arrival[simple] = now
            self._head_attempts[simple] = 0
            self._head_delivered[simple] = False
            self._next_slot[simple] = np.maximum(self._next_slot[simple], t)
        for i in rest:
            i = int(i)
            c = int(counts[i])
            room = cfg.max_queue - int(self._backlog[i])
            take = min(c, room)
            stats.dropped += c - take
            if take <= 0:
                continue
            if self._backlog[i] == 0:
                self._head_arrival[i] = now
                self._head_attempts[i] = 0
                self._head_delivered[i] = False
                self._next_slot[i] = max(int(self._next_slot[i]), t)
                extra = take - 1
            else:
                extra = take
            if extra:
                self._queues.setdefault(i, deque()).extend([now] * extra)
            self._backlog[i] += take

    # ------------------------------------------------------------------
    # Head-of-line queue maintenance
    # ------------------------------------------------------------------

    def _pop_heads(self, tags: np.ndarray, stats: MacroStats, t: int, now: float) -> None:
        """Retire the head message of every tag in *tags* and promote
        the next queued arrival (if any) to head-of-line."""
        if tags.size == 0:
            return
        self._head_attempts[tags] = 0
        self._head_delivered[tags] = False
        if self.config.traffic is None:
            # Saturated: the queue never drains -- a fresh frame
            # replaces the retired one immediately.
            stats.offered += tags.size
            self._head_arrival[tags] = now
        else:
            self._backlog[tags] -= 1
            refill = tags[self._backlog[tags] > 0]
            for i in refill:
                i = int(i)
                q = self._queues[i]
                self._head_arrival[i] = q.popleft()
                if not q:
                    del self._queues[i]
        self._next_slot[tags] = t + 1

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _concurrency(self, active: np.ndarray, now: float) -> np.ndarray:
        """Per-transmission concurrency *k* (including self)."""
        k = active.size
        if self.config.slotted:
            return np.full(k, float(k))
        # Unslotted: each transmission starts at a uniform offset in
        # the window; k counts airtime-overlapping starts, including
        # the previous window's tail.
        starts = np.sort(now + self.rng.random(k) * self.slot_s)
        air = self.slot_s
        tail = self._prev_starts[self._prev_starts > now - air]
        pool = np.concatenate([tail, starts]) if tail.size else starts
        lo = np.searchsorted(pool, starts - air, side="right")
        hi = np.searchsorted(pool, starts + air, side="left")
        self._prev_starts = starts
        return np.maximum(hi - lo, 1).astype(np.float64)

    def _record_latencies(self, values: np.ndarray, stats: MacroStats) -> None:
        for v in values:
            stats.latency_seen += 1
            if len(stats.latencies_s) < _LATENCY_RESERVOIR:
                stats.latencies_s.append(float(v))
            else:
                j = int(self._reservoir_rng.integers(0, stats.latency_seen))
                if j < _LATENCY_RESERVOIR:
                    stats.latencies_s[j] = float(v)

    def run(self, n_slots: int) -> MacroStats:
        """Simulate *n_slots* windows; returns the aggregate stats."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        cfg = self.config
        stats = MacroStats()
        t0 = time.perf_counter()
        tracer = self.tracer
        with tracer.span(S.MACRO_RUN, tags=cfg.n_tags, slots=n_slots):
            for t in range(self._slot, self._slot + n_slots):
                now = t * self.slot_s
                self._inject(stats, t, now)
                stats.windows += 1
                active = np.nonzero((self._backlog > 0) & (self._next_slot <= t))[0]
                if active.size:
                    self._step_transmissions(active, stats, t, now)
                backlog_total = int(self._backlog.sum())
                stats.peak_backlog = max(stats.peak_backlog, backlog_total)
                stats.elapsed_s += self.slot_s
            self._slot += n_slots
            stats.final_backlog = int(self._backlog.sum())
        stats.wall_s = time.perf_counter() - t0
        if tracer.enabled:
            tracer.count(C.MACRO_OFFERED, stats.offered)
            tracer.count(C.MACRO_DELIVERED, stats.delivered)
            tracer.count(C.MACRO_DROPPED, stats.dropped)
            tracer.count(C.MACRO_DUPLICATES, stats.duplicates)
            tracer.count(C.MACRO_ACKS_LOST, stats.acks_lost)
            tracer.count(C.MACRO_TRANSMISSIONS, stats.transmissions)
            tracer.count(C.MACRO_COLLISIONS, stats.link_failures)
            tracer.count(C.MACRO_WINDOWS, stats.windows)
            tracer.gauge(G.MACRO_BACKLOG, stats.final_backlog)
            tracer.gauge(G.MACRO_FER, stats.link_fer)
            tracer.gauge(G.MACRO_EVENTS_PER_SEC, stats.events_per_sec)
        return stats

    def _step_transmissions(
        self, active: np.ndarray, stats: MacroStats, t: int, now: float
    ) -> None:
        rng = self.rng
        k_per_tx = self._concurrency(active, now)
        fer = self.surface.fer_at(self.snr_db[active], k_per_tx)
        stats.transmissions += active.size
        fail = rng.random(active.size) < fer
        stats.link_failures += int(fail.sum())
        success = active[~fail]

        # Deliveries: dedupe retransmits of an already-delivered head
        # (the receiver saw the sequence number before).
        dup_mask = self._head_delivered[success]
        stats.duplicates += int(dup_mask.sum())
        fresh = success[~dup_mask]
        stats.delivered += fresh.size
        if fresh.size:
            self._record_latencies(
                now + self.slot_s - self._head_arrival[fresh], stats
            )
        # The downlink ACK: lost ACKs keep the (now delivered) head
        # queued, so the tag retries like any failure.
        if cfg_ack := self.config.ack_loss_prob:
            ack_lost = rng.random(success.size) < cfg_ack
        else:
            ack_lost = np.zeros(success.size, dtype=bool)
        stats.acks_lost += int(ack_lost.sum())
        self._head_delivered[fresh] = True
        acked = success[~ack_lost]
        self._cw[acked] = self.backoff.on_success(self._cw[acked])
        self._pop_heads(acked, stats, t, now)

        # Failure path: real link failures plus ACK-lost successes.
        retry_set = np.concatenate([active[fail], success[ack_lost]])
        if retry_set.size == 0:
            return
        retry_set = np.sort(retry_set)
        self._head_attempts[retry_set] += 1
        exhausted = retry_set[self._head_attempts[retry_set] >= self.config.max_retries]
        retry = retry_set[self._head_attempts[retry_set] < self.config.max_retries]
        if exhausted.size:
            # A head that was delivered but never acked is not data
            # loss -- only undelivered heads count as drops.
            stats.dropped += int((~self._head_delivered[exhausted]).sum())
            self._pop_heads(exhausted, stats, t, now)
        if retry.size:
            self._cw[retry] = self.backoff.on_failure(
                self._cw[retry], self._head_attempts[retry]
            )
            delays = self.backoff.delay_slots(self._cw[retry], rng)
            self._next_slot[retry] = t + 1 + np.asarray(delays, dtype=np.int64)
