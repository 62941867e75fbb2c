"""Construction-time configuration of the parallel decode farm.

Two small, picklable records cross the process boundary at startup:

- :class:`SessionSpec` -- everything a worker needs to (re)build one
  supervised session: its id, the :class:`~repro.sim.network.CbmaConfig`
  that pins the PHY/code book, and the optional supervision policy.
  IQ samples never travel this way (they go through the shared-memory
  ring); specs do, once, at placement time.
- :class:`FarmConfig` -- the farm's own knobs: worker count and ring
  geometry (starting slots, samples per slot).  Ring slots hold
  ``complex128`` samples, the one dtype of the sample path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.receiver.session import SessionConfig
from repro.sim.network import CbmaConfig

__all__ = ["FarmConfig", "SessionSpec"]


@dataclass(frozen=True)
class SessionSpec:
    """One session to place on the farm.

    Attributes
    ----------
    session_id:
        Unique integer id; also the key frames and stats come back
        under.
    config:
        The :class:`~repro.sim.network.CbmaConfig` the worker hands to
        :meth:`SessionSupervisor.from_config`.  Sessions whose configs
        produce the same code book and frame format share one memoised
        :class:`~repro.utils.correlation_batch.TemplateBank` inside a
        worker, which is what makes cross-session gate batching kick
        in.
    session:
        Optional :class:`~repro.receiver.session.SessionConfig`
        supervision policy (``None`` = defaults).
    """

    session_id: int
    config: CbmaConfig
    session: Optional[SessionConfig] = None

    def __post_init__(self) -> None:
        if self.session_id < 0:
            raise ValueError("session_id must be >= 0")


@dataclass(frozen=True)
class FarmConfig:
    """Tuning knobs of a :class:`~repro.farm.DecodeFarm`.

    Attributes
    ----------
    n_workers:
        Worker processes (or inline worker cores).
    ring_slots:
        Starting capacity, in slots, of each worker process's
        shared-memory ring (an inline worker's ring is never full).
        A ``feed`` that finds every slot taken does not wait for the
        worker: the ring maps one more segment of this many slots
        (counted under ``farm.slot_waits``).  A ring never shrinks
        while the farm is open, so its size is the most slots ever in
        flight to that worker between two commands -- which the
        caller's own dispatch bounds, e.g. the gateway's step budget
        (``dispatch_budget`` = 96 chunks in its soak).
    ring_slot_samples:
        Samples per ring slot.  On both backends a chunk larger than
        one slot is split across slots -- safe because session decode
        output is invariant to chunking cadence -- so per-chunk stats
        (``session.quarantined``) follow the split cadence.  A
        sequential :class:`~repro.receiver.session.SessionSupervisor`
        fed whole chunks does not split them: size slots to your chunk
        size when comparing stats against one.  A single-precision
        chunk is widened as it is copied into a shared-memory slot.

    Each worker always batches the pre-gate across co-resident
    sessions that share a template bank and window length; the
    batched kernel computes rows independently, so this is
    bit-identical to gating each session on its own.
    """

    n_workers: int = 2
    ring_slots: int = 8
    ring_slot_samples: int = 1 << 16

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.ring_slots < 2:
            raise ValueError("ring_slots must be >= 2 (one in flight, one filling)")
        if self.ring_slot_samples < 1:
            raise ValueError("ring_slot_samples must be >= 1")
