"""Shared-memory sample ring: zero-copy IQ transport to workers.

Pickling a multi-megabyte complex chunk per feed would serialise the
whole sample stream through a pipe.  Instead each worker owns one
:class:`ShmRing` -- a ``multiprocessing.shared_memory`` slab carved
into fixed-size slots.  The parent writes a chunk into a free slot and
sends only ``(sid, slot, n_samples)`` over the command queue; the worker
maps the same slab and hands the session a numpy **view** of the slot.
``SessionSupervisor.ingest`` copies the view into its own buffer (its
documented contract), so the slot is free for reuse the moment the
worker acknowledges the feed.  Slots hold ``complex128`` samples;
``put`` widens a single-precision chunk as it copies it in.

Slot lifecycle (the parent's ring owns the claimed set; no shared
locks):

1. parent: ``put(chunk)`` validates the chunk, claims a free slot and
   writes it -- an oversized chunk claims nothing -- and queues
   ``(sid, slot, n)`` for the worker;
2. parent -> worker: the next command to the worker (``pump``,
   ``finish``, ``drain``, ...) carries every queued ``(sid, slot, n)``;
3. worker: ``view(slot, n)`` -> ``session.ingest`` (copies), for each
   carried feed, before it runs the command;
4. worker -> parent: the command's reply lists the carried slots;
5. parent: ``release(slot)`` returns each to the free list -- releasing
   a slot that is not claimed (twice, or a foreign index) raises;
6. crash recovery: ``reclaim()`` frees every claimed slot at once.

When no slot is free the parent sends the queued feeds on their own
(an ``ingest`` command, answered by one ``free`` reply) and blocks
harvesting worker results: that is the farm's ingest backpressure,
counted under ``farm.slot_waits``.  Teardown is one :meth:`ShmRing.close`, which
also unlinks the segment on the owning side.

The inline transport runs the same lifecycle on a :class:`RefRing`,
which holds each fed piece by reference: never full, no copy.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Set

import numpy as np

__all__ = ["RefRing", "ShmRing"]

#: The sample dtype of every slot.
_DTYPE = np.dtype(np.complex128)


class ShmRing:
    """One worker's shared-memory slot ring.

    Create in the parent (allocates the segment and owns the slots),
    :meth:`attach` in the worker (maps the same segment by name and
    only reads views).  :meth:`close` unmaps; on the owner it also
    removes the segment.
    """

    def __init__(self, slots: int, slot_samples: int) -> None:
        nbytes = int(slots) * int(slot_samples) * _DTYPE.itemsize
        self._map(slots, slot_samples, shared_memory.SharedMemory(create=True, size=nbytes))
        self._owner = True
        self._free: List[int] = list(range(self.slots))

    @classmethod
    def attach(cls, name: str, slots: int, slot_samples: int) -> "ShmRing":
        """Map an existing ring by name (worker side)."""
        ring = cls.__new__(cls)
        ring._map(slots, slot_samples, shared_memory.SharedMemory(name=name))
        ring._owner = False
        ring._free = []
        return ring

    def _map(self, slots: int, slot_samples: int, shm: shared_memory.SharedMemory) -> None:
        self.slots = int(slots)
        self.slot_samples = int(slot_samples)
        self._shm = shm
        self._grid = np.ndarray((self.slots, self.slot_samples), dtype=_DTYPE, buffer=shm.buf)
        self._claimed: Set[int] = set()
        self._closed = False

    @property
    def name(self) -> str:
        """OS name of the segment (workers attach by this)."""
        return self._shm.name

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def full(self) -> bool:
        return not self._free

    @property
    def occupancy(self) -> int:
        """Slots currently claimed (queued for or in flight to a worker)."""
        return len(self._claimed)

    # --- parent side ----------------------------------------------------

    def put(self, chunk: np.ndarray) -> int:
        """Copy *chunk* (1-D, <= slot_samples) into a free slot; returns it.

        Raises ``ValueError`` for an oversized chunk and
        ``RuntimeError`` when no slot is free (the caller harvests
        first); either way no slot is claimed.
        """
        n = int(chunk.size)
        if n > self.slot_samples:
            raise ValueError(
                f"chunk of {n} samples exceeds slot size {self.slot_samples}"
            )
        if not self._free:
            raise RuntimeError("no free ring slot (harvest worker results first)")
        slot = self._free.pop()
        self._claimed.add(slot)
        self._grid[slot, :n] = chunk
        return slot

    def release(self, slot: int) -> None:
        """Return a worker-acknowledged slot to the free list.

        Raises ``ValueError`` when *slot* is not claimed -- a double
        release or an index this ring never handed out.
        """
        slot = int(slot)
        if slot not in self._claimed:
            raise ValueError(f"ring slot {slot} is not claimed (double release?)")
        self._claimed.remove(slot)
        self._free.append(slot)

    def reclaim(self) -> List[int]:
        """Free every claimed slot (crash recovery); returns them sorted."""
        slots = sorted(self._claimed)
        for slot in slots:
            self.release(slot)
        return slots

    # --- worker side ----------------------------------------------------

    def view(self, slot: int, n: int) -> np.ndarray:
        """Zero-copy view of the first *n* samples of *slot*.

        Valid only until the slot is freed; consumers must copy
        (``SessionSupervisor.ingest`` does).
        """
        return self._grid[slot, :n]

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment; the owner also removes it (idempotent).

        The owner must call this only after its workers exited.
        """
        if self._closed:
            return
        self._closed = True
        self._grid = np.empty((0, 0), dtype=_DTYPE)  # drop the buffer export
        self._shm.close()
        if self._owner:
            self._shm.unlink()


class RefRing:
    """The inline transport's ring: each slot holds a fed piece by reference.

    :class:`ShmRing`'s ``put`` / ``view`` / ``release`` over a dict, with
    no shared memory; a piece must stay unchanged until its worker
    ingests it (:meth:`repro.farm.DecodeFarm.feed`).
    """

    full = False

    def __init__(self, slot_samples: int) -> None:
        self.slot_samples = int(slot_samples)
        self._pieces: Dict[int, np.ndarray] = {}
        self._next = 0

    @property
    def occupancy(self) -> int:
        return len(self._pieces)

    def put(self, chunk: np.ndarray) -> int:
        slot, self._next = self._next, self._next + 1
        self._pieces[slot] = chunk
        return slot

    def view(self, slot: int, n: int) -> np.ndarray:
        return self._pieces[slot]

    def release(self, slot: int) -> None:
        del self._pieces[slot]

    def close(self) -> None:
        self._pieces.clear()
