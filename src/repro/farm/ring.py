"""Shared-memory sample ring: zero-copy IQ transport to workers.

Pickling a multi-megabyte complex chunk per feed would serialise the
whole sample stream through a pipe.  Instead each worker owns one
:class:`ShmRing` -- ``multiprocessing.shared_memory`` segments carved
into fixed-size slots.  The parent writes a chunk into a free slot and
sends only ``(sid, slot, n_samples)`` over the command queue; the worker
maps the same segment and hands the session a numpy **view** of the
slot.  ``SessionSupervisor.ingest`` copies the view into its own buffer
(its documented contract), so the slot is free for reuse the moment the
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
6. crash recovery: ``reclaim()`` frees every claimed slot, in every
   segment, at once.

A ring never makes its parent wait.  When ``put`` finds every slot
taken, the ring maps one more segment of the starting size and hands
out its slots (the farm counts this under ``farm.slot_waits``).  Slot
ids stay plain ints numbered across segments, so a slot's row is one
list index away.  Segment *k* > 0 is named ``<name>_<k>`` after the
first, and a worker maps it the first time a feed names one of its
slots, so growth sends no message.  A ring never shrinks while it is
open: its capacity is the most slots ever in flight to its worker
between two commands, which the caller's own dispatch bounds (the
gateway feeds at most its step budget of chunks between two pumps).
Teardown is one :meth:`ShmRing.close`, which unmaps every segment and,
on the owning side, removes each.

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

    Create in the parent (maps the first segment of *slots* slots and
    owns the slots; grows by segments of that size),
    :meth:`attach` in the worker (maps the same segments by name, each
    when a slot in it is first viewed, and only reads views).
    :meth:`close` unmaps; on the owner it also removes the segments.
    """

    def __init__(self, slots: int, slot_samples: int) -> None:
        self._setup(slots, slot_samples, owner=True)
        self._grow()

    @classmethod
    def attach(cls, name: str, slots: int, slot_samples: int) -> "ShmRing":
        """Map an existing ring by its first segment's name (worker side)."""
        ring = cls.__new__(cls)
        ring._setup(slots, slot_samples, owner=False)
        ring._map(shared_memory.SharedMemory(name=name))
        return ring

    def _setup(self, slots: int, slot_samples: int, owner: bool) -> None:
        self.segment_slots = int(slots)
        self.slot_samples = int(slot_samples)
        self._owner = owner
        self._segments: List[shared_memory.SharedMemory] = []
        #: Row view of every mapped slot, indexed by slot id.
        self._rows: List[np.ndarray] = []
        self._free: List[int] = []
        self._claimed: Set[int] = set()
        self._closed = False

    def _map(self, shm: shared_memory.SharedMemory) -> None:
        self._segments.append(shm)
        grid = np.ndarray((self.segment_slots, self.slot_samples), dtype=_DTYPE, buffer=shm.buf)
        self._rows.extend(grid)

    def _grow(self) -> None:
        """Create and map one more segment; its slots join the free list."""
        nbytes = self.segment_slots * self.slot_samples * _DTYPE.itemsize
        name = f"{self.name}_{len(self._segments)}" if self._segments else None
        first = len(self._rows)
        self._map(shared_memory.SharedMemory(name=name, create=True, size=nbytes))
        self._free.extend(range(first, len(self._rows)))

    @property
    def name(self) -> str:
        """OS name of the first segment (workers attach by this)."""
        return self._segments[0].name

    @property
    def capacity(self) -> int:
        """Slots in every segment mapped so far."""
        return len(self._rows)

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

        A full owner ring grows by one segment first.  Raises
        ``ValueError`` for an oversized chunk, claiming nothing, and
        ``RuntimeError`` on an attached ring, which owns no slots.
        """
        n = int(chunk.size)
        if n > self.slot_samples:
            raise ValueError(
                f"chunk of {n} samples exceeds slot size {self.slot_samples}"
            )
        if not self._free:
            if not self._owner:
                raise RuntimeError("no free ring slot (an attached ring owns none)")
            self._grow()
        slot = self._free.pop()
        self._claimed.add(slot)
        self._rows[slot][:n] = chunk
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
        """Zero-copy view of the first *n* samples of *slot*, mapping the
        segments up to the slot's on first sight (worker side).

        Valid only until the slot is freed; consumers must copy
        (``SessionSupervisor.ingest`` does).
        """
        while slot >= len(self._rows):
            self._map(shared_memory.SharedMemory(name=f"{self.name}_{len(self._segments)}"))
        return self._rows[slot][:n]

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap every segment; the owner also removes each (idempotent).

        The owner must call this only after its workers exited.
        """
        if self._closed:
            return
        self._closed = True
        self._rows = []  # drop the buffer exports
        for shm in self._segments:
            shm.close()
            if self._owner:
                shm.unlink()


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
