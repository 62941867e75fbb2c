"""ShmRing: slot ownership, bounds, growth and cross-mapping visibility.

The ring owns its claimed-slot set, so every misuse of the slot
protocol -- a leak, a double or foreign release, an oversized chunk,
unlinking before closing -- is either impossible through the API or
raises at the call.  A full ring grows by one segment instead of
refusing a chunk, and a worker-side mapping follows it by name.
"""

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.farm import ShmRing


@pytest.fixture()
def ring():
    r = ShmRing(slots=4, slot_samples=16)
    yield r
    r.close()


class TestLifecycle:
    def test_claim_write_view_roundtrip(self, ring):
        chunk = np.arange(10, dtype=np.complex128) + 1j
        slot = ring.put(chunk)
        np.testing.assert_array_equal(ring.view(slot, chunk.size), chunk)

    def test_view_is_zero_copy(self, ring):
        slot = ring.put(np.ones(4, dtype=np.complex128))
        view = ring.view(slot, 4)
        assert view.base is not None  # a view into the slab, not a copy

    def test_free_slot_accounting(self, ring):
        assert ring.free_slots == 4
        assert ring.occupancy == 0
        slot = ring.put(np.zeros(1, dtype=np.complex128))
        assert ring.free_slots == 3
        assert ring.occupancy == 1
        ring.release(slot)
        assert ring.free_slots == 4
        assert ring.occupancy == 0

    def test_put_past_capacity_returns_fresh_slots(self, ring):
        first = [ring.put(np.zeros(1, dtype=np.complex128)) for _ in range(4)]
        assert ring.full and ring.capacity == 4
        grown = [ring.put(np.full(2, k, dtype=np.complex128)) for k in range(5)]
        # One segment of the starting size per growth, fresh ids only.
        assert sorted(first) == [0, 1, 2, 3]
        assert sorted(grown[:4]) == [4, 5, 6, 7]
        assert 8 <= grown[4] < 12
        assert ring.capacity == 12
        assert ring.occupancy == 9
        assert ring.free_slots == 3
        for k, slot in enumerate(grown):
            np.testing.assert_array_equal(ring.view(slot, 2), [k, k])

    def test_oversized_write_raises(self, ring):
        with pytest.raises(ValueError, match="exceeds slot size"):
            ring.put(np.zeros(17, dtype=np.complex128))
        # Validation precedes the claim: nothing leaked.
        assert ring.free_slots == 4
        assert ring.occupancy == 0


class TestOwnership:
    def test_double_release_raises(self, ring):
        slot = ring.put(np.zeros(1, dtype=np.complex128))
        ring.release(slot)
        with pytest.raises(ValueError, match="not claimed"):
            ring.release(slot)
        assert ring.free_slots == 4

    def test_release_of_unclaimed_slot_raises(self, ring):
        with pytest.raises(ValueError, match="not claimed"):
            ring.release(2)
        with pytest.raises(ValueError, match="not claimed"):
            ring.release(99)  # an index this ring never had
        assert ring.free_slots == 4

    def test_reclaim_returns_exactly_the_inflight_slots(self, ring):
        slots = [ring.put(np.zeros(1, dtype=np.complex128)) for _ in range(3)]
        ring.release(slots[1])
        assert ring.reclaim() == sorted([slots[0], slots[2]])
        assert ring.free_slots == 4
        assert ring.occupancy == 0
        assert ring.reclaim() == []
        # Reclaimed slots are claimable again, each exactly once.
        again = {ring.put(np.zeros(1, dtype=np.complex128)) for _ in range(4)}
        assert again == {0, 1, 2, 3}


class TestTeardown:
    def test_owner_close_removes_the_segment(self):
        r = ShmRing(slots=2, slot_samples=8)
        name = r.name
        r.put(np.ones(3, dtype=np.complex128))  # in-flight slots do not block teardown
        r.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self):
        r = ShmRing(slots=2, slot_samples=8)
        r.close()
        r.close()


class TestAttach:
    def test_attached_mapping_sees_parent_writes(self, ring):
        chunk = np.linspace(0, 1, 8).astype(np.complex128) * (1 - 2j)
        slot = ring.put(chunk)
        other = ShmRing.attach(ring.name, 4, 16)
        try:
            np.testing.assert_array_equal(other.view(slot, 8), chunk)
        finally:
            other.close()

    def test_attached_ring_does_not_unlink(self, ring):
        other = ShmRing.attach(ring.name, 4, 16)
        other.close()  # non-owner: unmaps only
        # The segment must still be writable through the owner.
        slot = ring.put(np.ones(1, dtype=np.complex128))
        np.testing.assert_array_equal(ring.view(slot, 1), np.ones(1))

    def test_attached_ring_owns_no_slots(self, ring):
        other = ShmRing.attach(ring.name, 4, 16)
        try:
            assert other.free_slots == 0
            with pytest.raises(RuntimeError, match="no free ring slot"):
                other.put(np.zeros(1, dtype=np.complex128))
        finally:
            other.close()



def _segment_files(ring):
    """Names under ``/dev/shm`` that belong to *ring*'s segments."""
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith(ring.name))


class TestGrowth:
    def test_attached_ring_reads_a_grown_segment(self, ring):
        other = ShmRing.attach(ring.name, 4, 16)
        try:
            for _ in range(4):
                ring.put(np.zeros(1, dtype=np.complex128))
            chunk = np.arange(7, dtype=np.complex128) * (2 - 1j)
            slot = ring.put(chunk)  # the first slot of the second segment
            assert slot >= 4
            # The attached side maps the new segment on first sight.
            np.testing.assert_array_equal(other.view(slot, 7), chunk)
            assert other.capacity == ring.capacity == 8
        finally:
            other.close()

    def test_reclaim_spans_segments(self, ring):
        slots = [ring.put(np.zeros(1, dtype=np.complex128)) for _ in range(10)]
        ring.release(slots[0])
        ring.release(slots[9])
        assert ring.reclaim() == sorted(slots[1:9])
        assert ring.occupancy == 0
        assert ring.free_slots == ring.capacity == 12

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_close_leaves_no_segment_behind(self):
        r = ShmRing(slots=2, slot_samples=8)
        for _ in range(7):
            r.put(np.ones(1, dtype=np.complex128))
        assert len(_segment_files(r)) == 4
        attached = ShmRing.attach(r.name, 2, 8)
        attached.view(6, 1)  # maps every segment
        attached.close()
        assert len(_segment_files(r)) == 4  # a worker's close unlinks nothing
        r.close()
        assert _segment_files(r) == []
