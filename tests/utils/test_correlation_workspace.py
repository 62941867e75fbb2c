"""The template bank's workspace: bounded, private and allocation-free.

A warm :class:`TemplateBank` keeps every temporary of the correlation
kernel in a per-FFT-length workspace, so its steady state allocates
only the arrays it returns -- and therefore does not depend on what
the process's allocator did earlier.  These checks count bytes with
``tracemalloc``, which sees every numpy data buffer, so they do not
depend on the host.
"""

import tracemalloc

import numpy as np
import pytest

from repro.receiver.streaming import GatePieces
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.utils.correlation_batch import _BLOCK_ROWS, TemplateBank

#: What a call may allocate beyond its results: views, scalars and
#: numpy's small per-call bookkeeping -- not one plane-sized temporary.
_SLACK_BYTES = 128 * 1024


@pytest.fixture(scope="module")
def capture():
    """A quiet 4-tag soak capture (some windows live, most idle)."""
    cfg = SoakConfig(n_windows=30, n_tags=4, seed=11, traffic_rate=0.02)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    return stream, buffer


def _fresh_bank(stream, monkeypatch) -> TemplateBank:
    """Give *stream*'s detector a cold bank of its own for this test, so
    no other test's workspace is counted."""
    detector = stream.receiver.user_detector
    bank = TemplateBank(detector.bank.user_ids, detector.bank.matrix, detector.bank.samples_per_chip)
    monkeypatch.setattr(detector, "_bank", bank)
    return bank


def _windows(stream, buffer, count, widen=1):
    """*count* hop-spaced windows, wrapping round the capture, from hop 9:
    the first is idle and the second live."""
    n = stream.window_samples * widen
    hop = stream.hop_samples
    positions = (buffer.size - n) // hop + 1
    return np.stack([buffer[(9 + i) % positions * hop :][:n] for i in range(count)])


def _extra_bytes(call):
    """Peak bytes *call* allocates beyond the arrays it returns, measured
    after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - sum(r.nbytes for r in results if r is not None)


class TestSteadyStateAllocatesOnlyResults:
    @pytest.mark.parametrize("widen", [1, 2], ids=["hop", "resync"])
    def test_correlate(self, capture, widen, monkeypatch):
        stream, buffer = capture
        bank = _fresh_bank(stream, monkeypatch)
        window = _windows(stream, buffer, 1, widen)[0]
        assert _extra_bytes(lambda: [bank.correlate(window)]) < _SLACK_BYTES

    @pytest.mark.parametrize("height", [2, 8, 13])
    def test_correlate_many(self, capture, height, monkeypatch):
        stream, buffer = capture
        bank = _fresh_bank(stream, monkeypatch)
        stack = _windows(stream, buffer, height)
        assert _extra_bytes(lambda: [bank.correlate_many(stack)]) < _SLACK_BYTES

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize("height", [2, 8, 13])
    def test_windows_are_live(self, capture, height, as_list, monkeypatch):
        """A list of windows (the farm's form) is gathered block by
        block into the workspace, never stacked into one new array."""
        stream, buffer = capture
        _fresh_bank(stream, monkeypatch)
        stack = _windows(stream, buffer, height)
        if as_list:
            stack = list(stack)

        def gate():
            planes = []
            live = stream.windows_are_live(stack, planes=planes)
            return [live, *planes]

        assert 0 < sum(p is not None for p in gate()[1:]) < height
        assert _extra_bytes(gate) < _SLACK_BYTES


class TestWarmPieceGate:
    """A warm piece gate correlates one hop slice and one seam; it
    allocates the hop slice's plane, which it keeps for the next
    window, the plane of a live window, and nothing plane-sized
    besides."""

    @pytest.mark.parametrize("live", [False, True], ids=["idle", "live"])
    def test_allocates_only_its_pieces_and_plane(self, capture, live, monkeypatch):
        stream, buffer = capture
        _fresh_bank(stream, monkeypatch)
        hop, w = stream.hop_samples, stream.window_samples
        pos = next(
            p
            for p in range(2 * hop, buffer.size - w, hop)
            if stream.window_is_live(buffer[p : p + w]) == live
        )
        pieces = GatePieces()
        # Warm the plans (cold: both hop slices in one stack) and the
        # pieces, advancing as a walk does.
        stream.window_is_live(buffer[pos - 2 * hop : pos], pos=pos - 2 * hop, pieces=pieces)
        pieces.evict_before(pos - hop)
        stream.window_is_live(buffer[pos - hop : pos + hop], pos=pos - hop, pieces=pieces)
        pieces.evict_before(pos)
        assert sorted(pieces.hops) == [pos]
        planes = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert stream.window_is_live(buffer[pos : pos + w], planes=planes, pos=pos, pieces=pieces) == live
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        pieces.evict_before(pos + hop)
        assert sorted(pieces.hops) == [pos + hop] and not pieces.seams
        kept = pieces.hops[pos + hop][0].nbytes
        returned = planes[0].nbytes if live else 0
        assert peak - kept - returned < _SLACK_BYTES


class TestResultsAreFresh:
    def test_correlate_plane_survives_the_next_call(self, capture, monkeypatch):
        stream, buffer = capture
        bank = _fresh_bank(stream, monkeypatch)
        first, second = _windows(stream, buffer, 2)
        plane = bank.correlate(first)
        kept = plane.copy()
        bank.correlate(second)
        bank.correlate_many(np.stack([second] * 3))
        np.testing.assert_array_equal(plane, kept)

    def test_stacked_planes_survive_the_next_call(self, capture, monkeypatch):
        stream, buffer = capture
        bank = _fresh_bank(stream, monkeypatch)
        stack = _windows(stream, buffer, 6)
        planes = bank.correlate_many(stack)
        kept = planes.copy()
        bank.correlate_many(stack[::-1])
        bank.correlate(stack[0])
        np.testing.assert_array_equal(planes, kept)

    def test_gate_planes_survive_the_next_gate(self, capture, monkeypatch):
        stream, buffer = capture
        bank = _fresh_bank(stream, monkeypatch)
        stack = _windows(stream, buffer, 12)
        planes = []
        stream.windows_are_live(stack, planes=planes)
        live = [p for p in planes if p is not None]
        assert live
        kept = [p.copy() for p in live]
        stream.windows_are_live(stack[::-1], planes=[])
        stream.window_is_live(stack[-1], planes=[])
        for plane, copy in zip(live, kept):
            np.testing.assert_array_equal(plane, copy)


def test_workspace_is_bounded_by_one_block(capture, monkeypatch):
    """Gating stacks of every height from 1 to 48 leaves the workspace
    the size one block of a few windows needs."""
    stream, buffer = capture
    bank = _fresh_bank(stream, monkeypatch)
    tall = _windows(stream, buffer, 48)
    stream.windows_are_live(tall[:1])
    one_window = bank.workspace_nbytes
    stream.windows_are_live(tall[:_BLOCK_ROWS])
    one_block = bank.workspace_nbytes
    assert one_block == _BLOCK_ROWS * one_window
    for height in range(1, 49):
        stream.windows_are_live(tall[:height])
        bank.correlate_many(tall[:height])
    assert bank.workspace_nbytes == one_block
