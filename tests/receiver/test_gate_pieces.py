"""The pre-gate assembles each window's plane from per-stream pieces.

A whole-hop window's correlation plane is the hop slices' planes joined
by the seam planes of the lags that straddle each hop boundary
(:class:`repro.receiver.streaming.GatePieces`).  These tests pin what
makes that an optimisation and not a behaviour change: the joined plane
equals the whole window's plane to FFT rounding, and every path that
gates a window -- the batch walk, a chunk-fed session, a restored
session, the farm's stacked gate and a lone window -- produces the same
plane bit for bit, whether its pieces were cached or not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.farm import DecodeFarm, FarmConfig
from repro.receiver.receiver import CbmaReceiver
from repro.receiver.session import SessionSupervisor
from repro.receiver.streaming import GatePieces, StreamingReceiver
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream, soak_phy_config
from repro.tag.framing import FrameFormat
from repro.utils.correlation_batch import sliding_correlation_batch


@pytest.fixture(scope="module")
def capture():
    """A busy 4-tag soak capture and the stream that decodes it."""
    cfg = SoakConfig(n_windows=30, n_tags=4, seed=11, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    return stream, buffer


def _gate_plane(stream, window, pos, pieces):
    """``(live, plane)`` of one window gated from *pieces*."""
    planes = []
    live = stream.window_is_live(window, planes=planes, pos=pos, pieces=pieces)
    return live, planes[0]


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 5),
    code_length=st.sampled_from([3, 4, 8, 13]),
    samples_per_chip=st.integers(1, 3),
    preamble_bits=st.integers(1, 10),
    extra_bits=st.integers(0, 12),
    n_hops=st.sampled_from([1, 2, 3, 4]),
    kind=st.sampled_from(["real", "complex128", "complex64"]),
    seed=st.integers(0, 2**16),
)
def test_joined_plane_equals_whole_window_plane(
    n_users, code_length, samples_per_chip, preamble_bits, extra_bits, n_hops, kind, seed
):
    """Over U templates of m samples, hops of F >= m samples, and real,
    complex128 and complex64 windows of 1-4 hops."""
    rng = np.random.default_rng(seed)
    codes = {u: rng.integers(0, 2, code_length) for u in range(n_users)}
    fmt = FrameFormat(preamble=rng.integers(0, 2, preamble_bits))
    # A threshold of 0 gates every window live, so every plane is returned.
    rx = CbmaReceiver(codes, fmt=fmt, samples_per_chip=samples_per_chip, user_threshold=0.0)
    stream = StreamingReceiver(rx, max_frame_bits=preamble_bits + extra_bits)
    bank = rx.user_detector.bank
    assert stream.hop_samples >= bank.template_samples
    n = n_hops * stream.hop_samples
    window = rng.normal(size=n) * rng.uniform(0.1, 10.0, size=n)
    if kind != "real":
        window = (window + 1j * rng.normal(size=n)).astype(kind)
    live, plane = _gate_plane(stream, window, 7 * stream.hop_samples, GatePieces())
    whole = sliding_correlation_batch(window, bank.matrix)
    assert live and plane.shape == whole.shape
    if kind == "complex64":
        # Both run float32 FFTs, whose rounding reaches ~5e-6 on scores
        # in [0, ~1] whatever the length; compare on that scale.
        np.testing.assert_allclose(plane, whole, rtol=0, atol=5e-5)
    else:
        np.testing.assert_allclose(plane, whole, rtol=1e-9, atol=1e-12)


class TestColdEqualsWarm:
    def test_cached_pieces_change_no_bit(self, capture):
        """Every window of the walk, gated from the previous window's
        pieces and from none, gives the same decision and plane, and
        leaves the same pieces behind."""
        stream, buffer = capture
        hop, w = stream.hop_samples, stream.window_samples
        warm = GatePieces()
        live_windows = 0
        for pos in range(0, buffer.size - w + 1, hop):
            window = buffer[pos : pos + w]
            cold = GatePieces()
            warm_live, warm_plane = _gate_plane(stream, window, pos, warm)
            cold_live, cold_plane = _gate_plane(stream, window, pos, cold)
            assert warm_live == cold_live
            if warm_live:
                live_windows += 1
                np.testing.assert_array_equal(warm_plane, cold_plane)
            for kind in ("hops", "seams"):
                held, fresh = getattr(warm, kind), getattr(cold, kind)
                assert sorted(held) == sorted(fresh)
                for start in held:
                    np.testing.assert_array_equal(held[start][0], fresh[start][0])
        assert 0 < live_windows < (buffer.size - w) // hop + 1

    def test_only_pieces_the_next_window_can_use_are_kept(self, capture):
        """The next window starts a hop later: a two-hop window keeps its
        second hop slice; a widened (RESYNC) window of four hops and
        three seams keeps all but its first hop slice and seam."""
        stream, buffer = capture
        hop, w = stream.hop_samples, stream.window_samples
        pieces = GatePieces()
        for pos in range(0, 6 * hop, hop):
            stream.window_is_live(buffer[pos : pos + w], pos=pos, pieces=pieces)
            assert sorted(pieces.hops) == [pos + hop] and not pieces.seams
        stream.window_is_live(buffer[6 * hop : 6 * hop + 2 * w], pos=6 * hop, pieces=pieces)
        assert sorted(pieces.hops) == [7 * hop, 8 * hop, 9 * hop]
        assert sorted(pieces.seams) == [7 * hop, 8 * hop]

    def test_stack_is_one_whole_hop_window_per_stream(self, capture):
        stream, buffer = capture
        w = stream.window_samples
        pieces = GatePieces()
        with pytest.raises(ValueError, match="one window per stream"):
            stream.windows_are_live(
                [buffer[:w], buffer[w : 2 * w]], positions=[0, w], pieces=[pieces, pieces]
            )
        with pytest.raises(ValueError, match="whole hops"):
            stream.windows_are_live([buffer[: w - 1]], positions=[0], pieces=[pieces])


def _record_planes(monkeypatch):
    """Record the plane each live window's decode is handed, keyed by
    ``(position, window length)``, one dict per run (``runs[-1]``)."""
    runs = [{}]
    original = StreamingReceiver.decode_window

    def recorded(self, window, pos, dedup, corr=None):
        runs[-1][(pos, window.size)] = corr
        return original(self, window, pos, dedup, corr=corr)

    monkeypatch.setattr(StreamingReceiver, "decode_window", recorded)
    return runs


class TestEveryPathMakesTheSamePlanes:
    def test_batch_session_restore_farm_and_lone_window(self, capture, monkeypatch):
        stream, buffer = capture
        stream = StreamingReceiver(stream.receiver, max_frame_bits=stream.max_frame_bits)
        hop = stream.hop_samples
        runs = _record_planes(monkeypatch)

        stream.process_stream(buffer)
        batch = runs[-1]

        runs.append({})
        session = SessionSupervisor(stream)
        rng = np.random.default_rng(3)
        lo = 0
        while lo < buffer.size:
            size = int(rng.integers(1, 3 * hop))
            session.feed(buffer[lo : lo + size])
            lo += size
        session.finish()
        chunked = runs[-1]

        runs.append({})
        session = SessionSupervisor(stream)
        half = buffer.size // 2 + 777
        session.feed(buffer[:half])
        restored = SessionSupervisor.from_checkpoint_records(session.checkpoint_records(), stream)
        runs[-1].clear()
        restored.feed(buffer[restored.position :])
        restored.finish()
        resumed = runs[-1]

        runs.append({})
        config = soak_phy_config(SoakConfig(n_tags=4, seed=11))
        farm = DecodeFarm.from_config(
            config, n_sessions=2, farm=FarmConfig(n_workers=1, ring_slot_samples=2 * hop), backend="inline"
        )
        try:
            for lo in range(0, buffer.size, 2 * hop):
                for sid in farm.session_ids:
                    farm.feed(sid, buffer[lo : lo + 2 * hop])
                farm.pump()
            farm.finish()
        finally:
            farm.close()
        assert farm.batched_windows > 0
        stacked = runs[-1]

        lone = {}
        for pos, size in batch:
            live, plane = _gate_plane(stream, buffer[pos : pos + size], pos, GatePieces())
            assert live
            lone[(pos, size)] = plane

        assert len(batch) > 5
        for other in (chunked, resumed, stacked, lone):
            shared = set(batch) & set(other)
            assert len(shared) >= len(batch) // 2
            for key in shared:
                np.testing.assert_array_equal(other[key], batch[key])
