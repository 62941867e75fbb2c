"""The pre-gate hands its correlation plane to the detector.

The streaming pre-gate (``window_is_live``, or the farm's stacked
``windows_are_live``) computes exactly the template-bank correlation
that ``UserDetector.detect`` needs, so a live window's plane travels
from the gate to its decode instead of being computed twice.  These
tests pin the three things that make that an optimisation and not a
behaviour change: the planes are bit-identical whichever path made
them, each sample is correlated once per stream (a sample ledger), and
a plane is dropped whenever the receiver front end changed the samples
it describes.
"""

from collections import Counter

import numpy as np
import pytest

from repro.farm import DecodeFarm, FarmConfig
from repro.receiver.receiver import CbmaReceiver
from repro.receiver.session import HealthState, SessionConfig, SessionSupervisor
from repro.receiver.streaming import StreamingReceiver
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream, soak_phy_config
from repro.utils.correlation_batch import TemplateBank, sliding_correlation_batch


@pytest.fixture(scope="module")
def capture():
    """A busy 4-tag soak capture and the stream that decodes it."""
    cfg = SoakConfig(n_windows=30, n_tags=4, seed=11, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    return stream, buffer


def _fresh(bank: TemplateBank) -> TemplateBank:
    """A bank over the same templates with a cold spectrum cache."""
    return TemplateBank(bank.user_ids, bank.matrix, bank.samples_per_chip)


def _live_window(stream, buffer):
    w = stream.window_samples
    for lo in range(0, buffer.size - w, stream.hop_samples):
        window = buffer[lo : lo + w]
        if stream.window_is_live(window):
            return window
    raise AssertionError("capture has no live window")


class TestPlanesMatch:
    @pytest.mark.parametrize("widen", [1, SessionConfig().resync_widen_factor], ids=["hop", "resync"])
    @pytest.mark.parametrize("stack_first", [True, False], ids=["stack-cold", "single-cold"])
    def test_stacked_rows_equal_single_window_planes(self, capture, widen, stack_first):
        stream, buffer = capture
        n = stream.window_samples * widen
        assert n in (4096, 8192)
        stack = np.stack([buffer[lo : lo + n] for lo in range(0, 3 * stream.hop_samples, stream.hop_samples)])
        bank = _fresh(stream.receiver.user_detector.bank)
        if stack_first:
            many = bank.correlate_many(stack)
            singles = [bank.correlate(w) for w in stack]
        else:
            singles = [bank.correlate(w) for w in stack]
            many = bank.correlate_many(stack)
        # And once more, both with the spectrum cache warm.
        many_warm = bank.correlate_many(stack)
        for s, window in enumerate(stack):
            reference = sliding_correlation_batch(window, bank.matrix)
            np.testing.assert_array_equal(many[s], singles[s])
            np.testing.assert_array_equal(many[s], reference)
            np.testing.assert_array_equal(many_warm[s], reference)
            np.testing.assert_array_equal(bank.correlate(window), reference)

    def test_gate_planes_are_the_detector_planes(self, capture):
        stream, buffer = capture
        w = stream.window_samples
        windows = np.stack([buffer[i * w : (i + 1) * w] for i in range(12)])
        stacked, single = [], []
        live = stream.windows_are_live(windows, planes=stacked)
        for window in windows:
            stream.window_is_live(window, planes=single)
        assert live.any() and not live.all()
        bank = stream.receiver.user_detector.bank
        for s, is_live in enumerate(live):
            if not is_live:
                assert stacked[s] is None and single[s] is None
                continue
            np.testing.assert_array_equal(stacked[s], bank.correlate(windows[s]))
            np.testing.assert_array_equal(single[s], bank.correlate(windows[s]))

    def test_spectrum_cache_is_bounded(self, capture):
        stream, buffer = capture
        bank = _fresh(stream.receiver.user_detector.bank)
        for n in (4096, 3001, 3333, 2999, 4096, 2500, 2777, 4096):
            np.testing.assert_array_equal(
                bank.correlate(buffer[:n]), sliding_correlation_batch(buffer[:n], bank.matrix)
            )
        assert len(bank._plans) == 4

    def test_real_and_complex_windows_keep_separate_spectra(self, capture):
        """Same FFT length, different spectrum: real windows take the
        half-spectrum path, complex ones the full one."""
        stream, buffer = capture
        bank = _fresh(stream.receiver.user_detector.bank)
        window = buffer[: stream.window_samples]
        for w in (window, window.real, window, window.real):
            np.testing.assert_array_equal(bank.correlate(w), sliding_correlation_batch(w, bank.matrix))
            np.testing.assert_array_equal(
                bank.correlate_many(w[None, :])[0], sliding_correlation_batch(w, bank.matrix)
            )

    def test_mismatched_plane_rejected(self, capture):
        stream, buffer = capture
        window = _live_window(stream, buffer)
        detector = stream.receiver.user_detector
        plane = detector.bank.correlate(window)
        with pytest.raises(ValueError, match="does not match"):
            detector.detect(window[:-1], corr=plane)


def _count_calls(monkeypatch, counts):
    """Count calls of the gate and correlation entry points."""
    for cls, name in (
        (StreamingReceiver, "window_is_live"),
        (StreamingReceiver, "windows_are_live"),
        (TemplateBank, "correlate"),
        (TemplateBank, "correlate_many"),
    ):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def _spy_samples(monkeypatch):
    """Count every sample handed to the template bank, by any caller."""
    ledger = Counter()
    for name in ("correlate", "correlate_many"):
        original = getattr(TemplateBank, name)

        def spied(self, windows, *args, _original=original, _name=name, **kwargs):
            rows = [windows] if _name == "correlate" else windows
            ledger["samples"] += sum(np.asarray(row).size for row in rows)
            return _original(self, windows, *args, **kwargs)

        monkeypatch.setattr(TemplateBank, name, spied)
    return ledger


def _spy_windows(monkeypatch, probes=None):
    """Record ``(session, position, length)`` of every window a session
    processes, however its gate decision was made; in *probes*, those
    of the widened windows RESYNC's health probe gates too."""
    walked = []
    original = SessionSupervisor._process_one_window

    def spied(self):
        available = self._base + self._buf.size - self._pos
        walked.append((self, self._pos, min(self.streaming.window_samples, available)))
        if probes is not None and self._state is HealthState.RESYNC:
            probes.append((self, self._pos, min(self._required_samples(), available)))
        return original(self)

    monkeypatch.setattr(SessionSupervisor, "_process_one_window", spied)
    return walked


def _each_piece_once(windows, hop, m):
    """Samples a stream costs when each piece is correlated once per
    stream: every hop slice ``hop`` samples, every seam ``2m - 2``,
    each once per stream; a window that is not whole hops (a truncated
    tail) costs its length.  *windows* are ``(stream, pos, length)``."""
    pieces = set()
    tails = 0
    for stream, pos, size in windows:
        if size % hop:
            tails += size
            continue
        n_hops = size // hop
        pieces.update((stream, "hop", pos + j * hop) for j in range(n_hops))
        pieces.update((stream, "seam", pos + j * hop) for j in range(n_hops - 1))
    return sum(hop if kind == "hop" else 2 * m - 2 for _s, kind, _q in pieces) + tails


class TestEachWindowCorrelatedOnce:
    """A sample ledger: the samples handed to the template bank equal
    what correlating each piece once per stream costs.  A gate that
    correlated whole windows would hand over two hops per window, and a
    detector correlating a live window again one more window."""

    def test_batch_walk(self, capture, monkeypatch):
        stream, buffer = capture
        stream = StreamingReceiver(stream.receiver, max_frame_bits=stream.max_frame_bits)
        hop, m = stream.hop_samples, stream.receiver.user_detector.bank.template_samples
        ledger = _spy_samples(monkeypatch)
        frames = stream.process_stream(buffer)
        assert frames
        # 32 hops: one cold window, 30 warm ones, and a last one-hop
        # window whose hop slice the window before it correlated.
        assert buffer.size == 32 * hop
        assert ledger["samples"] == (2 * hop + 2 * m - 2) + 30 * (hop + 2 * m - 2)
        walk = [(None, pos, min(2 * hop, buffer.size - pos)) for pos in range(0, buffer.size, hop)]
        assert ledger["samples"] == _each_piece_once(walk, hop, m)

    def test_chunk_fed_session_through_resync_shed_and_restore(self, monkeypatch):
        from repro.faults.models import OscillatorDrift
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(
            [OscillatorDrift(probability=1.0, drift_ppm=4000.0, start_round=10, end_round=22)],
            seed=5,
        )
        cfg = SoakConfig(n_windows=48, n_tags=4, seed=32, traffic_rate=0.3)
        tags, stream = build_soak_stack(cfg)
        buffer, _offered = build_soak_stream(cfg, plan, stream, tags)
        hop, m = stream.hop_samples, stream.receiver.user_detector.bank.template_samples
        config = SessionConfig(max_backlog_windows=2, max_windows_per_feed=4)
        ledger = _spy_samples(monkeypatch)
        probes = []
        walked = _spy_windows(monkeypatch, probes)
        session = SessionSupervisor(stream, config=config)
        chunk = 5 * hop + 301
        lo = 0
        while lo < buffer.size // 4:
            session.feed(buffer[lo : lo + chunk])
            lo += chunk
        resyncs, shed = session.stats["resyncs"], session.stats["windows_shed"]
        session = SessionSupervisor.from_checkpoint_records(
            session.checkpoint_records(), stream, config=config
        )
        lo = session.position
        while lo < buffer.size:
            session.feed(buffer[lo : lo + chunk])
            lo += chunk
        session.finish()
        assert resyncs + session.stats["resyncs"] > 0
        assert shed + session.stats["windows_shed"] > 0
        assert probes and all(size == 4 * hop for _s, _pos, size in probes)
        assert len({s for s, _pos, _size in walked}) == 2
        # The probe reuses its window's first hop slice and seam.
        assert ledger["samples"] == _each_piece_once(walked + probes, hop, m)

    def test_inline_farm_pump(self, capture, monkeypatch):
        stream, buffer = capture
        hop, m = stream.hop_samples, stream.receiver.user_detector.bank.template_samples
        config = soak_phy_config(SoakConfig(n_tags=4, seed=11))
        chunk = 3 * hop
        farm = DecodeFarm.from_config(
            config, n_sessions=3, farm=FarmConfig(n_workers=1, ring_slot_samples=chunk), backend="inline"
        )
        counts = Counter()
        _count_calls(monkeypatch, counts)
        ledger = _spy_samples(monkeypatch)
        walked = _spy_windows(monkeypatch)
        try:
            # Session 2 starts one chunk late, so some pumps gate a
            # stacked group and others a lone window.
            for lo in range(0, buffer.size + chunk, chunk):
                for sid in farm.session_ids:
                    start = lo - chunk if sid == 2 else lo
                    if 0 <= start < buffer.size:
                        farm.feed(sid, buffer[start : start + chunk])
                farm.pump()
            farm.finish()
        finally:
            farm.close()
        assert any(farm.frames.values())
        assert counts["windows_are_live"] > 0 and counts["window_is_live"] > 0
        assert len({s for s, _pos, _size in walked}) == 3
        assert ledger["samples"] == _each_piece_once(walked, hop, m)

    def test_prime_gate_is_one_shot(self, capture):
        stream, buffer = capture
        session = SessionSupervisor(StreamingReceiver(stream.receiver, max_frame_bits=stream.max_frame_bits))
        session.ingest(buffer[: 3 * stream.window_samples])
        window = session.peek_window()
        plane = stream.receiver.user_detector.bank.correlate(window)
        session.prime_gate(False, plane)
        assert session._primed == (False, None)
        session.prime_gate(True, plane)
        session.pump(max_windows=1, housekeep=False)
        assert session._primed is None


def _outcome(report):
    """A report's detections and frame outcomes, as comparable values."""
    frames = [(f.user_id, f.success, f.payload, f.reason) for f in report.frames]
    return report.detections, frames


class TestStalePlaneGuard:
    """``process(w, corr=plane)`` equals ``process(w)`` whenever the
    front end hands the detector other samples than the gate saw."""

    def _check(self, receiver, window):
        plane = receiver.user_detector.bank.correlate(window)
        fresh = receiver.process(window, skip_energy_gate=True)
        handed = receiver.process(window, skip_energy_gate=True, corr=plane)
        assert fresh.detections
        assert _outcome(handed) == _outcome(fresh)

    def test_non_finite_samples(self, capture):
        stream, buffer = capture
        window = _live_window(stream, buffer).copy()
        window[7] = np.nan
        self._check(stream.receiver, window)

    def test_complex64_window(self, capture):
        stream, buffer = capture
        self._check(stream.receiver, _live_window(stream, buffer).astype(np.complex64))

    def test_dc_block(self, capture):
        stream, buffer = capture
        rx = stream.receiver
        blocking = CbmaReceiver(
            rx.codes, fmt=rx.fmt, samples_per_chip=rx.samples_per_chip,
            user_threshold=rx.user_detector.threshold, dc_block=True,
        )
        self._check(blocking, _live_window(stream, buffer))

    def test_untouched_window_uses_the_plane(self, capture, monkeypatch):
        stream, buffer = capture
        window = _live_window(stream, buffer)
        plane = stream.receiver.user_detector.bank.correlate(window)
        fresh = stream.receiver.process(window, skip_energy_gate=True)
        counts = Counter()
        _count_calls(monkeypatch, counts)
        handed = stream.receiver.process(window, skip_energy_gate=True, corr=plane)
        assert counts["correlate"] == 0
        assert _outcome(handed) == _outcome(fresh)
