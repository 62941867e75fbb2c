"""Golden-value regression tests.

Everything in the simulator is a pure function of its seed; these tests
pin a handful of seeded outputs *exactly*, so an unintended behaviour
change anywhere in the stack (codes, PHY, channel, receiver) shows up
as a diff even when all property tests still pass.

INTENTIONAL changes (recalibration, receiver improvements) will break
these; that is the point.  Regenerate the constants with the snippet in
each test's docstring and mention the change in CHANGELOG.md.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.channel.geometry import Deployment
from repro.codes import make_codes, twonc, twonc_codes
from repro.receiver.user_detection import UserDetector
from repro.sim.collision import CollisionScenario, simulate_round
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag
from repro.utils.correlation_batch import sliding_correlation_batch


def _digest(arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        m.update(np.ascontiguousarray(a).tobytes())
    return m.hexdigest()[:16]


#: Every family in the 2NC code book, with its digest as searched
#: (``_digest`` of ``twonc._raw_search(size, length)`` as uint8 arrays).
_TWONC_DIGESTS = [
    (1, 4, "76cc5805dab9b4ea"),
    (2, 4, "b1cb3145c8151827"),
    (3, 4, "55a0c54db8257851"),
    (1, 6, "8eb597945e99773d"),
    (3, 6, "27e0adf125e8a471"),
    (2, 8, "9aad6c212dfa938b"),
    (4, 8, "1f60ab523d01d16c"),
    (2, 10, "3fdf4573427d82ec"),
    (5, 10, "afd5a717b6480ffc"),
    (2, 12, "6d10184614812d9f"),
    (1, 16, "5a54a24175c90c58"),
    (3, 16, "05c050816b53e76f"),
    (4, 16, "936000c310c84a87"),
    (1, 32, "f709cf9ee35f8a19"),
    (2, 32, "153782184c66c916"),
    (3, 32, "0810c0f1f58c1e92"),
    (4, 32, "f97b6619dacd7872"),
    (5, 32, "5fa22cde4e4d9b88"),
    (6, 32, "52698a3b64e5f321"),
    (7, 32, "3f78580417ce785d"),
    (8, 32, "d6421d5358fc628c"),
    (9, 32, "abba81101ed4c8a9"),
    (10, 32, "85f0613d2f855b1a"),
    (11, 32, "5da3a16be9b82426"),
    (12, 32, "c8d1c235e5c4b2e9"),
    (13, 32, "53ddfd193b64c915"),
    (14, 32, "333d60629b97f0be"),
    (15, 32, "9039476e7cf5f5a1"),
    (16, 32, "4c0e02d0873b9f6a"),
    (20, 40, "9c94d1184514e879"),
    (1, 64, "e6662c29e73615ed"),
    (2, 64, "c577f5970bfbd5d2"),
    (3, 64, "ebc9504d6f24f132"),
    (4, 64, "bc14be20f9eb26a4"),
    (5, 64, "3591e7b66926732b"),
    (6, 64, "25e28e0682d83583"),
    (7, 64, "0a23bcf0f4bedd57"),
    (8, 64, "19320c180de4a66e"),
    (9, 64, "278d0b93de287f8f"),
    (10, 64, "b1aab5a502844893"),
    (2, 128, "97bf1e11a0f160ff"),
    (3, 128, "921e6b2319bb1fcf"),
    (8, 128, "abc5ffb4fb459044"),
    (10, 128, "8f32fc59902780d5"),
]


class TestCodeGoldens:
    """Code families are deterministic constructions; their bytes must
    never drift silently (tags and receiver derive them independently).

    Regenerate: ``_digest(make_codes(family, 5, length))``.
    """

    def test_gold_family_digest(self):
        assert _digest(make_codes("gold", 5, 31)) == "b23ff4555782aa52"

    def test_twonc_family_digest(self):
        assert _digest(make_codes("2nc", 5, 64)) == "3591e7b66926732b"

    @pytest.mark.parametrize("size,length,digest", _TWONC_DIGESTS)
    def test_twonc_search_digests(self, size, length, digest):
        """The 2NC search (greedy pick plus anneal) is pinned family by
        family: a change to its scoring or RNG use moves these bytes.
        It runs the search itself, not the code book."""
        codes = [np.array(c, dtype=np.uint8) for c in twonc._raw_search(size, length)]
        assert _digest(codes) == digest

    @pytest.mark.parametrize("size,length,digest", _TWONC_DIGESTS)
    def test_twonc_book_digests(self, size, length, digest):
        """What the code book serves is the search's output, byte for byte."""
        assert (size, length) in twonc._load_book()
        assert _digest(make_codes("2nc", size, length)) == digest

    def test_every_booked_family_is_pinned(self):
        assert set(twonc._load_book()) == {(size, length) for size, length, _ in _TWONC_DIGESTS}

    def test_kasami_family_digest(self):
        assert _digest(make_codes("kasami", 5, 63)) == "b1230befa9ef0df1"


class TestEndToEndGoldens:
    """Seeded end-to-end runs.  Regenerate by running the scenario and
    reading ``frames_correct`` / ``frames_detected``."""

    def test_two_tags_one_meter_seed42(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=2, seed=42), Deployment.linear(2, tag_to_rx=1.0)
        )
        metrics = net.run_rounds(20)
        assert metrics.frames_correct == 40
        assert metrics.frames_detected == 40

    def test_four_tags_two_meters_seed42(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=4, seed=42), Deployment.linear(4, tag_to_rx=2.0)
        )
        metrics = net.run_rounds(15)
        assert metrics.frames_correct == 58
        assert metrics.frames_detected == 59


def _detection_digest(detections) -> str:
    """Every field of a detection list, as exact bytes."""
    arrays = []
    for d in detections:
        arrays.append(np.array([d.user_id, d.offset], dtype=np.int64))
        arrays.append(np.array([d.score, d.channel.real, d.channel.imag], dtype=np.float64))
        for offset, score, channel in d.candidates:
            arrays.append(np.array([offset], dtype=np.int64))
            arrays.append(np.array([score, channel.real, channel.imag], dtype=np.float64))
    return _digest(arrays)


class TestDetectionGoldens:
    """The correlation kernel and the detector on top of it are pinned
    to the byte: user ids, offsets, candidate offsets, and the float64
    bytes of every score and channel estimate.

    Regenerate: ``_detection_digest(UserDetector(...).detect(iq))`` on
    the collision built below, ``_digest([stream.windows_are_live(w)])``
    and ``_digest([sliding_correlation_batch(signal, templates)])``.
    """

    @staticmethod
    def _collision(n_tags: int, samples_per_chip: int, seed: int):
        rng = np.random.default_rng(seed)
        fmt = FrameFormat()
        codes = twonc_codes(n_tags, 64)
        tags = [Tag(i, codes[i], fmt=fmt) for i in range(n_tags)]
        scenario = CollisionScenario(
            tags=tags,
            amplitudes=[1.0 + 0.0j] * n_tags,
            samples_per_chip=samples_per_chip,
        )
        payloads = {
            i: rng.integers(0, 256, size=2).astype(np.uint8).tobytes() for i in range(n_tags)
        }
        iq, _truth = simulate_round(scenario, payloads, rng=rng)
        return np.asarray(iq), {i: codes[i] for i in range(n_tags)}, fmt

    @pytest.mark.parametrize(
        "n_tags,samples_per_chip,digest",
        [
            (1, 1, "f8ed042610045882"),
            (1, 2, "a64c9b8db8590d30"),
            (1, 4, "210dbb6125aa8517"),
            (4, 1, "ce3bb4f88df52d59"),
            (4, 2, "38d66ac13d090585"),
            (4, 4, "c3ec142f1b218a3a"),
            (10, 1, "9e19427303c4a982"),
            (10, 2, "612edc4971b5a41b"),
            (10, 4, "99a2b2f75860d77a"),
        ],
    )
    def test_detect_digest(self, n_tags, samples_per_chip, digest):
        iq, codes, fmt = self._collision(n_tags, samples_per_chip, seed=100 + n_tags)
        # A low threshold keeps every user of the 10-tag collision (and
        # more candidate alignments) inside the pinned bytes.
        detector = UserDetector(codes, fmt, samples_per_chip=samples_per_chip, threshold=0.05)
        detections = detector.detect(iq)
        assert len(detections) == n_tags
        assert _detection_digest(detections) == digest

    def test_windows_are_live_digest(self):
        cfg = SoakConfig(n_windows=24, n_tags=4, seed=7, traffic_rate=0.05)
        tags, stream = build_soak_stack(cfg)
        buffer, _offered = build_soak_stream(cfg, None, stream, tags)
        w = stream.window_samples
        windows = np.stack([buffer[i * w : (i + 1) * w] for i in range(buffer.size // w)])
        live = stream.windows_are_live(windows)
        assert live.any() and not live.all()
        assert _digest([live]) == "362c3f037057d6a5"

    @pytest.mark.parametrize("complex_signal,digest", [(False, "6b692086c23516ef"), (True, "18b1df2d213825a3")])
    def test_sliding_correlation_batch_digest(self, complex_signal, digest):
        rng = np.random.default_rng(23)
        signal = rng.normal(size=700)
        if complex_signal:
            signal = signal + 1j * rng.normal(size=700)
        templates = np.sign(rng.normal(size=(5, 48))) + 0.0
        assert _digest([sliding_correlation_batch(signal, templates)]) == digest


def _frames_digest(frames) -> str:
    """``(user, payload, start)`` of every frame, in order, as bytes."""
    m = hashlib.sha256()
    for f in frames:
        m.update(np.array([f.user_id, f.start_sample, len(f.payload)], dtype=np.int64).tobytes())
        m.update(f.payload)
    return m.hexdigest()[:16]


def _cross_user_ghosts(seed: int, n_tags: int, max_passes: int, *frames):
    """A truth-test case that fails today: each of *frames* names a tag
    that did not send its payload.  The xfail is strict, and any other
    set of frames fails the case outright."""
    return pytest.param(
        seed, n_tags, max_passes, list(frames),
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"emits {list(frames)}"),
        id=f"seed{seed}-tags{n_tags}-passes{max_passes}",
    )


class TestStreamGoldens:
    """The streaming entry layers are pinned to the frame: user id,
    payload and absolute start of every frame each layer emits, so a
    hot-path change that shifts a single detection shows up here.

    Regenerate: ``_frames_digest(frames)`` over the frames each test
    collects.
    """

    @staticmethod
    def _capture(seed: int, traffic_rate: float, n_windows: int = 40, plan=None):
        cfg = SoakConfig(n_windows=n_windows, n_tags=4, seed=seed, traffic_rate=traffic_rate)
        tags, stream = build_soak_stack(cfg)
        buffer, _offered = build_soak_stream(cfg, plan, stream, tags)
        return cfg, stream, buffer

    @pytest.mark.parametrize(
        "traffic_rate,n_windows,n_frames,digest",
        [(0.3, 40, 42, "5c603539ca1744ce"), (0.02, 120, 17, "3113ec520f23a777")],
        ids=["dense", "sparse"],
    )
    def test_process_stream_digest(self, traffic_rate, n_windows, n_frames, digest):
        _cfg, stream, buffer = self._capture(31, traffic_rate, n_windows)
        frames = stream.process_stream(buffer)
        assert len(frames) == n_frames
        assert _frames_digest(frames) == digest

    @pytest.mark.parametrize("seed,traffic_rate,n_windows", [(31, 0.3, 40), (34, 0.1, 40), (31, 0.02, 120)])
    def test_frames_start_within_one_chip_of_truth(self, seed, traffic_rate, n_windows):
        """Every emitted frame whose (user, payload) was offered starts
        within one chip of the offered start."""
        cfg = SoakConfig(n_windows=n_windows, n_tags=4, seed=seed, traffic_rate=traffic_rate)
        tags, stream = build_soak_stack(cfg)
        buffer, offered = build_soak_stream(cfg, None, stream, tags)
        truth = {(t.tag, t.payload): t.start for t in offered}
        chip = stream.receiver.samples_per_chip
        errors = [
            (f.user_id, f.start_sample, f.start_sample - truth[(f.user_id, f.payload)])
            for f in stream.process_stream(buffer)
            if (f.user_id, f.payload) in truth
        ]
        assert len(errors) >= 9
        assert [e for e in errors if abs(e[2]) > chip] == []

    @pytest.mark.parametrize(
        "seed,n_tags,max_passes,ghosts",
        [
            _cross_user_ghosts(33, 4, 1, (2, "0948b318", 43007)),
            _cross_user_ghosts(33, 2, 1, (1, "3c2dbbb0", 38923)),
            _cross_user_ghosts(12, 4, 1, (0, "e618d442", 8937)),
            _cross_user_ghosts(33, 4, 3, (3, "e1a0a618", 28674), (2, "0948b318", 43007)),
            _cross_user_ghosts(33, 2, 3, (1, "3c2dbbb0", 38923)),
            _cross_user_ghosts(12, 4, 3, (0, "e618d442", 8937)),
        ],
    )
    def test_every_frame_names_a_tag_that_sent_it(self, seed, n_tags, max_passes, ghosts):
        """Every emitted ``(user, payload)`` was offered by that tag
        (ROADMAP item 1's truth test), with one decode pass and with
        three."""
        cfg = SoakConfig(n_windows=40, n_tags=n_tags, seed=seed, traffic_rate=0.3)
        tags, stream = build_soak_stack(cfg)
        stream.receiver.max_passes = max_passes
        buffer, offered = build_soak_stream(cfg, None, stream, tags)
        sent = {(t.tag, t.payload) for t in offered}
        frames = stream.process_stream(buffer)
        assert frames
        wrong = [
            (f.user_id, f.payload.hex(), f.start_sample)
            for f in frames
            if (f.user_id, f.payload) not in sent
        ]
        if wrong and wrong != ghosts:
            pytest.fail(f"emits {wrong}, not the xfail's {ghosts}")
        assert wrong == []

    @pytest.mark.parametrize(
        "chunk_dtype,digest",
        [(np.complex128, "8b36b9af6b4791b3"), (np.complex64, "8b36b9af6b4791b3")],
        ids=["complex128", "complex64"],
    )
    def test_chunk_fed_session_digest(self, chunk_dtype, digest):
        """A chunk-fed supervisor, through a drift fault that drives it
        into RESYNC (widened windows), fed chunks of either dtype; the
        session widens single-precision chunks at ingest."""
        from repro.faults.models import OscillatorDrift
        from repro.faults.plan import FaultPlan
        from repro.receiver.session import SessionSupervisor

        plan = FaultPlan(
            [OscillatorDrift(probability=1.0, drift_ppm=4000.0, start_round=10, end_round=22)],
            seed=5,
        )
        cfg, stream, buffer = self._capture(32, 0.3, n_windows=48, plan=plan)
        buffer = buffer.astype(chunk_dtype)
        session = SessionSupervisor(stream)
        chunk = cfg.chunk_hops * stream.hop_samples
        frames = []
        for lo in range(0, buffer.size, chunk):
            frames.extend(session.feed(buffer[lo : lo + chunk]))
        frames.extend(session.finish())
        assert session.stats["resyncs"] > 0
        assert _frames_digest(frames) == digest

    def test_inline_farm_digest(self):
        from repro.farm import DecodeFarm, FarmConfig
        from repro.sim.experiments.soak import soak_phy_config

        captures = [self._capture(seed, rate)[2] for seed, rate in ((33, 0.3), (34, 0.1), (35, 0.02))]
        _cfg, stream, _buffer = self._capture(33, 0.3, n_windows=1)
        chunk = 3 * stream.hop_samples
        farm = DecodeFarm.from_config(
            soak_phy_config(SoakConfig(n_tags=4, seed=11)),
            n_sessions=len(captures),
            farm=FarmConfig(n_workers=1, ring_slot_samples=chunk),
            backend="inline",
        )
        try:
            for lo in range(0, max(c.size for c in captures), chunk):
                for sid, capture in enumerate(captures):
                    if lo < capture.size:
                        farm.feed(sid, capture[lo : lo + chunk])
                farm.pump()
            farm.finish()
            frames = [f for sid in sorted(farm.frames) for f in farm.frames[sid]]
        finally:
            farm.close()
        assert farm.batched_windows > 0
        assert _frames_digest(frames) == "0892810b0b90ab58"

    @pytest.mark.parametrize(
        "chunk_dtype,digest",
        [(np.complex128, "189caff86d11a067"), (np.complex64, "189caff86d11a067")],
        ids=["complex128", "complex64"],
    )
    def test_session_checkpoint_digest(self, tmp_path, chunk_dtype, digest):
        """The checkpoint JSONL bytes of a session stopped mid-stream
        just after it recovered from RESYNC: header, state, frame and
        history records all present, fed chunks of either dtype.  The
        watchdog clock is frozen so the counters are seed-only."""
        from repro.faults.models import OscillatorDrift
        from repro.faults.plan import FaultPlan
        from repro.receiver.session import HealthState, SessionSupervisor

        plan = FaultPlan(
            [OscillatorDrift(probability=1.0, drift_ppm=4000.0, start_round=10, end_round=14)],
            seed=5,
        )
        cfg, stream, buffer = self._capture(31, 0.3, plan=plan)
        buffer = buffer.astype(chunk_dtype)
        session = SessionSupervisor(stream, clock=lambda: 0.0)
        chunk = cfg.chunk_hops * stream.hop_samples
        for lo in range(0, 8 * chunk, chunk):
            session.feed(buffer[lo : lo + chunk])
        path = session.checkpoint(tmp_path / "session.jsonl")
        kinds = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert session.stats["resyncs"] == 1 and session.state is HealthState.HEALTHY
        assert kinds.count("history") == 3 and "frame" in kinds
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest
        # Restore drops nothing: the restored session checkpoints the same records.
        restored = SessionSupervisor.restore(path, stream)
        assert restored.checkpoint_records() == session.checkpoint_records()

    @pytest.mark.parametrize("samples_per_chip,digest", [(1, "78b6e93f01aab622"), (2, "79f526594259641e")])
    def test_decode_frame_outcomes_digest(self, samples_per_chip, digest):
        """Every candidate alignment of every detected user of a seeded
        4-tag collision, decoded: reason, payload and raw bits."""
        from repro.receiver.decoder import ChipDecoder

        iq, codes, fmt = TestDetectionGoldens._collision(4, samples_per_chip, seed=200)
        detector = UserDetector(codes, fmt, samples_per_chip=samples_per_chip, threshold=0.05)
        m = hashlib.sha256()
        reasons = []
        for det in detector.detect(iq):
            decoder = ChipDecoder(codes[det.user_id], fmt, samples_per_chip)
            for offset, _score, channel in det.candidates:
                frame = decoder.decode_frame(iq, offset, channel, user_id=det.user_id)
                reasons.append(frame.reason)
                m.update(f"{det.user_id}:{offset}:{frame.reason}:".encode())
                m.update(frame.payload or b"-")
                raw = frame.raw_bits if frame.raw_bits is not None else np.zeros(0, np.uint8)
                m.update(np.ascontiguousarray(raw).tobytes())
        assert "ok" in reasons and len(set(reasons)) > 1
        assert m.hexdigest()[:16] == digest


class TestSoakGoldens:
    """The chaos soaks are pinned to the frame and the ledger: the
    random plan generators' draws, a session soak under a random plan
    and a migrating gateway soak under a spike and a brownout.

    Regenerate: the ``m.hexdigest()[:16]`` each test builds.
    """

    def test_random_plan_draws_digest(self):
        import dataclasses

        from repro.gateway.soak import random_gateway_fault_plan
        from repro.sim.experiments.soak import random_fault_plan

        m = hashlib.sha256()
        for s in range(5):
            for plan in (random_fault_plan(s, 300, 2), random_gateway_fault_plan(s, 12)):
                for f in plan.faults:
                    m.update(repr((type(f).__name__, dataclasses.astuple(f))).encode())
        assert m.hexdigest()[:16] == "bbdc3715389409f6"

    def test_session_soak_digest(self):
        from repro.sim.experiments.soak import random_fault_plan, run_soak

        result = run_soak(SoakConfig(n_windows=200, seed=7), random_fault_plan(7, 200, 2))
        m = hashlib.sha256(_frames_digest(result.frames).encode())
        m.update(repr((sorted(result.stats.items()), result.final_state)).encode())
        assert m.hexdigest()[:16] == "fd3306210a4d68a6"

    def test_gateway_soak_digest(self):
        from repro.gateway.soak import GatewaySoakConfig, run_gateway_soak
        from tests.gateway.test_soak import harsh_plan

        cfg = GatewaySoakConfig(n_streams=8, n_rounds=12, backend="inline", migrate_round=5)
        result = run_gateway_soak(cfg, harsh_plan())
        m = hashlib.sha256()
        for sid, rep in sorted(result.reports.items()):
            m.update(_frames_digest(rep.frames).encode())
            m.update(repr((sid, rep.admitted, rep.rejected, rep.fed, rep.shed)).encode())
        m.update(repr((result.transitions, result.round_states)).encode())
        assert result.ok and result.rejected > 0 and result.moved_sessions
        assert m.hexdigest()[:16] == "8910d4a9ab0fe60f"
