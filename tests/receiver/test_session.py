"""Unit tests for repro.receiver.session.

The state machine is exercised against a scripted stand-in for
:class:`StreamingReceiver` -- each window's outcome ("dark", "ok",
"fail") is declared up front -- so every transition is driven
deterministically without paying for (or depending on) the PHY.
End-to-end session behaviour over real waveforms is covered by the
chaos-soak tests in ``tests/sim/test_soak.py``.
"""

import itertools
import json
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import C, Tracer
from repro.receiver.session import (
    CHECKPOINT_FORMAT,
    HealthState,
    SessionConfig,
    SessionSupervisor,
)
from repro.receiver.streaming import StreamFrame

HOP = 1_000
WINDOW = 2_000
FRAME = 1_000


class ScriptedStream:
    """Stand-in for StreamingReceiver with scripted per-window outcomes.

    - ``dark``: pre-gate says silent;
    - ``ok``:   live, a fresh frame from user 0 decodes;
    - ``fail``: live, user 1 detects strongly but nothing decodes
      (the drift signature; user 1 so the supervisor's residue
      suppression never mistakes it for a just-decoded frame's image).
    - ``echo``: like ``fail``, but user 0 detects strongly.

    Outcomes past the end of the script are ``dark``.  A RESYNC
    window's widened health probe sees the same outcome as the
    window's own decode, and is recorded in ``probes``.
    """

    def __init__(self, outcomes=()):
        self.outcomes = list(outcomes)
        self.hop_samples = HOP
        self.window_samples = WINDOW
        self.frame_samples = FRAME
        self.max_frame_bits = 8
        self.receiver = SimpleNamespace(codes={0: None, 1: None})
        self.windows_seen = []  # (kind, window_size) per processed window
        self.probes = []  # (kind, window_size) per RESYNC health probe
        self._n = 0
        self._kind = "dark"

    def window_is_live(self, window, planes=None, pos=None, pieces=None):
        self._kind = self.outcomes[self._n] if self._n < len(self.outcomes) else "dark"
        self.windows_seen.append((self._kind, window.size))
        self._n += 1
        return self._kind != "dark"

    def _report(self):
        if self._kind in ("fail", "echo"):
            user = 1 if self._kind == "fail" else 0
            return SimpleNamespace(
                frames=[],
                detections=[SimpleNamespace(user_id=user, score=0.9, offset=0, strongest=None)],
            )
        return SimpleNamespace(
            frames=[SimpleNamespace(success=True)],
            detections=[SimpleNamespace(user_id=0, score=0.9, offset=10, strongest=None)],
        )

    def decode_window(self, window, pos, previous, corr=None):
        report = self._report()
        if self._kind in ("fail", "echo"):
            return [], report
        payload = self._n.to_bytes(4, "big")
        return [StreamFrame(user_id=0, payload=payload, start_sample=pos + 10)], report

    def probe_window(self, window, pos, pieces):
        self.probes.append((self._kind, window.size))
        return None if self._kind == "dark" else self._report()


def drive(outcomes, config=None, extra_hops=1, **kwargs):
    """Feed exactly ``len(outcomes) + extra_hops - 1`` windows' worth."""
    stream = ScriptedStream(outcomes)
    session = SessionSupervisor(stream, config=config, **kwargs)
    n = len(outcomes) + extra_hops
    emitted = session.feed(np.zeros(n * HOP, dtype=np.complex128))
    return stream, session, emitted


class TestSessionConfig:
    def test_defaults_valid(self):
        SessionConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_backlog_windows": 0},
            {"max_windows_per_feed": 0},
            {"attempt_score": 0.0},
            {"attempt_score": 1.5},
            {"health_window": 0},
            {"min_attempts": 0},
            {"degrade_failure_rate": 0.2, "recover_failure_rate": 0.4},
            {"degrade_failure_rate": 1.4},
            {"resync_after": 0},
            {"fail_after_resyncs": 0},
            {"resync_widen_factor": 0},
            {"watchdog_budget_s": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SessionConfig(**kwargs)


class TestHealthMachine:
    def test_silence_is_healthy(self):
        """Dark windows are not decode attempts: a silent stream must
        never degrade (the noise-spiral regression)."""
        _, session, emitted = drive(["dark"] * 20)
        assert session.state is HealthState.HEALTHY
        assert session.health_history == [(0, "healthy")]
        assert emitted == []
        assert session.stats["windows_skipped"] == session.stats["windows"]
        assert session.stats["windows_live"] == 0

    def test_steady_decodes_stay_healthy(self):
        _, session, emitted = drive(["ok"] * 10)
        assert session.state is HealthState.HEALTHY
        assert session.stats["frames"] == 10
        assert len(emitted) == 10

    def test_degrade_and_recover_on_failure_rate(self):
        # resync_after pushed out of the way to isolate the rate logic.
        cfg = SessionConfig(resync_after=50)
        outcomes = ["ok", "ok", "fail", "fail"] + ["ok"] * 4
        _, session, _ = drive(outcomes, config=cfg)
        # 4 attempts / 2 failures -> rate 0.5 degrades; 8 attempts /
        # 2 failures -> rate 0.25 heals.
        assert [s for _, s in session.health_history] == [
            "healthy",
            "degraded",
            "healthy",
        ]
        assert session.health_history[1][0] == 4
        assert session.health_history[2][0] == 8

    def test_nodecode_streak_triggers_widened_resync(self):
        # Enough prior successes that the failure *rate* stays below the
        # degrade threshold -- the streak, not the rate, must trigger.
        outcomes = ["ok"] * 5 + ["fail"] * 3 + ["ok"]
        stream, session, _ = drive(outcomes, extra_hops=4)
        assert session.state is HealthState.HEALTHY
        assert session.stats["resyncs"] == 1
        assert [s for _, s in session.health_history] == ["healthy", "resync", "healthy"]
        # The window after entering RESYNC decodes as any other, and
        # its widened probe, the only one, brings the session back.
        assert stream.windows_seen[7][1] == WINDOW  # streak completes here
        assert stream.windows_seen[8][1] == WINDOW
        assert stream.probes == [("ok", WINDOW * SessionConfig().resync_widen_factor)]
        assert session.stats["frames"] == 6

    def test_resync_exhaustion_fails_terminally(self):
        outcomes = ["ok"] + ["fail"] * 6  # 3 to enter RESYNC, 3 failed probes
        stream, session, _ = drive(outcomes, config=None, extra_hops=8)
        assert session.state is HealthState.FAILED
        assert [s for _, s in session.health_history] == ["healthy", "resync", "failed"]
        assert [kind for kind, _size in stream.probes] == ["fail"] * 3
        # FAILED is terminal: everything fed afterwards is shed, not decoded.
        shed_before = session.stats["windows_shed"]
        assert session.feed(np.zeros(5 * HOP, dtype=np.complex128)) == []
        assert session.stats["windows_shed"] > shed_before

    def test_previous_frame_residue_is_not_an_attempt(self):
        """A strong detection of the user whose frame the previous
        window emitted is that frame's correlation residue, not a
        failed attempt; a window later it is an attempt again."""
        _, echo, _ = drive(["ok", "echo", "echo", "echo"])
        _, fail, _ = drive(["ok", "fail", "fail", "fail"])
        assert echo._nodecode_streak == 2
        assert echo.health_history == [(0, "healthy")]
        assert [s for _, s in fail.health_history] == ["healthy", "resync"]

    def test_watchdog_degrades_without_touching_decode(self):
        ticks = itertools.count()
        clock = lambda: float(next(ticks)) * 10.0  # 10 s per clock() call
        _, session, emitted = drive(["ok"] * 6, clock=clock)
        assert session.state is HealthState.DEGRADED
        assert session.stats["watchdog_trips"] >= 1
        # Decode output is unaffected -- the watchdog only moves health.
        assert session.stats["frames"] == 6
        assert all(s in ("healthy", "degraded") for _, s in session.health_history)


class TestIngestion:
    def test_backlog_shedding_counts_and_bounds(self):
        cfg = SessionConfig(max_windows_per_feed=1, max_backlog_windows=2)
        stream = ScriptedStream(["ok"] * 10)
        session = SessionSupervisor(stream, config=cfg)
        session.feed(np.zeros(10 * HOP, dtype=np.complex128))
        assert session.stats["windows"] == 1
        assert session.stats["windows_shed"] > 0
        assert session.backlog_windows <= 2
        # Every hop of walk advance is accounted processed-or-shed.
        walked = session.stats["windows"] + session.stats["windows_shed"]
        assert walked * HOP == session.position

    def test_emission_order_is_non_decreasing(self):
        _, session, emitted = drive(["ok"] * 8)
        emitted += session.finish()
        starts = [f.start_sample for f in emitted]
        assert starts == sorted(starts)
        assert len(emitted) == 8

    def test_corrupt_chunk_quarantined_not_fatal(self):
        stream = ScriptedStream(["ok"] * 2)
        session = SessionSupervisor(stream)
        bad = np.zeros(3 * HOP, dtype=np.complex128)
        bad[5] = np.nan
        session.feed(bad)
        assert session.stats["quarantined"] >= 1
        assert session.state is HealthState.HEALTHY

    def test_feed_after_finish_rejected(self):
        _, session, _ = drive(["ok"])
        session.finish()
        with pytest.raises(RuntimeError):
            session.feed(np.zeros(HOP, dtype=np.complex128))
        assert session.finish() == []  # idempotent

    def test_session_counters_reach_tracer(self):
        tracer = Tracer()
        _, session, _ = drive(["ok", "dark", "fail"], tracer=tracer)
        assert tracer.counters["session.windows"] == session.stats["windows"]
        assert tracer.counters["session.windows_live"] == 2
        assert tracer.counters["session.windows_skipped"] >= 1
        assert tracer.counters["session.frames"] == session.stats["frames"]

    def test_cross_window_duplicate_is_counted(self):
        """A frame the next window decodes again is dropped as a repeat
        of the previous window's frame and counted as a duplicate."""

        class RepeatingStream(ScriptedStream):
            def decode_window(self, window, pos, previous, corr=None):
                report = SimpleNamespace(
                    frames=[SimpleNamespace(success=True)],
                    detections=[SimpleNamespace(user_id=0, score=0.9, offset=0, strongest=None)],
                )
                if any(f.payload == b"same" for f in previous):
                    return [], report
                return [StreamFrame(user_id=0, payload=b"same", start_sample=HOP - 1)], report

        tracer = Tracer()
        session = SessionSupervisor(RepeatingStream(["ok", "ok"]), tracer=tracer)
        session.feed(np.zeros(3 * HOP, dtype=np.complex128))
        assert session.stats["frames"] == 1
        assert session.stats["duplicates"] == 1
        assert tracer.counters[C.SESSION_DUPLICATES] == 1


class TestCheckpoint:
    def _run_and_checkpoint(self, tmp_path, outcomes=("ok", "fail", "ok", "ok")):
        stream, session, emitted = drive(list(outcomes))
        path = session.checkpoint(tmp_path / "session.jsonl")
        return session, emitted, path

    def test_roundtrip_restores_full_state(self, tmp_path):
        session, _, path = self._run_and_checkpoint(tmp_path)
        assert len(session._last_frames) == 1  # the last window's frame
        restored = SessionSupervisor.restore(path, ScriptedStream())
        assert restored.position == session.position
        assert restored.samples_fed == session.samples_fed
        assert restored.state is session.state
        assert restored.stats == session.stats
        assert restored.health_history == session.health_history
        assert restored._recent == session._recent
        assert restored._last_frames == session._last_frames

    def test_checkpoint_is_atomic_jsonl_with_header(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["format"] == CHECKPOINT_FORMAT
        assert not path.with_name(path.name + ".tmp").exists()

    def _rewrite_header(self, path, **overrides):
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        lines[0].update(overrides)
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "state"}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            SessionSupervisor.restore(path, ScriptedStream())

    def test_wrong_format_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        self._rewrite_header(path, format="cbma-sweep")
        with pytest.raises(ValueError, match="not a session checkpoint"):
            SessionSupervisor.restore(path, ScriptedStream())

    def test_wrong_version_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        self._rewrite_header(path, version=99)
        with pytest.raises(ValueError, match="version"):
            SessionSupervisor.restore(path, ScriptedStream())

    def test_version_2_rejected_by_name(self, tmp_path):
        """A checkpoint written before one window owned each frame holds
        dedup and pending records; it is refused, naming its version."""
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        lines[0]["version"] = 2
        old = [dict(r, type="dedup") if r["type"] == "frame" else r for r in lines]
        path.write_text("".join(json.dumps(r) + "\n" for r in old))
        with pytest.raises(ValueError, match="checkpoint version 2; .* version 3 only") as exc:
            SessionSupervisor.restore(path, ScriptedStream())
        assert str(path) in str(exc.value)

    def test_geometry_mismatch_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        other = ScriptedStream()
        other.hop_samples = HOP // 2
        with pytest.raises(ValueError, match="geometry"):
            SessionSupervisor.restore(path, other)

    def test_duplicate_state_record_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = path.read_text().splitlines()
        state = next(l for l in lines if json.loads(l)["type"] == "state")
        path.write_text("\n".join(lines + [state]) + "\n")
        with pytest.raises(ValueError, match="state records"):
            SessionSupervisor.restore(path, ScriptedStream())

    def test_every_state_field_is_required(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        state_at = next(i for i, rec in enumerate(lines) if rec["type"] == "state")
        fields = sorted(set(lines[state_at]) - {"type"})
        assert len(fields) == 9
        for key in fields:
            broken = [dict(rec) for rec in lines]
            del broken[state_at][key]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in broken))
            with pytest.raises(ValueError, match=f"missing field '{key}'") as exc:
                SessionSupervisor.restore(path, ScriptedStream())
            assert str(path) in str(exc.value)

    def test_every_frame_and_history_field_is_required(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        checked = set()
        for at, rec in enumerate(lines):
            if rec["type"] in ("header", "state") or rec["type"] in checked:
                continue
            checked.add(rec["type"])
            for key in sorted(set(rec) - {"type"}):
                broken = [dict(r) for r in lines]
                del broken[at][key]
                with pytest.raises(ValueError, match=f"missing field '{key}'") as exc:
                    SessionSupervisor.from_checkpoint_records(
                        broken, ScriptedStream(), source="migration payload"
                    )
                assert "migration payload" in str(exc.value)
        assert checked == {"frame", "history"}

    def _records(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        return [json.loads(l) for l in path.read_text().splitlines()]

    @pytest.mark.parametrize(
        "edit,problem",
        [
            (lambda stats: stats.pop("resyncs"), "missing counter 'resyncs'"),
            (lambda stats: stats.update(retries=3), "unknown counter 'retries'"),
        ],
        ids=["missing", "unknown"],
    )
    def test_stats_keys_must_match_the_counters(self, tmp_path, edit, problem):
        lines = self._records(tmp_path)
        edit(next(r for r in lines if r["type"] == "state")["stats"])
        with pytest.raises(ValueError, match=problem) as exc:
            SessionSupervisor.from_checkpoint_records(
                lines, ScriptedStream(), source="migration payload"
            )
        assert "migration payload" in str(exc.value)

    def test_missing_history_rejected(self, tmp_path):
        lines = [r for r in self._records(tmp_path) if r["type"] != "history"]
        with pytest.raises(ValueError, match="no history records"):
            SessionSupervisor.from_checkpoint_records(lines, ScriptedStream())

    @pytest.mark.parametrize("kind", ["header", "state", "frame", "history"])
    def test_unknown_field_rejected(self, tmp_path, kind):
        lines = self._records(tmp_path)
        next(r for r in lines if r["type"] == kind)["debug_name"] = "x"
        with pytest.raises(ValueError, match=f"{kind} record has unknown field 'debug_name'"):
            SessionSupervisor.from_checkpoint_records(lines, ScriptedStream())

    def test_unknown_record_type_rejected(self, tmp_path):
        lines = self._records(tmp_path) + [{"type": "trace", "window": 3}]
        with pytest.raises(ValueError, match="unknown 'trace' record"):
            SessionSupervisor.from_checkpoint_records(lines, ScriptedStream())

    def test_missing_geometry_field_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        del lines[0]["hop_samples"]
        with pytest.raises(ValueError, match="missing field 'hop_samples'"):
            SessionSupervisor.from_checkpoint_records(lines, ScriptedStream())

    def test_torn_last_line_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        text = path.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        path.write_text(text[: len(text) - len(last) // 2 - 1])  # kill mid-line
        with pytest.raises(ValueError, match="not a JSON record") as exc:
            SessionSupervisor.restore(path, ScriptedStream())
        assert str(path) in str(exc.value)

    def test_corrupt_line_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = "\x00\x00garbage" + lines[1][9:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2 is not a JSON record") as exc:
            SessionSupervisor.restore(path, ScriptedStream())
        assert str(path) in str(exc.value)

    def test_truncated_after_header_rejected(self, tmp_path):
        _, _, path = self._run_and_checkpoint(tmp_path)
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="0 state records") as exc:
            SessionSupervisor.restore(path, ScriptedStream())
        assert str(path) in str(exc.value)

    def test_checkpoint_fsyncs_file_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        session, _, _ = self._run_and_checkpoint(tmp_path)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = session.checkpoint(tmp_path / "durable.jsonl")
        assert events == [("fsync", "file"), ("replace", "durable.jsonl"), ("fsync", "dir")]
        assert SessionSupervisor.restore(path, ScriptedStream()).position == session.position
