"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestRunCommand:
    def test_basic_run(self, capsys):
        assert main(["run", "--tags", "2", "--rounds", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FER" in out
        assert "goodput" in out

    def test_power_control_flag(self, capsys):
        assert main([
            "run", "--tags", "2", "--rounds", "4", "--power-control", "--seed", "3",
        ]) == 0
        assert "power control" in capsys.readouterr().out

    def test_code_family_option(self, capsys):
        assert main([
            "run", "--tags", "2", "--rounds", "4",
            "--code-family", "gold", "--code-length", "31",
        ]) == 0
        assert "gold-31" in capsys.readouterr().out


class TestExperimentCommand:
    def test_fig12(self, capsys):
        assert main(["experiment", "fig12", "--rounds", "10"]) == 0
        out = capsys.readouterr().out
        assert "OFDM excitation" in out

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_fig11_plots_series(self, capsys):
        assert main(["experiment", "fig11", "--rounds", "8"]) == 0
        out = capsys.readouterr().out
        assert "error rate" in out


class TestFieldCommand:
    def test_field(self, capsys):
        assert main(["field", "--resolution", "15"]) == 0
        out = capsys.readouterr().out
        assert "dBm" in out


class TestProfileCommand:
    def test_table_output(self, capsys):
        assert main(["profile", "--tags", "4", "--rounds", "3"]) == 0
        out = capsys.readouterr().out
        for stage in ("frame_sync", "detect", "decode", "crc", "sic"):
            assert stage in out, f"stage {stage} missing from profile output"
        assert "error budget" in out
        assert "FER" in out

    def test_standard_receiver(self, capsys):
        assert main([
            "profile", "--tags", "2", "--rounds", "3", "--receiver", "standard",
        ]) == 0
        out = capsys.readouterr().out
        assert "decode" in out and "sic" not in out.split("error budget")[0].split()

    def test_json_output_parses(self, capsys):
        assert main(["profile", "--tags", "4", "--rounds", "4", "--json"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        events = [json.loads(line) for line in lines]
        types = {e["type"] for e in events}
        assert {"span", "counter", "profile"} <= types
        span_names = {e["name"] for e in events if e["type"] == "span"}
        for stage in ("frame_sync", "detect", "decode", "crc", "sic"):
            assert stage in span_names
        (profile,) = [e for e in events if e["type"] == "profile"]
        assert profile["counters"]["round.rounds"] == 4
        assert "delivered" in profile["error_budget"]

    def test_trace_file_written(self, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        assert main(["profile", "--tags", "2", "--rounds", "2", "--trace", path]) == 0
        from repro.obs import read_jsonl

        back = read_jsonl(path)
        assert back["spans"] and back["profile"] is not None

    def test_deterministic_given_seed(self, capsys):
        assert main(["profile", "--tags", "3", "--rounds", "3", "--seed", "9", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["profile", "--tags", "3", "--rounds", "3", "--seed", "9", "--json"]) == 0
        second = capsys.readouterr().out

        def counters(text):
            return {
                (e["name"]): e["value"]
                for e in (json.loads(l) for l in text.splitlines() if l.strip())
                if e["type"] == "counter"
            }

        assert counters(first) == counters(second)


class TestTraceCommands:
    def test_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert main(["trace", "record", path, "--tags", "2", "--rounds", "5"]) == 0
        data = json.loads(open(path).read())
        assert data["n_tags"] == 2
        assert len(data["rounds"]) == 5
        assert main(["trace", "replay", path]) == 0
        out = capsys.readouterr().out
        assert "replayed 5 rounds" in out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestAdaptCommand:
    def test_adapt_runs(self, capsys):
        assert main([
            "adapt", "--tags", "2", "--distance", "1.0", "--epochs", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "chosen code length" in out
        assert "goodput score" in out


class TestSystemCommand:
    def test_system_runs(self, capsys):
        assert main([
            "system", "--population", "4", "--group", "2",
            "--epochs", "2", "--rounds", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Deployment summary" in out
        assert "fairness" in out

    def test_system_with_mobility(self, capsys):
        assert main([
            "system", "--population", "4", "--group", "2",
            "--epochs", "2", "--rounds", "3", "--mobility",
        ]) == 0
        assert "Deployment summary" in capsys.readouterr().out


class TestSoakCommand:
    @pytest.mark.parametrize("shrink", [True, False], ids=["shrunk", "no-shrink"])
    def test_artifact_holds_the_first_failing_campaign(
        self, monkeypatch, tmp_path, capsys, shrink
    ):
        """Every campaign trips: the artifact is written once, for
        campaign 0, with its shrunk plan -- or under ``--no-shrink``
        its own plan."""
        from repro.sim.experiments import soak
        from repro.sim.experiments.soak import InvariantViolation, random_fault_plan

        monkeypatch.setattr(
            soak,
            "check_invariants",
            lambda *a: [InvariantViolation("ordering", "synthetic")],
        )
        artifact = tmp_path / "plan.json"
        args = ["soak", "--windows", "30", "--campaigns", "2", "--seed", "7"]
        args += ["--artifact", str(artifact)] + ([] if shrink else ["--no-shrink"])
        assert main(args) == 1
        out = capsys.readouterr().out
        assert out.count("written to") == 1
        payload = json.loads(artifact.read_text())
        assert payload["campaign"] == 0
        assert payload["violations"] == [{"name": "ordering", "detail": "synthetic"}]
        own = random_fault_plan(7, 30, 2)
        if shrink:
            assert len(payload["plan"]["faults"]) < len(own.faults)
        else:
            assert payload["plan"] == own.to_dict()

    def test_exit_2_on_bad_config(self, capsys):
        assert main(["soak", "--windows", "0"]) == 2
        assert "bad soak config" in capsys.readouterr().err


#: Each refused command line, and what its error says.
_USAGE_ERRORS = {
    "run --tags 0": "must be >= 1",
    "profile --tags 0": "must be >= 1",
    "faults --tags 0": "must be >= 1",
    "faults --rounds -3": "must be >= 1",
    "adapt --tags 0": "must be >= 1",
    "adapt --epochs 0": "must be >= 1",
    "system --group 0": "must be >= 1",
    "trace record x.json --tags 0": "must be >= 1",
    "trace record x.json --rounds 0": "must be >= 1",
    "run --rounds 0": "must be >= 1",
    "experiment fig8b --rounds 0": "must be >= 1",
    "profile --rounds -1": "must be >= 1",
    "system --rounds 0": "must be >= 1",
    "macro run --tags 0": "must be >= 1",
    "macro run --slots 0": "must be >= 1",
    "macro load --tags 0": "must be >= 1",
    "macro load --slots 0": "must be >= 1",
    "macro fire-ring --tags 0": "must be >= 1",
    "field --resolution 0": "must be >= 1",
    "run --code-length 3": "2NC length must be even",
    "run --code-family gold --code-length 32": "length 32 is not 2^n - 1",
    "run --code-family walsh --code-length 30": "order must be a power of two",
    "system --population 2": "--population 2 is below --group 4",
}


@pytest.mark.parametrize("command", list(_USAGE_ERRORS))
def test_count_flag_below_one_is_a_usage_error(command, capsys):
    """A count below 1, a code length its family cannot have, or a
    population below the group size is refused as a usage error (exit
    2, usage line) before any simulation is built."""
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro")
    assert _USAGE_ERRORS[command] in err


def _violating_gateway_soak(monkeypatch):
    """Make every gateway soak report a violation; returns the list of
    plans the soaks were given."""
    from repro.gateway import soak as gwsoak
    from repro.sim.experiments.soak import InvariantViolation
    from tests.gateway.test_soak import blank_result

    ran = []

    def fake(cfg, plan=None, tracer=None):
        ran.append(plan)
        violation = InvariantViolation("silent_drop", "synthetic")
        return blank_result(cfg, plan=plan, round_states=["full"], violations=[violation])

    monkeypatch.setattr(gwsoak, "run_gateway_soak", fake)
    return ran


class TestGatewayCommand:
    """Exit-code contract: 0 = invariants held, 1 = violations,
    2 = unusable input -- the same convention the lint CLI keeps."""

    def test_soak_exit_0_when_invariants_hold(self, capsys):
        assert main([
            "gateway", "soak", "--streams", "4", "--rounds", "3", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "all gateway invariants held" in out
        assert "ladder path" in out

    def test_soak_exit_1_on_violation(self, monkeypatch, tmp_path, capsys):
        _violating_gateway_soak(monkeypatch)
        artifact = tmp_path / "plan.json"
        rc = main([
            "gateway", "soak", "--streams", "4", "--rounds", "3",
            "--no-shrink", "--artifact", str(artifact),
        ])
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["violations"][0]["name"] == "silent_drop"
        assert payload["plan"]["faults"]

    def test_soak_replays_artifact_plan(self, monkeypatch, tmp_path, capsys):
        """``--plan`` on a written artifact runs the faults that failed,
        not the empty plan a lenient read of the wrapper would give."""
        ran = _violating_gateway_soak(monkeypatch)
        artifact = tmp_path / "plan.json"
        args = ["gateway", "soak", "--streams", "4", "--rounds", "9", "--no-shrink"]
        assert main(args + ["--random-plan", "--seed", "5", "--artifact", str(artifact)]) == 1
        assert main(args + ["--plan", str(artifact)]) == 1
        original, replayed = ran
        assert original.faults
        assert replayed.faults == original.faults
        assert replayed.seed == original.seed == 5
        capsys.readouterr()

    def test_soak_exit_2_on_unreadable_plan(self, tmp_path, capsys):
        from repro.faults import FaultPlan, TagDropout, TrafficSpike

        missing = tmp_path / "nope.json"
        assert main(["gateway", "soak", "--plan", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"faults": [{"kind": "meteor_strike"}]}')
        assert main(["gateway", "soak", "--plan", str(bad)]) == 2
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text('{"config": {}, "violations": []}')
        assert main(["gateway", "soak", "--plan", str(wrapped)]) == 2
        # The retired gateway-only schema is refused, not read leniently.
        old = tmp_path / "old.json"
        old.write_text('{"seed": 0, "faults": [{"kind": "traffic_spike", "factor": 2.0}]}')
        assert main(["gateway", "soak", "--plan", str(old)]) == 2
        # A session-soak plan parses, but the gateway has no waveform to
        # drop a tag from: refused rather than run as an empty schedule.
        session = tmp_path / "session.json"
        session.write_text(json.dumps(FaultPlan([TrafficSpike(), TagDropout()]).to_dict()))
        assert main(["gateway", "soak", "--plan", str(session)]) == 2
        err = capsys.readouterr().err
        assert err.count("unusable fault plan") == 5 and "not TagDropout" in err

    def test_soak_exit_2_on_bad_config(self, capsys):
        assert main(["gateway", "soak", "--streams", "0"]) == 2
        assert "bad soak config" in capsys.readouterr().err

    def test_soak_exit_2_on_impossible_migrate(self, capsys):
        assert main(["gateway", "soak", "--workers", "1", "--migrate-round", "1"]) == 2
        assert main(["gateway", "soak", "--rounds", "3", "--migrate-round", "3"]) == 2
        assert capsys.readouterr().err.count("bad soak config") == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["gateway"])
        assert err.value.code == 2


class TestMacroExitCodes:
    def test_validate_exit_2_on_corrupt_surface(self, tmp_path, capsys):
        corrupt = tmp_path / "surface.json"
        corrupt.write_text('{"not even')
        assert main(["macro", "validate", "--surface", str(corrupt)]) == 2
        assert "unusable FER surface" in capsys.readouterr().err

    def test_run_exit_2_on_wrong_schema(self, tmp_path, capsys):
        wrong = tmp_path / "surface.json"
        wrong.write_text(json.dumps({"schema": "something/else"}))
        assert main([
            "macro", "run", "--surface", str(wrong), "--tags", "10",
        ]) == 2
        assert "unusable FER surface" in capsys.readouterr().err
