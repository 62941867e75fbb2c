"""CLI smoke tests for ``repro bench``."""

import json

import pytest

from repro.bench import SCHEMA, BenchReport
from repro.cli import main


@pytest.fixture()
def tiny_suite(monkeypatch):
    """Swap the standard workloads for instant ones: the CLI tests
    exercise plumbing (report, baseline gate, exit codes), not timing."""
    from repro.bench import runner
    from repro.bench.workloads import Workload

    def fake_build(quick=False, seed=7, tier="all"):
        workloads = [
            Workload("detect_direct", {"n_tags": 2}, lambda: None, reps=2, group="detect"),
            Workload("detect_fft", {"n_tags": 2}, lambda: None, reps=2, group="detect"),
            Workload("macro_surface_lookup", {"n_points": 2}, lambda: None, reps=2, group="macro"),
        ]
        if tier != "all":
            workloads = [w for w in workloads if w.group == tier]
        return workloads

    monkeypatch.setattr(runner, "build_workloads", fake_build)


class TestBenchCommand:
    def test_writes_trajectory_file(self, tiny_suite, tmp_path, capsys):
        out = tmp_path / "BENCH_0006.json"
        assert main(["bench", "--quick", "--output", str(out)]) == 0
        report = BenchReport.load(out)
        assert report.quick is True
        assert {op.op for op in report.ops} == {
            "detect_direct",
            "detect_fft",
            "macro_surface_lookup",
        }
        stdout = capsys.readouterr().out
        assert "detect_fft" in stdout
        assert str(out) in stdout

    def test_tier_flag_filters_workloads(self, tiny_suite, tmp_path):
        out = tmp_path / "macro.json"
        assert main(["bench", "--tier", "macro", "--output", str(out)]) == 0
        report = BenchReport.load(out)
        assert {op.op for op in report.ops} == {"macro_surface_lookup"}

    @pytest.mark.parametrize("tier", ["farm", "gateway"])
    def test_retired_tiers_exit_2(self, tier, tmp_path):
        """perfbench is the one benchmark of the farm and the gateway."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--tier", tier, "--output", str(tmp_path / "b.json")])
        assert exc.value.code == 2

    def test_json_output_parses(self, tiny_suite, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "--output", str(out), "--json"]) == 0
        stdout = capsys.readouterr().out
        data = json.loads(stdout[: stdout.rindex("}") + 1])
        assert data["schema"] == SCHEMA

    def test_baseline_gate_passes_against_self(self, tiny_suite, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["bench", "--output", str(base)]) == 0
        out = tmp_path / "b.json"
        assert (
            main(["bench", "--output", str(out), "--baseline", str(base),
                  "--max-regression", "1e9"]) == 0
        )

    def test_baseline_regression_fails(self, tiny_suite, tmp_path, capsys):
        """An impossibly strict factor makes any nonzero latency a
        regression: the command must exit nonzero and say why."""
        base = tmp_path / "base.json"
        assert main(["bench", "--output", str(base)]) == 0
        baseline = BenchReport.load(base)
        assert all(op.p50_s > 0 for op in baseline.ops)
        out = tmp_path / "b.json"
        rc = main(["bench", "--output", str(out), "--baseline", str(base),
                   "--max-regression", "1e-12"])
        assert rc == 1
        assert "regress" in capsys.readouterr().out.lower()
