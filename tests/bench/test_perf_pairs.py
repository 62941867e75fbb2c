"""``scripts/perf_pairs.py`` keeps going past a run that prints nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "scripts" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(value):
    # ``failed`` is perfbench's own count of failed operations.
    return {
        "correct": True,
        "failed": 2,
        "metrics": {"realtime_factor": {"value": value}, "cycle_p50_ms": {"value": 10.0}},
    }


def test_failed_run_is_recorded_and_the_pairs_go_on(perf_pairs, monkeypatch, tmp_path, capsys):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed))
        if checkout.name == "base" and seed == 11:
            return {"no_result": True, "exit_code": -9, "stderr_tail": "harvest timed out\nworker 0 alive"}
        return _result(2.0 if checkout.name == "base" else 2.5)

    monkeypatch.setattr(perf_pairs, "run_once", fake_run_once)
    (tmp_path / "base").mkdir()
    change = tmp_path / "change"
    change.mkdir()
    bench = {"end_to_end": [{"name": "realtime_factor", "better": "higher", "bound": 0.25}]}
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    out = tmp_path / "runs.jsonl"

    code = perf_pairs.main([
        "--base", str(tmp_path / "base"), "--change", str(change),
        "--workload", "stream_dense", "--pairs", "3", "--seed", "10", "--out", str(out),
    ])

    assert code == 1
    assert len(calls) == 6  # every pair ran after the failure
    summary = capsys.readouterr().out
    assert "stream_dense: 2 pairs, 1 incomplete" in summary
    assert "incomplete pair, seed 11: base failed, exit -9: worker 0 alive" in summary
    assert "2/2" in summary
    kept = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(kept) == 6 and sum(bool(r.get("no_result")) for r in kept) == 1


def test_run_that_prints_nothing_comes_back_failed(perf_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('killed by the harvest timeout', file=sys.stderr)\nsys.exit(3)\n"
    )
    result = perf_pairs.run_once(tmp_path, "stream_dense", 1, 8.0, 0)
    assert result == {
        "no_result": True, "exit_code": 3, "stderr_tail": "killed by the harvest timeout",
    }
