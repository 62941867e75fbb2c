"""``scripts/perf_pairs.py`` keeps going past a run that prints nothing,
prints each side's failed share, and calls a metric whose parent runs
spread wider than its bound unresolved."""

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


def _runs(base, change, failed=(0, 0), attempted=100):
    """One complete pair per value, base then change, on seeds 0..n-1."""
    runs = []
    for seed, (b, c) in enumerate(zip(base, change)):
        for side, value, bad in (("base", b, failed[0]), ("change", c, failed[1])):
            runs.append({
                "side": side, "workload": "stream_dense", "seed": seed, "correct": True,
                "failed": bad, "attempted": attempted,
                "metrics": {"realtime_factor": {"value": value}},
            })
    return runs


_METRIC = [{"name": "realtime_factor", "better": "higher", "bound": 0.25}]


def _verdict_line(summary):
    (line,) = [l for l in summary.splitlines() if l.strip().startswith("realtime_factor")]
    return line


def test_parent_spread_wider_than_the_bound_is_unresolved(perf_pairs):
    # Parent IQR 1.0 around a median of 2.5 (40%) against a 25% bound.
    base = [1.5, 2.0, 2.5, 3.0, 3.5]
    line = _verdict_line(perf_pairs.summarise(_runs(base, [1.0, 1.5, 2.0, 2.5, 3.0]), _METRIC))
    assert line.endswith("unresolved")
    # Unless every change run beats every parent run.
    line = _verdict_line(perf_pairs.summarise(_runs(base, [4.0, 4.5, 5.0, 5.5, 6.0]), _METRIC))
    assert line.endswith("gain")
    # A tight parent still reads the median against the bound.
    line = _verdict_line(perf_pairs.summarise(_runs([2.0] * 5, [1.4] * 5), _METRIC))
    assert line.endswith("beyond bound")


def test_each_sides_failed_share_is_printed(perf_pairs):
    summary = perf_pairs.summarise(_runs([2.0] * 3, [2.0] * 3, failed=(0, 5), attempted=200), _METRIC)
    assert "base: 3/3 runs correct, 0/600 operations failed (0.00%)" in summary
    assert "change: 3/3 runs correct, 15/600 operations failed (2.50%)" in summary


def test_record_appends_one_record_per_side(perf_pairs, monkeypatch, tmp_path):
    monkeypatch.setattr(
        perf_pairs, "run_once",
        lambda checkout, workload, seed, seconds, trace: _result(2.0 if checkout.name == "base" else 2.0 + seed),
    )
    monkeypatch.setattr(perf_pairs, "_commit", lambda checkout: {"commit": checkout.name, "dirty": False})
    (tmp_path / "base").mkdir()
    change = tmp_path / "change"
    change.mkdir()
    bench = {"end_to_end": [
        {"name": "realtime_factor", "better": "higher", "bound": 0.25},
        {"name": "cycle_p50_ms", "better": "lower", "bound": 0.25},
    ]}
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    trajectory = tmp_path / "BENCH.json"
    args = ["--base", str(tmp_path / "base"), "--change", str(change), "--workload", "gateway_spike",
            "--pairs", "3", "--seed", "1", "--seconds", "4", "--record", str(trajectory)]

    assert perf_pairs.main(args) == 0
    assert perf_pairs.main(args) == 0  # a second call appends

    doc = json.loads(trajectory.read_text())
    assert doc["schema"] == perf_pairs.RECORD_SCHEMA
    assert [r["side"] for r in doc["records"]] == ["base", "change"] * 2
    base, change_rec = doc["records"][:2]
    assert change_rec["commit"] == "change" and change_rec["seconds"] == 4.0
    spike = change_rec["workloads"]["gateway_spike"]
    assert spike["seeds"] == [1, 2, 3] and spike["correct"] == 3
    assert spike["metrics"]["realtime_factor"] == [3.5, 4.0, 4.5]
    assert base["workloads"]["gateway_spike"]["metrics"]["cycle_p50_ms"] == [10.0, 10.0, 10.0]


def test_record_refuses_traced_runs(perf_pairs, tmp_path):
    with pytest.raises(SystemExit):
        perf_pairs.main(["--base", str(tmp_path), "--workload", "stream_dense", "--seed", "1",
                         "--trace", "1", "--record", str(tmp_path / "BENCH.json")])
