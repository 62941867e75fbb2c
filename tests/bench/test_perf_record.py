"""``benchmarks/BENCH_0010.json``, the committed speed trajectory that
``scripts/perf_pairs.py --record`` appends to: its schema, and workload
and metric names that match ``BENCHMARK.json``."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(name):
    return json.loads((ROOT / name).read_text())


def _record_schema():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "scripts" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RECORD_SCHEMA, module.SIDES


def test_every_record_names_known_workloads_and_metrics():
    doc = _load("benchmarks/BENCH_0010.json")
    bench = _load("BENCHMARK.json")
    schema, sides = _record_schema()
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert doc["schema"] == schema
    assert doc["records"]
    for record in doc["records"]:
        assert set(record) == {"side", "commit", "dirty", "seconds", "workloads"}
        assert record["side"] in sides
        assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
        assert isinstance(record["dirty"], bool)
        assert record["seconds"] > 0
        assert record["workloads"] and set(record["workloads"]) <= workloads
        for entry in record["workloads"].values():
            assert set(entry) == {"seeds", "correct", "metrics"}
            assert entry["seeds"] and all(isinstance(s, int) for s in entry["seeds"])
            assert 0 <= entry["correct"] <= len(entry["seeds"])
            assert set(entry["metrics"]) == metrics
            for q1, median, q3 in entry["metrics"].values():
                assert q1 <= median <= q3
