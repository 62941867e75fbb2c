"""CLI surface added with the project-wide engine: SARIF output,
baselines, and the findings/errors split in exit codes and summary."""

import json

import pytest

from repro.lint import REGISTRY
from repro.lint.baseline import baseline_key, load_baseline, partition, write_baseline
from repro.lint.cli import main
from repro.lint.core import Violation
from repro.lint.sarif import to_sarif


def plant(tmp_path, name="planted.py", source="import random\nx = random.random()\n"):
    path = tmp_path / name
    path.write_text(source)
    return path


# ----------------------------------------------------------------------
# Exit codes and the summary line
# ----------------------------------------------------------------------


def test_summary_line_counts_findings_and_errors(tmp_path, capsys):
    plant(tmp_path)
    (tmp_path / "broken.py").write_text("def f(:\n")
    assert main([str(tmp_path)]) == 2  # errors dominate findings
    captured = capsys.readouterr()
    assert "1 finding(s), 1 error(s)" in captured.out
    assert "broken.py" in captured.err


def test_exit_one_on_findings_without_errors(tmp_path, capsys):
    plant(tmp_path)
    assert main([str(tmp_path)]) == 1
    assert "1 finding(s), 0 error(s)" in capsys.readouterr().out


def test_exit_zero_prints_no_summary_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "finding(s)" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------


def test_sarif_output_is_valid_and_locates_the_finding(tmp_path, capsys):
    plant(tmp_path)
    assert main(["--format", "sarif", str(tmp_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    (result,) = run["results"]
    assert result["ruleId"] == "LNT001"
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 2
    assert result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"].endswith(
        "planted.py"
    )


def test_sarif_rule_catalog_covers_the_registry(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main(["--format", "sarif", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert ids == set(REGISTRY)
    assert len(ids) >= 7


def test_to_sarif_relativizes_paths_against_root(tmp_path):
    v = Violation(
        path=str(tmp_path / "src" / "m.py"), line=3, col=1, rule_id="LNT001", message="x"
    )
    doc = to_sarif([v], REGISTRY.values(), root=tmp_path)
    uri = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "artifactLocation"
    ]["uri"]
    assert uri == "src/m.py"


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def test_write_then_apply_baseline_round_trip(tmp_path, capsys):
    plant(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(tmp_path)]) == 0
    assert "wrote baseline with 1 finding(s)" in capsys.readouterr().out

    # Same tree, baseline applied: clean exit, finding noted as baselined.
    assert main(["--baseline", str(baseline), str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s), 0 error(s) (1 baselined)" in out
    assert "LNT001" not in out


def test_new_finding_fails_despite_baseline(tmp_path, capsys):
    plant(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(tmp_path)]) == 0
    capsys.readouterr()
    plant(tmp_path, name="fresh.py")
    assert main(["--baseline", str(baseline), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out
    assert "planted.py" not in out
    assert "1 finding(s), 0 error(s) (1 baselined)" in out


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    plant(tmp_path)
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    assert main(["--baseline", str(bad), str(tmp_path)]) == 2
    assert "baseline" in capsys.readouterr().err or True


def test_baseline_future_version_rejected(tmp_path):
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="unsupported"):
        load_baseline(f)


def test_partition_splits_on_message_not_line():
    old = Violation(path="a.py", line=3, col=1, rule_id="LNT001", message="m")
    moved = Violation(path="a.py", line=30, col=1, rule_id="LNT001", message="m")
    changed = Violation(path="a.py", line=3, col=1, rule_id="LNT001", message="other")
    accepted = {baseline_key(old)}
    new, baselined = partition([moved, changed], accepted)
    assert baselined == [moved]  # same file/rule/message: still accepted
    assert new == [changed]  # message changed: a new finding
