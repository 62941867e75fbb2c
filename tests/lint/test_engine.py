"""Engine-level lint tests: tree walking, project finalizers, select
validation, self-hosting on the real codebase, and CLI exit codes."""

from pathlib import Path

import pytest

from repro.lint import REGISTRY, lint_paths, lint_source
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Engine behavior
# ----------------------------------------------------------------------


def test_select_rejects_unknown_rule_id():
    with pytest.raises(ValueError, match="LNT999"):
        lint_source("x = 1\n", select=["LNT999"])


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    violations, errors = lint_paths([bad])
    assert violations == []
    assert len(errors) == 1
    assert "broken.py" in errors[0]


def test_walker_skips_fixture_and_pycache_dirs(tmp_path):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "planted.py").write_text("import numpy as np\nnp.random.normal()\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "cached.py").write_text("import random\nrandom.random()\n")
    (tmp_path / "ok.py").write_text("x = 1\n")
    violations, errors = lint_paths([tmp_path])
    assert violations == []
    assert errors == []


def test_violation_format_is_path_line_col_rule():
    (violation,) = lint_source("import random\nx = random.random()\n", path="src/m.py")
    text = violation.format()
    assert text.startswith("src/m.py:2:")
    assert "LNT001" in text


def test_self_hosting_zero_findings_on_real_tree():
    violations, errors = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert errors == []
    assert violations == []


# ----------------------------------------------------------------------
# LNT005 project finalizer (docs/api.md cross-check) on a mini-project
# ----------------------------------------------------------------------


def make_project(tmp_path, doc_sig="(data, strict=False)", code_params=("data", "strict")):
    (tmp_path / "pyproject.toml").write_text('[project]\nname = "mini"\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    docs.joinpath("api.md").write_text(f"# API\n\n- `repro.mini.Thing.from_dict{doc_sig}`\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    args = ", ".join(code_params)
    pkg.joinpath("mini.py").write_text(
        "class Thing:\n"
        "    @classmethod\n"
        f"    def from_dict(cls, {args}):\n"
        "        return cls()\n"
    )
    return tmp_path


def test_lnt005_finalizer_clean_when_docs_match(tmp_path):
    root = make_project(tmp_path)
    violations, errors = lint_paths([root / "src"], select=["LNT005"])
    assert errors == []
    assert violations == []


def test_lnt005_finalizer_flags_signature_drift(tmp_path):
    root = make_project(tmp_path, doc_sig="(data, bogus_arg)")
    violations, errors = lint_paths([root / "src"], select=["LNT005"])
    assert errors == []
    assert [v.rule_id for v in violations] == ["LNT005"]
    (violation,) = violations
    assert "from_dict" in violation.message
    assert "bogus_arg" in violation.message
    assert violation.path.endswith("docs/api.md")


def test_lnt005_finalizer_flags_factory_missing_from_code(tmp_path):
    root = make_project(tmp_path)
    api = root / "docs" / "api.md"
    api.write_text(api.read_text() + "- `repro.mini.Thing.from_json(text)`\n")
    violations, _ = lint_paths([root / "src"], select=["LNT005"])
    assert any("from_json" in v.message for v in violations)


def test_lnt005_flags_undocumented_from_config(tmp_path):
    root = make_project(tmp_path)
    farm = root / "src" / "repro" / "farm.py"
    farm.write_text(
        "class Farm:\n"
        "    @classmethod\n"
        "    def from_config(cls, config):\n"
        "        return cls()\n"
    )
    violations, errors = lint_paths([root / "src"], select=["LNT005"])
    assert errors == []
    (violation,) = violations
    assert "repro.farm.Farm.from_config" in violation.message
    assert "not documented" in violation.message
    assert violation.path.endswith("farm.py")


def test_lnt005_documented_from_config_is_clean(tmp_path):
    root = make_project(tmp_path)
    farm = root / "src" / "repro" / "farm.py"
    farm.write_text(
        "class Farm:\n"
        "    @classmethod\n"
        "    def from_config(cls, config):\n"
        "        return cls()\n"
    )
    api = root / "docs" / "api.md"
    api.write_text(api.read_text() + "- `repro.farm.Farm.from_config(config)`\n")
    violations, errors = lint_paths([root / "src"], select=["LNT005"])
    assert errors == []
    assert violations == []


def test_lnt005_private_from_config_not_required_in_docs(tmp_path):
    root = make_project(tmp_path)
    hidden = root / "src" / "repro" / "_internal.py"
    hidden.write_text(
        "class Helper:\n"
        "    @classmethod\n"
        "    def from_config(cls, config):\n"
        "        return cls()\n"
        "\n"
        "class _Private:\n"
        "    @classmethod\n"
        "    def from_config(cls, config):\n"
        "        return cls()\n"
    )
    violations, errors = lint_paths([root / "src"], select=["LNT005"])
    assert errors == []
    assert violations == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "LNT" not in capsys.readouterr().out


def test_cli_exit_one_with_rule_id_and_location(tmp_path, capsys):
    planted = tmp_path / "planted.py"
    planted.write_text("import random\nx = random.random()\n")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out
    assert "planted.py:2" in out


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/a/path"]) == 2


def test_cli_exit_two_on_unknown_select(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main(["--select", "LNT999", str(tmp_path)]) == 2


@pytest.mark.parametrize("rule_id", ["LNT004", "LNT012"])
def test_cli_retired_dtype_rules_are_unknown(tmp_path, capsys, rule_id):
    # Retired: array_contract refuses a narrow dtype at import instead.
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main(["--select", rule_id, str(tmp_path)]) == 2
    assert "unknown rule id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--baseline", "b.json"], ["--write-baseline", "b.json"], ["--format", "json"]]
)
def test_cli_retired_options_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path)])
    assert exc.value.code == 2


def test_cli_list_rules_covers_registry(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in REGISTRY:
        assert rule_id in out
