"""Mini-project fixtures for the cross-module rule (LNT007).

Each project under ``tests/lint/fixtures/projects/`` is a tiny
``src/repro/...`` tree whose violations span two modules -- none of
them is detectable by a per-file pass, so these tests fail if the
project index stops resolving across files.  The trees are copied to
``tmp_path`` before linting: under ``tests/`` they would be classified
as test files, which the rule exempts.
"""

import shutil
from pathlib import Path

from repro.lint import lint_paths

PROJECTS = Path(__file__).parent / "fixtures" / "projects"


def lint_project(name, tmp_path, select):
    target = tmp_path / name
    shutil.copytree(PROJECTS / name, target)
    violations, errors = lint_paths([target], select=select)
    assert errors == []
    return violations


def by_file_line(violations):
    return sorted((Path(v.path).name, v.line, v.message) for v in violations)


# ----------------------------------------------------------------------
# LNT007 fork-safety
# ----------------------------------------------------------------------


def test_lnt007_flags_hazards_only_in_the_fork_closure(tmp_path):
    violations = lint_project("forksafety", tmp_path, select=["LNT007"])
    found = by_file_line(violations)
    files = {f for f, _line, _msg in found}
    # All findings are in the module the worker imports...
    assert files == {"state.py"}
    # ...never in the structurally identical module outside the closure.
    assert all("offline.py" not in f for f, _line, _msg in found)
    messages = [msg for _f, _line, msg in found]
    assert any("_LOG" in m and "live handle" in m for m in messages)
    assert any("_RNG" in m and "RNG" in m for m in messages)
    assert any("_SEEN" in m and "remember" in m for m in messages)
    assert len(found) == 3


def test_lnt007_suppression_and_local_shadow_are_respected(tmp_path):
    violations = lint_project("forksafety", tmp_path, select=["LNT007"])
    messages = " ".join(v.message for v in violations)
    assert "_MEMO" not in messages  # line-suppressed handle
    assert "forget_local" not in messages  # local shadow, not the global
    assert "fresh_rng" not in messages  # per-call construction is safe
