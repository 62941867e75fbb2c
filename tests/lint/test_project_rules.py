"""Mini-project fixtures for the cross-module rules (LNT007, LNT010,
LNT012).

Each project under ``tests/lint/fixtures/projects/`` is a tiny
``src/repro/...`` tree whose violations span two modules -- none of
them is detectable by a per-file pass, so these tests fail if the
project index stops resolving across files.  The trees are copied to ``tmp_path`` before
linting: under ``tests/`` they would be classified as test files,
which every one of these rules exempts.
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


# ----------------------------------------------------------------------
# LNT010 taxonomy coverage
# ----------------------------------------------------------------------


def test_lnt010_unreferenced_constant_and_pasted_literal(tmp_path):
    violations = lint_project("taxonomy", tmp_path, select=["LNT010"])
    found = by_file_line(violations)
    assert any(
        f == "taxonomy.py" and "C.GHOST" in msg and "never" in msg
        for f, _line, msg in found
    )
    assert any(
        f == "emitters.py" and "C.DECODED" in msg and "duplicates" in msg
        for f, _line, msg in found
    )
    assert len(found) == 2


def test_lnt010_referenced_constants_and_foreign_literals_are_quiet(tmp_path):
    violations = lint_project("taxonomy", tmp_path, select=["LNT010"])
    messages = " ".join(v.message for v in violations)
    assert "G.BACKLOG" not in messages  # referenced + suppressed literal
    assert "decode.other" not in messages  # matches no constant


# ----------------------------------------------------------------------
# LNT012 cross-module dtype flow
# ----------------------------------------------------------------------


def test_lnt012_follows_contracted_params_into_other_modules(tmp_path):
    violations = lint_project("dtypeflow", tmp_path, select=["LNT012"])
    found = by_file_line(violations)
    assert all(f == "frontend.py" for f, _line, _msg in found)  # call sites
    assert any("widens its `x`" in msg or "widens its `q`" in msg for _f, _l, msg in found)
    assert any("contracted complex128" in msg for _f, _l, msg in found)
    assert len(found) == 2


def test_lnt012_narrow_callees_and_suppression_are_quiet(tmp_path):
    violations = lint_project("dtypeflow", tmp_path, select=["LNT012"])
    lines = {v.line for v in violations}
    source = (PROJECTS / "dtypeflow" / "src" / "repro" / "dsp" / "frontend.py").read_text()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "narrow_contract(x)" in text or "keep_narrow(x)" in text or "disable" in text:
            assert lineno not in lines
