"""Fixture-driven tests for every lint rule: ids, line numbers, and
zero findings on the "good" twins.

The fixture files live under ``tests/lint/fixtures/`` -- a directory
the lint walker deliberately skips (they contain violations on
purpose) -- and are fed through :func:`repro.lint.lint_source` here
with ``is_test=False`` so the src-only rules run too.
"""

import re
from pathlib import Path

import pytest

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, select=None):
    path = FIXTURES / name
    return lint_source(path.read_text(), path=str(path), is_test=False, select=select)


def ids_and_lines(violations):
    return [(v.rule_id, v.line) for v in violations]


# ----------------------------------------------------------------------
# LNT001 unseeded-rng
# ----------------------------------------------------------------------


def test_lnt001_flags_every_global_rng_call():
    found = ids_and_lines(lint_fixture("bad_rng.py", select=["LNT001"]))
    assert found == [
        ("LNT001", 10),  # np.random.normal
        ("LNT001", 11),  # np.random.default_rng()
        ("LNT001", 12),  # random.random()
        ("LNT001", 13),  # default_rng() from-import
        ("LNT001", 14),  # standard_normal from-import
        ("LNT001", 15),  # random.Random()
    ]


def test_lnt001_clean_on_seeded_idioms():
    assert lint_fixture("good_rng.py", select=["LNT001"]) == []


def test_lnt001_exempts_test_files():
    source = "import numpy as np\nx = np.random.normal()\n"
    assert lint_source(source, path="tests/test_x.py", is_test=True) == []
    assert len(lint_source(source, path="src/m.py", is_test=False)) == 1


# ----------------------------------------------------------------------
# LNT003 float-equality
# ----------------------------------------------------------------------


def test_lnt003_flags_float_literal_equality():
    found = ids_and_lines(lint_fixture("bad_floateq.py", select=["LNT003"]))
    assert found == [("LNT003", 5), ("LNT003", 7), ("LNT003", 9)]


def test_lnt003_clean_on_tolerances_ints_and_orderings():
    assert lint_fixture("good_floateq.py", select=["LNT003"]) == []


def test_lnt003_exempts_test_files():
    source = "def check(x):\n    assert x == 0.5\n"
    assert lint_source(source, path="tests/test_x.py", is_test=True) == []


# ----------------------------------------------------------------------
# LNT005 public-api (per-file __all__ pass; the docs cross-check is
# exercised project-wide in test_engine.py)
# ----------------------------------------------------------------------


def test_lnt005_flags_phantom_all_export():
    violations = lint_fixture("bad_api.py", select=["LNT005"])
    assert ids_and_lines(violations) == [("LNT005", 3)]
    assert "phantom" in violations[0].message


def test_lnt005_accepts_bound_exports():
    source = '__all__ = ["a", "B"]\n\na = 1\n\n\nclass B:\n    pass\n'
    assert lint_source(source, select=["LNT005"]) == []


# ----------------------------------------------------------------------
# LNT006 blanket-except
# ----------------------------------------------------------------------


def test_lnt006_flags_bare_and_silent_broad_excepts():
    found = ids_and_lines(lint_fixture("bad_excepts.py", select=["LNT006"]))
    assert found == [("LNT006", 7), ("LNT006", 11), ("LNT006", 15)]


def test_lnt006_clean_on_narrow_or_recording_handlers():
    assert lint_fixture("good_excepts.py", select=["LNT006"]) == []


def test_lnt006_sanctions_the_containment_sites():
    source = "def f(w):\n    try:\n        w()\n    except Exception:\n        pass\n"
    sanctioned = lint_source(
        source, path="src/repro/receiver/failures.py", is_test=False, select=["LNT006"]
    )
    assert sanctioned == []
    elsewhere = lint_source(
        source, path="src/repro/receiver/receiver.py", is_test=False, select=["LNT006"]
    )
    assert len(elsewhere) == 1


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------


def test_suppression_line_file_and_all():
    violations = lint_fixture("suppressed.py")
    # Only the unsuppressed LNT001 at the end survives.
    assert ids_and_lines(violations) == [("LNT001", 16)]


def documented_rule_ids():
    """Rule ids in the table of ``repro.lint.rules``' docstring."""
    import repro.lint.rules

    lines = repro.lint.rules.__doc__.splitlines()
    return [line.split()[0] for line in lines if re.match(r"LNT\d{3}\s", line)]


@pytest.mark.parametrize("rule_id", documented_rule_ids())
def test_every_rule_is_registered_with_metadata(rule_id):
    from repro.lint import REGISTRY

    rule = REGISTRY[rule_id]
    assert rule.name
    assert rule.rationale


def test_rule_table_matches_registry():
    """A retired rule cannot leave a stale row, nor a new rule go
    undocumented."""
    from repro.lint import REGISTRY

    assert sorted(documented_rule_ids()) == sorted(REGISTRY)
