"""Domain-aware static analysis for the CBMA reproduction.

Generic linters cannot see this repo's invariants: that every random
draw must flow from a seeded generator, that a contracted
``complex64`` buffer must stay ``complex64``, that the farm's worker
import closure holds no fork-unsafe state.  ``repro.lint`` encodes
those invariants as AST rules (LNT001..LNT012 -- see
``docs/static-analysis.md`` for the catalog and the suppression
syntax) and runs them over the tree::

    python -m repro lint src tests          # CLI (exit 1 on findings)

    from repro.lint import lint_paths
    violations, errors = lint_paths(["src"])

The linter self-hosts: ``repro lint src tests`` is a CI gate and runs
clean on this repository.
"""

from repro.lint.core import (
    REGISTRY,
    FileContext,
    Project,
    Rule,
    Violation,
    iter_rules,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "Project",
    "REGISTRY",
    "register",
    "iter_rules",
    "lint_paths",
    "lint_source",
]
