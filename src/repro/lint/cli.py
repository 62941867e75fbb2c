"""The ``repro lint`` subcommand (also ``python -m repro.lint``).

Exit codes: 0 clean, 1 violations found, 2 parse/internal errors.
Output is one ``path:line:col: LNTxxx message`` line per finding -- the
format editors and CI annotations already understand -- or a SARIF
2.1.0 document via ``--format sarif``.  A finding is accepted in place
with a ``# repro-lint: disable=LNTxxx`` comment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import find_project_root, iter_rules, lint_paths
from repro.lint.sarif import to_sarif

__all__ = ["main", "add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with the repro CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "sarif"],
        default="text",
        dest="output_format",
        help="finding output format",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id}  {rule.name:<18} {rule.rationale}")
        return 0
    select = None
    if args.select:
        select = [s.strip().upper() for s in args.select.split(",") if s.strip()]
    try:
        violations, errors = lint_paths(args.paths, select=select)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    for err in errors:
        print(f"repro lint: {err}", file=sys.stderr)

    if args.output_format == "sarif":
        root = None
        for p in args.paths:
            root = find_project_root(Path(p))
            if root is not None:
                break
        print(json.dumps(to_sarif(violations, iter_rules(), root=root), indent=2))
    else:
        for v in violations:
            print(v.format())
        if violations or errors:
            print(f"\n{len(violations)} finding(s), {len(errors)} error(s)")
    if errors:
        return 2
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="domain-aware static analysis (rule catalog: --list-rules)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
