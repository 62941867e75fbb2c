"""Rule engine of ``repro lint``: contexts, registry, suppression, runner.

The engine is deliberately small: every file is parsed once into an
AST, each registered :class:`Rule` walks it and yields
:class:`Violation` records, and suppression comments filter the result.
Project-wide rules (LNT005's docs cross-check) additionally implement
:meth:`Rule.finalize`, which runs once after every file was read.

Suppression syntax (documented in ``docs/static-analysis.md``)::

    x = 1.0 == y  # repro-lint: disable=LNT003
    # repro-lint: disable-file=LNT001,LNT006   (anywhere in the file)

``disable=all`` silences every rule for that line/file.  The walker
skips ``__pycache__``, hidden directories, and any directory named
``fixtures`` (lint-rule test fixtures contain violations on purpose
and are linted through :func:`lint_source` directly by their tests).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "FileContext",
    "Project",
    "Rule",
    "REGISTRY",
    "register",
    "lint_source",
    "lint_paths",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)

_SKIP_DIRS = {"__pycache__", "fixtures"}


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and why."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class FileContext:
    """One parsed source file plus everything rules need to know about it."""

    path: Path
    source: str
    tree: ast.Module
    is_test: bool
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    @property
    def module_name(self) -> Optional[str]:
        """Dotted module path when the file sits under a ``src`` root."""
        parts = self.path.parts
        if "src" in parts:
            rel = parts[parts.index("src") + 1 :]
            if rel and rel[-1].endswith(".py"):
                mod = list(rel[:-1])
                stem = rel[-1][: -len(".py")]
                if stem != "__init__":
                    mod.append(stem)
                return ".".join(mod)
        return None

    def suppressed(self, rule_id: str, line: int) -> bool:
        for pool in (self.file_suppressions, self.line_suppressions.get(line, set())):
            if "all" in pool or rule_id in pool:
                return True
        return False

    @classmethod
    def parse(cls, path: Path, source: str, is_test: Optional[bool] = None) -> "FileContext":
        tree = ast.parse(source, filename=str(path))
        if is_test is None:
            is_test = _looks_like_test(path)
        ctx = cls(path=path, source=source, tree=tree, is_test=is_test)
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            ids = {part.strip() for part in m.group("ids").split(",") if part.strip()}
            ids = {i if i == "all" else i.upper() for i in ids}
            if m.group("scope") == "disable-file":
                ctx.file_suppressions |= ids
            else:
                ctx.line_suppressions.setdefault(lineno, set()).update(ids)
        return ctx


def _looks_like_test(path: Path) -> bool:
    if any(part in ("tests", "test") for part in path.parts):
        return True
    name = path.name
    return name.startswith("test_") or name in ("conftest.py",)


@dataclass
class Project:
    """Every file of one lint run, plus the repository root (if found)."""

    files: List[FileContext] = field(default_factory=list)
    root: Optional[Path] = None

    def module(self, dotted: str) -> Optional[FileContext]:
        for ctx in self.files:
            if ctx.module_name == dotted:
                return ctx
        return None


class Rule:
    """Base class; subclasses register themselves via :func:`register`.

    ``check_tests`` controls whether the per-file pass runs on test
    files -- determinism (LNT001) and float-equality (LNT003) rules
    exempt tests, where unseeded fixtures and exact golden comparisons
    are the point rather than a bug.
    """

    rule_id: str = ""
    name: str = ""
    rationale: str = ""
    check_tests: bool = True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def finalize(self, project: Project) -> Iterator[Violation]:
        return iter(())

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


#: rule id -> rule instance, populated by :func:`register` at import of
#: :mod:`repro.lint.rules`.
REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one rule instance to :data:`REGISTRY`."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if rule.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    REGISTRY[rule.rule_id] = rule
    return cls


def _ensure_rules_loaded() -> None:
    from repro.lint import rules as _rules  # noqa: F401  (import registers)


def _selected(select: Optional[Sequence[str]]) -> List[Rule]:
    _ensure_rules_loaded()
    if select is None:
        return [REGISTRY[k] for k in sorted(REGISTRY)]
    missing = [s for s in select if s not in REGISTRY]
    if missing:
        raise ValueError(f"unknown rule id(s): {', '.join(missing)}")
    return [REGISTRY[k] for k in sorted(select)]


def lint_source(
    source: str,
    path: str = "<string>",
    is_test: bool = False,
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one in-memory source blob (the fixture-test entry point).

    Runs the per-file pass only; project-wide finalizers need
    :func:`lint_paths`.  Suppression comments are honoured.
    """
    ctx = FileContext.parse(Path(path), source, is_test=is_test)
    out: List[Violation] = []
    for rule in _selected(select):
        if ctx.is_test and not rule.check_tests:
            continue
        for v in rule.check(ctx):
            if not ctx.suppressed(v.rule_id, v.line):
                out.append(v)
    return sorted(out)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """All lintable ``.py`` files under *paths* (files pass through)."""
    seen: Set[Path] = set()
    for p in paths:
        if p.is_file() and p.suffix == ".py":
            if p not in seen:
                seen.add(p)
                yield p
            continue
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                rel = sub.relative_to(p)
                if any(part in _SKIP_DIRS or part.startswith(".") for part in rel.parts):
                    continue
                if sub not in seen:
                    seen.add(sub)
                    yield sub


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor containing ``pyproject.toml`` (the repo root)."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Violation], List[str]]:
    """Lint files/directories; returns ``(violations, errors)``.

    *errors* are files that could not be read or parsed -- reported
    separately so a syntax error does not masquerade as a clean run.
    """
    rules = _selected(select)
    project = Project()
    errors: List[str] = []
    resolved = [Path(p) for p in paths]
    for p in resolved:
        if not p.exists():
            errors.append(f"{p}: no such file or directory")
    for path in iter_python_files([p for p in resolved if p.exists()]):
        try:
            source = path.read_text(encoding="utf-8")
            project.files.append(FileContext.parse(path, source))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{path}: {exc}")
    for p in resolved:
        if p.exists():
            project.root = find_project_root(p)
            if project.root is not None:
                break

    by_path: Dict[str, FileContext] = {str(ctx.path): ctx for ctx in project.files}
    out: List[Violation] = []
    for ctx in project.files:
        for rule in rules:
            if ctx.is_test and not rule.check_tests:
                continue
            try:
                out.extend(
                    v for v in rule.check(ctx) if not ctx.suppressed(v.rule_id, v.line)
                )
            except Exception as exc:  # internal rule bug: reported, never swallowed
                errors.append(f"{ctx.path}: internal error in {rule.rule_id}: {exc!r}")
    for rule in rules:
        try:
            for v in rule.finalize(project):
                ctx_for = by_path.get(v.path)
                if ctx_for is not None and ctx_for.suppressed(v.rule_id, v.line):
                    continue
                out.append(v)
        except Exception as exc:  # internal rule bug: reported, never swallowed
            errors.append(f"internal error in {rule.rule_id}.finalize: {exc!r}")
    return sorted(out), errors


def iter_rules() -> Iterable[Rule]:
    """All registered rules in id order (for ``--list-rules`` and docs)."""
    _ensure_rules_loaded()
    return [REGISTRY[k] for k in sorted(REGISTRY)]
