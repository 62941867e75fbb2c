"""Project-wide analysis engine under ``repro.lint``.

The per-file AST rules of LNT001..LNT006 see one module at a time; the
invariants introduced with the decode farm (fork safety of the worker
import closure, dtype flow across calls) span modules.  This package
supplies the machinery those project rules (LNT007, LNT012) are
written against:

- :mod:`repro.lint.engine.symbols` -- the cross-module project index:
  import graph, symbol table (classes, methods, functions,
  ``__all__``), an approximate call graph and entry-point
  reachability.

Per-file summaries are cached keyed on content hash
(:func:`repro.lint.engine.symbols.summarize`), so repeated project
passes -- the fixture tests re-lint constantly -- only re-derive what
changed.
"""

from repro.lint.engine.symbols import (
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
    summarize,
)

__all__ = [
    "FunctionInfo",
    "ModuleSummary",
    "ProjectIndex",
    "summarize",
]
