"""Project-wide analysis engine under ``repro.lint``.

The per-file AST rules of LNT001..LNT006 see one module at a time; the
fork safety of the decode farm's worker import closure spans modules.
This package supplies the machinery that project rule (LNT007) is
written against:

- :mod:`repro.lint.engine.symbols` -- the cross-module project index:
  import graph, symbol table (classes, methods, functions, module
  globals), an approximate call graph and entry-point reachability.

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
