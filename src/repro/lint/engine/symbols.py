"""Cross-module project index: symbols, imports, calls, reachability.

Per-file :class:`ModuleSummary` objects record what a module *defines
and touches* -- classes with their methods and typed ``self.*``
attributes, module-level functions, module-level global bindings, and
every import edge.  Summaries are derived once per file content
(:func:`summarize` caches on a sha256 of the source), so repeated
project passes only re-analyse files that changed.

:class:`ProjectIndex` stitches summaries into the project-wide views
the cross-module rule (LNT007, fork safety) consumes:

- the **import graph** and its transitive closure
  (:meth:`ProjectIndex.reachable_modules`) -- what code is pulled in
  when ``repro.farm.worker`` is imported into a fork;
- **class resolution across modules** (bases followed through
  ``from x import Base``) with a linearised MRO for method lookup;
- an **approximate call graph**: bare names resolve through local
  definitions and ``from``-imports, ``alias.attr`` through module
  aliases, ``self.m`` through the enclosing class's MRO, and
  ``obj.m`` falls back to the project-unique bare method name when
  exactly one exists.  Calling a class marks all of its methods
  reachable (constructor plus virtual dispatch, conservatively);
- **entry-point reachability** (:meth:`ProjectIndex.reachable_functions`)
  -- the closure the fork-safety rule restricts itself to, so
  violations are reported only where a worker can actually execute
  them.

The resolution is deliberately approximate (no type inference): it
over-approximates dispatch targets for reachability-style rules while
staying precise enough that the unique-name fallback does not invent
edges between unrelated helpers.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "ProjectIndex",
    "summarize",
    "call_target",
]

#: Call-target shapes produced by :func:`call_target`:
#: ``("name", f)`` | ``("self", m)`` | ``("dotted", base, m)`` |
#: ``("method", m)`` (attribute call on a non-Name expression).
CallTarget = Tuple[str, ...]


def call_target(node: ast.Call) -> Optional[CallTarget]:
    """Normalise a call expression into a resolvable target tuple."""
    func = node.func
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return ("self", func.attr)
            return ("dotted", base.id, func.attr)
        # self.attr.m() -- resolvable through the attribute's annotation
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return ("selfattr", base.attr, func.attr)
        # self.table[key].m() -- through the container's element type
        if isinstance(base, ast.Subscript):
            inner = base.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                return ("selfelem", inner.attr, func.attr)
        return ("method", func.attr)
    return None


@dataclass
class FunctionInfo:
    """One function or method definition, with its outgoing calls."""

    name: str
    qualname: str  # "fn" or "Class.fn"
    module: Optional[str]
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    calls: List[CallTarget] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Project-unique handle (used as the reachability set element)."""
        return f"{self.module or self.path}:{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition: bases as written, methods, typed ``self.*`` attributes."""

    name: str
    module: Optional[str]
    path: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.x`` -> class name, from annotations (``self.x: T``) or
    #: constructor-shaped assignments (``self.x = T(...)`` /
    #: ``self.x = T.from_config(...)``).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``self.x[...]`` -> element class name, from ``Dict[...]``/
    #: ``List[...]`` annotations.
    attr_elem_types: Dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module or self.path}:{self.name}"


@dataclass
class ModuleSummary:
    """Everything the project index needs to know about one module."""

    path: str
    module: Optional[str]
    content_hash: str
    tree: ast.Module
    imports: Set[str] = field(default_factory=set)
    #: local alias -> imported module (``import numpy as np`` -> np).
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, symbol) for ``from m import s [as n]``.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: qualname -> info, module-level functions AND ``Class.method``s.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level name -> the statement that binds it.
    module_globals: Dict[str, ast.stmt] = field(default_factory=dict)


def _expand_name(expr: ast.expr) -> Optional[str]:
    """Dotted text of a Name/Attribute chain (``a.b.C`` -> ``"a.b.C"``)."""
    parts: List[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: Optional[str], level: int, target: Optional[str]) -> Optional[str]:
    """Absolute dotted name of a relative import, given the importer."""
    if level == 0:
        return target
    if module is None:
        return target  # best effort: keep the tail for display
    package = module.split(".")
    # level=1 strips the module's own name; deeper levels climb further.
    if len(package) < level:
        return target
    base = package[:-level]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def _function_info(
    fn: ast.AST,
    module: Optional[str],
    path: str,
    class_name: Optional[str] = None,
) -> FunctionInfo:
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    calls: List[CallTarget] = []
    seen: Set[CallTarget] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            target = call_target(node)
            if target is not None and target not in seen:
                seen.add(target)
                calls.append(target)
    qualname = fn.name if class_name is None else f"{class_name}.{fn.name}"
    return FunctionInfo(
        name=fn.name,
        qualname=qualname,
        module=module,
        path=path,
        node=fn,
        class_name=class_name,
        calls=calls,
    )


#: Subscripted annotation heads whose *last* type argument is the
#: element (``Dict[int, T]``) vs. the first (``List[T]``).
_CONTAINER_HEADS = {"Dict", "dict", "DefaultDict", "Mapping", "MutableMapping",
                    "List", "list", "Set", "set", "FrozenSet", "Sequence",
                    "Iterable", "Iterator", "Tuple", "tuple", "Deque"}


def _annotation_types(node: ast.expr) -> Tuple[Optional[str], Optional[str]]:
    """``(direct type, element type)`` read off an annotation AST."""
    direct = _expand_name(node)
    if direct is not None:
        return direct, None
    if isinstance(node, ast.Subscript):
        head = _expand_name(node.value)
        head_leaf = head.rsplit(".", 1)[-1] if head else None
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if head_leaf == "Optional" and args:
            return _expand_name(args[0]), None
        if head_leaf in _CONTAINER_HEADS and args:
            return None, _expand_name(args[-1])
    return None, None


def _constructor_type(value: ast.expr) -> Optional[str]:
    """Class name when *value* looks like ``T(...)`` or ``T.classmethod(...)``."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name) and func.id[:1].isupper():
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id[:1].isupper()
    ):
        return func.value.id  # StreamingReceiver.from_config(...)
    return None


def _class_info(cls: ast.ClassDef, module: Optional[str], path: str) -> ClassInfo:
    info = ClassInfo(name=cls.name, module=module, path=path, node=cls)
    for base in cls.bases:
        dotted = _expand_name(base)
        if dotted is not None:
            info.bases.append(dotted)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _function_info(stmt, module, path, cls.name)
    # Dataclass-style annotated fields on the class body itself.
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            direct, elem = _annotation_types(stmt.annotation)
            if direct is not None:
                info.attr_types.setdefault(stmt.target.id, direct)
            if elem is not None:
                info.attr_elem_types.setdefault(stmt.target.id, elem)
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        param_types: Dict[str, str] = {}
        for arg in (*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs):
            if arg.annotation is not None:
                direct, _elem = _annotation_types(arg.annotation)
                if direct is not None:
                    param_types[arg.arg] = direct
        for node in ast.walk(method):
            target: Optional[ast.expr] = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if (
                target is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if isinstance(node, ast.AnnAssign):
                    direct, elem = _annotation_types(node.annotation)
                    if direct is not None:
                        info.attr_types.setdefault(target.attr, direct)
                    if elem is not None:
                        info.attr_elem_types.setdefault(target.attr, elem)
                else:
                    ctor = _constructor_type(node.value)
                    if ctor is not None:
                        info.attr_types.setdefault(target.attr, ctor)
                    elif isinstance(node.value, ast.Name) and node.value.id in param_types:
                        # self.x = param, typed by the signature
                        info.attr_types.setdefault(target.attr, param_types[node.value.id])
    return info


def _summarize_tree(path: str, module: Optional[str], tree: ast.Module, digest: str) -> ModuleSummary:
    summary = ModuleSummary(path=path, module=module, content_hash=digest, tree=tree)
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                summary.imports.add(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                summary.import_aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            src = _resolve_relative(module, stmt.level, stmt.module)
            if src is None:
                continue
            summary.imports.add(src)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                summary.from_imports[alias.asname or alias.name] = (src, alias.name)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(stmt, module, path)
            summary.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            cls = _class_info(stmt, module, path)
            summary.classes[cls.name] = cls
            for method in cls.methods.values():
                summary.functions[method.qualname] = method
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    summary.module_globals[target.id] = stmt
    return summary


#: path -> (content sha256, summary).  Bounded by project size, so no
#: eviction: one entry per distinct file path seen this process.
_SUMMARY_CACHE: Dict[str, Tuple[str, ModuleSummary]] = {}


def summarize(
    path: Path,
    source: str,
    module: Optional[str],
    tree: Optional[ast.Module] = None,
) -> ModuleSummary:
    """Summary of one module, cached on content hash.

    A pre-parsed *tree* is only used on a cache miss; the cache key is
    ``(str(path), sha256(source))`` so stale summaries cannot survive
    an edit.
    """
    key = str(path)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    cached = _SUMMARY_CACHE.get(key)
    if cached is not None and cached[0] == digest and cached[1].module == module:
        return cached[1]
    if tree is None:
        tree = ast.parse(source, filename=key)
    summary = _summarize_tree(key, module, tree, digest)
    _SUMMARY_CACHE[key] = (digest, summary)
    return summary


class ProjectIndex:
    """Project-wide symbol, import and call-graph views over summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: List[ModuleSummary] = list(summaries)
        self.by_path: Dict[str, ModuleSummary] = {s.path: s for s in self.summaries}
        self.by_module: Dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries if s.module is not None
        }
        self._bare_functions: Dict[str, List[FunctionInfo]] = {}
        for s in self.summaries:
            for fn in s.functions.values():
                self._bare_functions.setdefault(fn.name, []).append(fn)

    # -- import graph --------------------------------------------------

    def reachable_modules(self, roots: Iterable[str]) -> Set[str]:
        """Transitive import closure of *roots* (includes the roots).

        Edges leaving the project (stdlib, third-party) are kept in the
        result but not expanded -- their summaries do not exist.
        """
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            mod = stack.pop()
            if mod in seen:
                continue
            seen.add(mod)
            summary = self.by_module.get(mod)
            if summary is None:
                # "import a.b" also imports package "a"; try the known
                # prefix so package __init__ modules are not skipped.
                continue
            for imported in summary.imports:
                stack.append(imported)
                # importing a.b.c executes a and a.b as well
                parts = imported.split(".")
                for i in range(1, len(parts)):
                    stack.append(".".join(parts[:i]))
        return seen

    # -- classes -------------------------------------------------------

    def resolve_class(self, summary: ModuleSummary, name: str) -> Optional[ClassInfo]:
        """*name* (possibly dotted, as written in *summary*) -> class."""
        if name in summary.classes:
            return summary.classes[name]
        if name in summary.from_imports:
            src, sym = summary.from_imports[name]
            target = self.by_module.get(src)
            if target is not None:
                if sym in target.classes:
                    return target.classes[sym]
                # one level of re-export chasing
                if sym in target.from_imports:
                    src2, sym2 = target.from_imports[sym]
                    deeper = self.by_module.get(src2)
                    if deeper is not None and sym2 in deeper.classes:
                        return deeper.classes[sym2]
        if "." in name:
            base, attr = name.rsplit(".", 1)
            mod = summary.import_aliases.get(base, base)
            target = self.by_module.get(mod)
            if target is not None and attr in target.classes:
                return target.classes[attr]
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Approximate linearisation: the class, then bases depth-first."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(info: ClassInfo) -> None:
            if info.key in seen:
                return
            seen.add(info.key)
            out.append(info)
            owner = self.by_path.get(info.path)
            if owner is None:
                return
            for base in info.bases:
                resolved = self.resolve_class(owner, base)
                if resolved is not None:
                    visit(resolved)

        visit(cls)
        return out

    def find_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for info in self.mro(cls):
            if name in info.methods:
                return info.methods[name]
        return None

    def class_methods(self, cls: ClassInfo) -> List[FunctionInfo]:
        """All methods visible on *cls* (MRO order, first wins)."""
        out: Dict[str, FunctionInfo] = {}
        for info in self.mro(cls):
            for name, method in info.methods.items():
                out.setdefault(name, method)
        return list(out.values())

    # -- call resolution -----------------------------------------------

    def resolve_call(
        self,
        summary: ModuleSummary,
        target: CallTarget,
        caller_class: Optional[str] = None,
    ) -> List[FunctionInfo]:
        """Possible callees of *target* as called from *summary*.

        Calling a class resolves to *all* of its methods: the
        constructor runs and, conservatively, any method may later be
        invoked on the instance (the instance escaped into the caller).
        """
        kind = target[0]
        if kind == "name":
            name = target[1]
            if name == "cls" and caller_class is not None and caller_class in summary.classes:
                return self.class_methods(summary.classes[caller_class])
            if name in summary.functions:
                return [summary.functions[name]]
            if name in summary.classes:
                return self.class_methods(summary.classes[name])
            if name in summary.from_imports:
                src, sym = summary.from_imports[name]
                other = self.by_module.get(src)
                if other is not None:
                    if sym in other.functions:
                        return [other.functions[sym]]
                    if sym in other.classes:
                        return self.class_methods(other.classes[sym])
                resolved = self.resolve_class(summary, name)
                if resolved is not None:
                    return self.class_methods(resolved)
            return self._unique_bare(name)
        if kind == "self":
            method = target[1]
            if caller_class is not None and caller_class in summary.classes:
                found = self.find_method(summary.classes[caller_class], method)
                if found is not None:
                    return [found]
            return self._unique_bare(method)
        if kind == "dotted":
            base, attr = target[1], target[2]
            mod = summary.import_aliases.get(base)
            if mod is not None:
                other = self.by_module.get(mod)
                if other is not None:
                    if attr in other.functions:
                        return [other.functions[attr]]
                    if attr in other.classes:
                        return self.class_methods(other.classes[attr])
                return []  # external module (np.zeros, queue.Queue, ...)
            cls = self.resolve_class(summary, base)
            if cls is not None:  # ClassName.method(...)
                found = self.find_method(cls, attr)
                return [found] if found is not None else []
            return self._unique_bare(attr)
        if kind in ("selfattr", "selfelem"):
            attr, method = target[1], target[2]
            cls = summary.classes.get(caller_class) if caller_class is not None else None
            if cls is not None:
                table = "attr_types" if kind == "selfattr" else "attr_elem_types"
                for info in self.mro(cls):
                    type_name = getattr(info, table).get(attr)
                    if type_name is None:
                        continue
                    owner = self.by_path.get(info.path)
                    if owner is None:
                        break
                    resolved = self.resolve_class(owner, type_name)
                    if resolved is None:
                        break
                    found = self.find_method(resolved, method)
                    return [found] if found is not None else []
            return self._unique_bare(method)
        if kind == "method":
            return self._unique_bare(target[1])
        return []

    #: Names that are everyday builtin-collection/stdlib API: a call to
    #: one of these on an untyped receiver says nothing about which
    #: project function runs, so no fallback edge is drawn.
    _GENERIC_NAMES = frozenset({
        "add", "append", "appendleft", "extend", "insert", "remove",
        "discard", "pop", "popleft", "clear", "update", "setdefault",
        "get", "put", "join", "split", "strip", "close", "open", "read",
        "write", "copy", "sort", "reverse", "index", "count", "keys",
        "values", "items", "encode", "decode", "format", "parse",
        "build", "run", "start", "stop", "send", "flush",
    })

    def _unique_bare(self, name: str) -> List[FunctionInfo]:
        """Last-resort resolution: the single project function named
        *name*, when that name is specific enough to be meaningful."""
        if name.startswith("__") or name in self._GENERIC_NAMES:
            return []
        candidates = self._bare_functions.get(name, [])
        return list(candidates) if len(candidates) == 1 else []

    # -- reachability --------------------------------------------------

    def entry_functions(self, module: str) -> List[FunctionInfo]:
        """Every function and method defined in *module* (the entry set
        for 'code a worker process may run')."""
        summary = self.by_module.get(module)
        return list(summary.functions.values()) if summary is not None else []

    def reachable_functions(self, entries: Iterable[FunctionInfo]) -> Dict[str, FunctionInfo]:
        """Call-graph closure of *entries*, keyed by :attr:`FunctionInfo.key`."""
        reached: Dict[str, FunctionInfo] = {}
        stack = list(entries)
        while stack:
            fn = stack.pop()
            if fn.key in reached:
                continue
            reached[fn.key] = fn
            owner = self.by_path.get(fn.path)
            if owner is None:
                continue
            for target in fn.calls:
                for callee in self.resolve_call(owner, target, fn.class_name):
                    if callee.key not in reached:
                        stack.append(callee)
        return reached
