"""Unit tests for the analysis engine underneath the project rules:
the project index (import closure, call graph, cross-module MRO and
the content-hash summary cache)."""

from pathlib import Path

from repro.lint.engine import ProjectIndex, summarize


# ----------------------------------------------------------------------
# Project index
# ----------------------------------------------------------------------


def make_index(modules):
    """modules: {dotted_name: source} -> ProjectIndex."""
    summaries = []
    for dotted, source in modules.items():
        path = Path("src") / Path(*dotted.split(".")).with_suffix(".py")
        summaries.append(summarize(path, source, dotted))
    return ProjectIndex(summaries)


def test_import_closure_follows_from_imports():
    index = make_index(
        {
            "pkg.entry": "from pkg.mid import go\n\ndef run():\n    go()\n",
            "pkg.mid": "from pkg.leaf import deep\n\ndef go():\n    deep()\n",
            "pkg.leaf": "def deep():\n    return 1\n",
            "pkg.island": "def alone():\n    return 2\n",
        }
    )
    reachable = index.reachable_modules(["pkg.entry"])
    assert {"pkg.entry", "pkg.mid", "pkg.leaf"} <= reachable
    assert "pkg.island" not in reachable


def test_call_graph_closure_crosses_modules():
    index = make_index(
        {
            "pkg.entry": "from pkg.mid import go\n\ndef run():\n    go()\n",
            "pkg.mid": "from pkg.leaf import deep\n\ndef go():\n    deep()\n",
            "pkg.leaf": "def deep():\n    return 1\n\ndef unused():\n    return 2\n",
        }
    )
    entries = index.entry_functions("pkg.entry")
    reached = index.reachable_functions(entries)
    names = {fn.qualname for fn in reached.values()}
    assert {"run", "go", "deep"} <= names
    assert "unused" not in names


def test_method_resolution_through_cross_module_inheritance():
    index = make_index(
        {
            "pkg.base": (
                "class Base:\n"
                "    def to_dict(self):\n"
                "        return {}\n"
            ),
            "pkg.child": (
                "from pkg.base import Base\n"
                "\n"
                "class Child(Base):\n"
                "    def extra(self):\n"
                "        return 1\n"
            ),
        }
    )
    child = index.by_module["pkg.child"].classes["Child"]
    found = index.find_method(child, "to_dict")
    assert found is not None
    assert found.qualname == "Base.to_dict"
    assert found.module == "pkg.base"


def test_summaries_are_cached_by_content_hash():
    path = Path("src/pkg/mod.py")
    source = "def f():\n    return 1\n"
    first = summarize(path, source, "pkg.mod")
    second = summarize(path, source, "pkg.mod")
    assert first is second  # same content: cache hit
    third = summarize(path, source + "\n# changed\n", "pkg.mod")
    assert third is not first
