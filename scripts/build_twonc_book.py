"""Write the 2NC code book: the search's codes for every family in use.

The 2NC codes of a ``(size, length)`` family are defined by a seeded
greedy-plus-anneal search (``repro.codes.twonc._raw_search``), which
takes 0.1-1 s per family.  ``src/repro/codes/twonc_book.json`` holds
its output for the families listed below, so that no process searches
for them; any other family is still searched when first asked for.

Usage, from the repository root::

    python scripts/build_twonc_book.py          # rewrite the book
    python scripts/build_twonc_book.py --check  # exit 1 if it has drifted

``make twonc-book`` runs the first.  A change to the search or to one
of its constants must rewrite the book: the book records the
constants, and a process refuses a book whose constants differ.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.codes import twonc  # noqa: E402

BOOK = ROOT / "src" / "repro" / "codes" / twonc._BOOK_FILE

#: Every family the tests, examples, CLI defaults, ``repro bench`` and
#: perfbench build: ``{length: sizes}``.
FAMILIES = {
    4: (1, 2, 3),
    6: (1, 3),
    8: (2, 4),
    10: (2, 5),
    12: (2,),
    16: (1, 3, 4),
    32: tuple(range(1, 17)),
    40: (20,),
    64: tuple(range(1, 11)),
    128: (2, 3, 8, 10),
}


def build_book(verbose: bool = False) -> dict:
    """The book document: the search constants and every family's codes."""
    families = {}
    for length, sizes in FAMILIES.items():
        for size in sizes:
            t0 = time.perf_counter()
            codes = twonc._raw_search(size, length)
            if verbose:
                print(f"{size}x{length}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
            families[f"{size}x{length}"] = ["".join(map(str, code)) for code in codes]
    return {"search": twonc._search_constants(), "families": families}


def render(doc: dict) -> str:
    """One code per line, so that a change reads as a diff."""
    return json.dumps(doc, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed book; exit 1 on drift"
    )
    args = parser.parse_args(argv)
    text = render(build_book(verbose=not args.check))
    if args.check:
        if not BOOK.exists() or BOOK.read_text(encoding="utf-8") != text:
            print(f"{BOOK.relative_to(ROOT)} differs from the search; run make twonc-book")
            return 1
        print(f"{BOOK.relative_to(ROOT)} matches the search")
        return 0
    BOOK.write_text(text, encoding="utf-8")
    print(f"wrote {BOOK.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
