"""2NC spreading codes (paper ref. [9], as modified by CBMA).

The paper adopts "2NC codes" -- length-2N chip sequences, one per tag --
and modifies them so that *the chip sequence representing bit 0 is the
bitwise negation of the one representing bit 1* (footnote 2).  The paper
reports that 2NC codes exhibit better orthogonality than Gold codes for
its small tag populations (2..10 tags), which is what Fig. 9(b)
measures.

The original reference gives a construction only for specific
parameters, so this reproduction *reconstructs* the family as a
deterministic numerically-optimised code set: starting from LFSR-seeded
balanced candidates, a greedy minimax search selects codes that minimise
the worst pairwise periodic cross-correlation.  For small families this
beats the Gold three-valued bound, reproducing the paper's observed
ordering (2NC < Gold error rate, with Gold degrading sharply at 5 tags).
The search is seeded, so the family is a pure function of
``(size, length)`` -- tags and receiver independently derive identical
codes, as required for a distributed system.

The search costs 0.3-1 s per family, so its output for every family
the repository uses ships as data: ``twonc_book.json``, written by
``scripts/build_twonc_book.py``.  :func:`_search_family` serves a
booked family from that book and searches any other one; either way
the codes are the search's, byte for byte.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from functools import lru_cache
from importlib import resources
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.utils.bits import bits_to_bipolar

__all__ = ["TwoNCFamily", "twonc_codes"]

_SEARCH_SEED = 0x27C3  # fixed seed so tags and receiver derive identical codes
_CANDIDATE_POOL = 768
_ANNEAL_ITERATIONS = 6000
_ANNEAL_T0, _ANNEAL_T1 = 0.05, 0.001  # anneal start and end temperatures

_BOOK_FILE = "twonc_book.json"

_CodeSet = Tuple[Tuple[int, ...], ...]


def _max_offpeak_autocorr(a: np.ndarray) -> float:
    """Worst absolute periodic autocorrelation away from zero shift."""
    fa = np.fft.fft(a)
    corr = np.fft.ifft(fa * np.conj(fa)).real
    corr[0] = 0.0
    return float(np.max(np.abs(corr)) / a.size)


def _balanced_candidates(length: int, pool: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Generate *pool* distinct balanced 0/1 candidate codes."""
    seen = set()
    out: List[np.ndarray] = []
    half = length // 2
    base = np.array([1] * half + [0] * (length - half), dtype=np.uint8)
    while len(out) < pool:
        cand = rng.permutation(base)
        key = cand.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(cand)
    return out


def _search_constants() -> Dict[str, Any]:
    """The constants the search's output depends on, as the book records them."""
    return {
        "seed": _SEARCH_SEED,
        "candidate_pool": _CANDIDATE_POOL,
        "anneal_iterations": _ANNEAL_ITERATIONS,
        "anneal_t0": _ANNEAL_T0,
        "anneal_t1": _ANNEAL_T1,
    }


def _parse_book(doc: Mapping[str, Any]) -> Dict[Tuple[int, int], _CodeSet]:
    """The families of a code book document, keyed ``(size, length)``.

    Raises ``ValueError``, naming the entry, when the recorded search
    constants differ from the module's, when an entry's code count or
    code length does not match its ``"<size>x<length>"`` key, or when a
    code is not a balanced ``"0"``/``"1"`` string: a book the search
    would not write again is refused, never served.
    """
    recorded = doc.get("search", {})
    for name, value in _search_constants().items():
        if recorded.get(name) != value:
            raise ValueError(
                f"2NC code book: search constant {name!r} is {recorded.get(name)!r}, "
                f"the search uses {value!r}; rebuild it (scripts/build_twonc_book.py)"
            )
    families: Dict[Tuple[int, int], _CodeSet] = {}
    for key, codes in doc.get("families", {}).items():
        match = re.fullmatch(r"(\d+)x(\d+)", key)
        if match is None:
            raise ValueError(f"2NC code book entry {key!r}: key is not '<size>x<length>'")
        size, length = int(match[1]), int(match[2])
        if len(codes) != size or any(len(code) != length for code in codes):
            lengths = sorted({len(code) for code in codes})
            raise ValueError(
                f"2NC code book entry {key!r}: {len(codes)} codes of length {lengths}, "
                f"expected {size} of length {length}"
            )
        for code in codes:
            if set(code) - {"0", "1"} or 2 * code.count("1") != length:
                raise ValueError(f"2NC code book entry {key!r}: code {code!r} is not balanced")
        families[(size, length)] = tuple(tuple(map(int, code)) for code in codes)
    return families


@lru_cache(maxsize=1)
def _load_book() -> Dict[Tuple[int, int], _CodeSet]:
    """The packaged code book, read and checked once per process.

    An installation without the file serves every family by searching.
    """
    try:
        text = resources.files("repro.codes").joinpath(_BOOK_FILE).read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    return _parse_book(json.loads(text))


@lru_cache(maxsize=32)
def _search_family(size: int, length: int) -> _CodeSet:
    """The *size* codes of *length* chips, as tuples (hashable, for the cache).

    A family in the code book is read from it; any other is searched
    (:func:`_raw_search`).  Memoised per process, and a forked worker
    inherits the memo.
    """
    booked = _load_book().get((size, length))
    return booked if booked is not None else _raw_search(size, length)


def _raw_search(size: int, length: int) -> _CodeSet:
    """Greedy-plus-anneal minimax search for *size* codes.

    This search defines the 2NC codes; the code book holds its output.
    Phase 1 greedily grows the family, always adding the candidate
    whose worst correlation against the chosen set is smallest.
    Phase 2 anneals the whole family (:func:`_anneal`).
    """
    # Short codes have fewer distinct balanced patterns than the pool
    # asks for (C(8, 4) = 70); C(12, 6) = 924, so lengths >= 12 keep it.
    patterns = math.comb(length, length // 2)
    if size > patterns:
        raise ValueError(
            f"{size} codes requested but only {patterns} balanced codes of length {length} exist"
        )
    rng = np.random.default_rng(_SEARCH_SEED + 1000 * size + length)
    # Keep the O(pool^2) pairwise matrix tractable for long codes.
    pool = _CANDIDATE_POOL if length <= 64 else _CANDIDATE_POOL // 2
    pool = min(pool, patterns)
    candidates = _balanced_candidates(length, pool, rng)
    bipolar = np.array([bits_to_bipolar(c) for c in candidates])
    auto = np.array([_max_offpeak_autocorr(b) for b in bipolar])

    spec = np.fft.fft(bipolar, axis=1)

    def cross_row(i: int) -> np.ndarray:
        """Worst cyclic cross-correlation of candidate *i* against every
        candidate (the greedy phase masks the selected ones itself)."""
        corr = np.fft.ifft(spec * np.conj(spec[i]), axis=1).real
        return np.max(np.abs(corr), axis=1) / length

    # The greedy phase reads only the rows of the codes it selects.
    selected: List[int] = [int(np.argmin(auto))]
    worst = cross_row(selected[0])
    while len(selected) < size:
        score = worst + 0.25 * auto
        score[selected] = np.inf
        nxt = int(np.argmin(score))
        if not np.isfinite(score[nxt]):
            raise ValueError(f"candidate pool exhausted at {len(selected)} codes")
        selected.append(nxt)
        if len(selected) < size:
            worst = np.maximum(worst, cross_row(nxt))

    family = [candidates[i].copy() for i in selected]
    family = _anneal(family, rng)
    return tuple(tuple(int(x) for x in code) for code in family)


def _score_matrix(bipolar: np.ndarray) -> float:
    """Minimax objective over a concrete family (bipolar rows).

    Three terms: the worst cyclic cross-correlation over all shifts
    (asynchronous interference), the worst *zero-shift* cross
    (synchronised tags should be the best case -- the property the
    paper's Fig. 11 measures), and the worst off-peak autocorrelation
    (false synchronisation).

    All ``n x n`` cyclic correlations come from one batched inverse FFT;
    entry ``[i, j]`` is row *j* correlated against row *i*.  Each
    transform is the same 1-D computation whatever the batch holds, and
    ``max`` is exact, so the score is bit-identical to scoring the rows
    one at a time -- the anneal's accept/reject decisions depend on it.
    """
    n, length = bipolar.shape
    spec = np.fft.fft(bipolar, axis=1)
    pairs = spec[None, :, :] * np.conj(spec[:, None, :])
    mags = np.abs(np.fft.ifft(pairs, axis=2).real / length)
    diag = np.arange(n)
    worst_auto = float(mags[diag, diag, 1:].max(initial=0.0))
    mags[diag, diag] = 0.0
    worst_cross = float(mags.max())
    worst_zero = float(mags[:, :, 0].max())
    return worst_cross + 0.5 * worst_zero + 0.25 * worst_auto


def _anneal(family: List[np.ndarray], rng: np.random.Generator) -> List[np.ndarray]:
    """Balance-preserving simulated annealing on the whole family.

    Each move swaps one '1' chip with one '0' chip inside a single code
    (keeping the code balanced) and is accepted when it lowers the
    minimax correlation objective, or with a temperature-decayed
    probability otherwise.  For families of <= 16 codes this reliably
    pushes the worst cyclic cross-correlation below the Gold bound,
    which is exactly the advantage the paper attributes to 2NC codes.
    """
    codes = [c.copy() for c in family]
    bipolar = np.array([bits_to_bipolar(c) for c in codes])
    # Each code's one and zero chip positions, ascending -- the order
    # ``np.flatnonzero`` gives, so the same draw picks the same chip.
    ones = [np.flatnonzero(c == 1).tolist() for c in codes]
    zeros = [np.flatnonzero(c == 0).tolist() for c in codes]
    best_codes = [c.copy() for c in codes]
    current = _score_matrix(bipolar)
    best = current
    t0, t1, iterations = _ANNEAL_T0, _ANNEAL_T1, _ANNEAL_ITERATIONS
    for it in range(iterations):
        temp = t0 * (t1 / t0) ** (it / max(iterations - 1, 1))
        k = int(rng.integers(len(codes)))
        j1 = int(rng.integers(len(ones[k])))
        j0 = int(rng.integers(len(zeros[k])))
        i1, i0 = ones[k][j1], zeros[k][j0]
        codes[k][i1], codes[k][i0] = 0, 1
        bipolar[k, i1], bipolar[k, i0] = -1.0, 1.0
        trial = _score_matrix(bipolar)
        if trial < current or rng.random() < np.exp((current - trial) / max(temp, 1e-9)):
            current = trial
            del ones[k][j1], zeros[k][j0]
            bisect.insort(ones[k], i0)
            bisect.insort(zeros[k], i1)
            if trial < best:
                best = trial
                best_codes = [c.copy() for c in codes]
        else:
            codes[k][i1], codes[k][i0] = 1, 0
            bipolar[k, i1], bipolar[k, i0] = 1.0, -1.0
    return best_codes


class TwoNCFamily:
    """A deterministic family of 2NC codes.

    Parameters
    ----------
    size:
        Number of codes (tags) the family must support.
    length:
        Chip length of each code.  The "2N" naming reflects the even
        length; by default the family uses ``2 * max(size, 16)`` chips,
        matching the Gold-31 regime used in the paper's evaluation when
        ``size <= 16``.
    """

    def __init__(self, size: int, length: int = None):
        if size < 1:
            raise ValueError("size must be >= 1")
        if length is None:
            length = 2 * max(size, 16)
        if length % 2 != 0 or length < 2:
            raise ValueError(f"2NC length must be even and at least 2, got {length}")
        self.size = size
        self.length = length
        self._codes = [np.array(c, dtype=np.uint8) for c in _search_family(size, length)]

    def code(self, index: int) -> np.ndarray:
        """The *index*-th code as a 0/1 uint8 array (a copy)."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside family of size {self.size}")
        return self._codes[index].copy()

    def codes(self, count: int = None) -> List[np.ndarray]:
        """The first *count* codes (all of them by default)."""
        count = self.size if count is None else count
        if count > self.size:
            raise ValueError(f"requested {count} codes but family has {self.size}")
        return [self.code(i) for i in range(count)]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TwoNCFamily(size={self.size}, length={self.length})"


def twonc_codes(count: int, length: int = 32) -> List[np.ndarray]:
    """Convenience constructor: *count* 2NC codes of chip length *length*."""
    return TwoNCFamily(count, length).codes()
