"""Parameter sweeps with optional process parallelism.

Every paper experiment is an embarrassingly parallel sweep -- points
differ only in parameters and seed -- yet the drivers run serially so
their results stay bit-identical everywhere.  This module provides the
opt-in fast path: :func:`sweep` evaluates a point function over a
parameter grid, serially by default or across worker processes, with
deterministic per-point seeds derived from one root seed either way.

The point function must be a *module-level* callable (picklable) taking
``(params_dict, seed)``; results come back in grid order regardless of
completion order.

Long sweeps additionally get resilience:

- ``on_error="contain"`` turns a raising point into a
  :class:`PointError` in its grid slot instead of aborting the other
  N-1 points;
- ``checkpoint=<path>`` appends every finished point to a JSONL file
  and, on a re-run with the same grid shape and seed, skips the points
  already on disk -- a killed 10-hour sweep resumes instead of
  restarting.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["grid", "sweep", "PointError"]


def grid(**axes: Iterable) -> List[Dict[str, Any]]:
    """Cartesian product of named parameter axes, in document order.

    Axes may be any iterable -- lists, ranges, numpy arrays or one-shot
    generators (each axis is materialised exactly once).

    >>> grid(n_tags=[2, 3], d=[1.0])
    [{'n_tags': 2, 'd': 1.0}, {'n_tags': 3, 'd': 1.0}]
    """
    if not axes:
        return [{}]
    # Materialise every axis first: generators/iterators have no len()
    # and would be consumed by the product anyway.  Only a truly empty
    # axis (after materialisation) is an error.
    materialized = {name: list(values) for name, values in axes.items()}
    for name, values in materialized.items():
        if not values:
            raise ValueError(f"axis {name!r} is empty")
    names = list(materialized)
    combos = itertools.product(*(materialized[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


@dataclass(frozen=True)
class PointError:
    """A contained failure of one sweep point (``on_error="contain"``).

    Occupies the failing point's slot in the result list so the grid
    order survives; carries everything needed to reproduce the failure
    (the exact params and seed) and to diagnose it (type, message,
    formatted traceback).
    """

    index: int
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    error_type: str = ""
    message: str = ""
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"PointError(#{self.index} {self.params}: {self.error_type}: {self.message})"


def _point_seeds(root_seed: int, n: int) -> List[int]:
    """Independent, reproducible per-point seeds."""
    seq = np.random.SeedSequence(root_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(n)]


def _run_point(point_fn, contain: bool, index: int, params: Dict[str, Any], seed: int):
    """Evaluate one point; module-level so it pickles to workers."""
    try:
        return point_fn(dict(params), seed)
    except Exception as exc:
        if not contain:
            raise
        return PointError(
            index=index,
            params=dict(params),
            seed=seed,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
        )


_PENDING = object()


def _load_checkpoint(
    path: Path,
    n_points: int,
    seed: int,
    points: List[Dict[str, Any]],
    seeds: List[int],
    results: List[Any],
    retry_errors: bool,
) -> None:
    """Fill *results* slots from a prior run's JSONL checkpoint.

    A run killed mid-append leaves a torn last line (unterminated or
    unreadable): it is dropped, so its point runs again, and the file is
    cut back to the line before it so later appends start clean.  An
    unreadable line before the last raises ``ValueError``.
    """
    if not path.exists() or path.stat().st_size == 0:
        return
    with open(path, "rb") as fh:
        lines = fh.readlines()
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            if not line.endswith(b"\n"):
                raise ValueError("unterminated line")
            records.append(json.loads(line))
        except ValueError as exc:
            if lineno < len(lines):
                raise ValueError(
                    f"checkpoint {path} line {lineno} is not a JSON record "
                    f"(corrupt write: {exc}); refusing to resume"
                ) from None
            with open(path, "r+b") as fh:
                fh.truncate(sum(len(kept) for kept in lines[:-1]))
    if not records:
        return
    header = records[0]
    if header.get("type") != "header":
        raise ValueError(f"checkpoint {path} has no header line; refusing to resume")
    if header.get("n_points") != n_points or header.get("seed") != seed:
        raise ValueError(
            f"checkpoint {path} belongs to a different sweep "
            f"(n_points={header.get('n_points')}, seed={header.get('seed')}; "
            f"this sweep has n_points={n_points}, seed={seed})"
        )
    for rec in records[1:]:
        if rec.get("type") != "point":
            continue
        i = int(rec["index"])
        if not 0 <= i < n_points:
            continue
        if rec.get("status") == "ok":
            results[i] = rec["result"]
        elif not retry_errors:
            results[i] = PointError(
                index=i,
                params=dict(points[i]),
                seed=seeds[i],
                error_type=rec.get("error_type", ""),
                message=rec.get("message", ""),
                traceback=rec.get("traceback", ""),
            )


class _CheckpointWriter:
    """Appends finished points to the JSONL checkpoint as they land."""

    def __init__(self, path: Path, n_points: int, seed: int):
        fresh = not path.exists() or path.stat().st_size == 0
        self._fh = open(path, "a")
        if fresh:
            self._write({"type": "header", "n_points": n_points, "seed": seed})

    def _write(self, rec: dict) -> None:
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def record(self, index: int, result: Any) -> None:
        if isinstance(result, PointError):
            self._write(
                {
                    "type": "point",
                    "index": index,
                    "status": "error",
                    "error_type": result.error_type,
                    "message": result.message,
                    "traceback": result.traceback,
                }
            )
            return
        try:
            line = json.dumps({"type": "point", "index": index, "status": "ok", "result": result})
        except TypeError as exc:
            raise TypeError(
                f"sweep point #{index} returned a non-JSON-serializable result "
                f"({type(result).__name__}); checkpointing requires plain "
                "JSON-compatible results (numbers, strings, lists, dicts). "
                "Convert in point_fn or run without checkpoint=."
            ) from exc
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def sweep(
    point_fn: Callable[[Dict[str, Any], int], Any],
    points: Sequence[Mapping[str, Any]],
    seed: int = 0,
    workers: Optional[int] = None,
    chunksize: int = 1,
    on_error: str = "raise",
    checkpoint=None,
    retry_errors: bool = False,
) -> List[Any]:
    """Evaluate *point_fn* at every point; results in grid order.

    Parameters
    ----------
    point_fn:
        ``f(params, seed) -> result``.  Must be picklable (module
        level) when ``workers`` is set; checked up front so the
        failure is a clear :class:`TypeError` instead of a hang or an
        opaque traceback from a worker.
    points:
        Parameter dicts, e.g. from :func:`grid`.
    seed:
        Root seed; each point gets an independent child seed, the same
        ones whether the sweep runs serially or in parallel.
    workers:
        ``None`` (default) runs serially in-process; an integer runs
        that many worker processes.
    chunksize:
        Points dispatched to a worker per IPC round trip (parallel
        mode only).  Raise it when points are cheap and numerous so
        pickling overhead stops dominating.
    on_error:
        ``"raise"`` (default) propagates the first point exception,
        aborting the sweep.  ``"contain"`` catches it and puts a
        :class:`PointError` in that point's slot instead, so one
        pathological parameter combination cannot cost the other
        points' work.
    checkpoint:
        Optional path to a JSONL checkpoint file.  Every finished
        point is appended (and flushed) as it completes; re-running
        the same sweep (same ``len(points)`` and ``seed``) against an
        existing file re-runs only the points not yet on disk.  The
        header is validated, so resuming a *different* sweep against
        the file is a :class:`ValueError`.  Checkpointed results
        round-trip through JSON (tuples come back as lists), and
        results must be JSON-serializable.
    retry_errors:
        On resume, re-run points whose checkpoint record is an error
        instead of reloading them as :class:`PointError`.
    """
    points = [dict(p) for p in points]
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    if on_error not in ("raise", "contain"):
        raise ValueError(f'on_error must be "raise" or "contain", got {on_error!r}')
    seeds = _point_seeds(seed, len(points))
    contain = on_error == "contain"

    results: List[Any] = [_PENDING] * len(points)
    writer = None
    if checkpoint is not None:
        path = Path(checkpoint)
        _load_checkpoint(path, len(points), seed, points, seeds, results, retry_errors)
        writer = _CheckpointWriter(path, len(points), seed)
    todo = [i for i, r in enumerate(results) if r is _PENDING]
    runner = functools.partial(_run_point, point_fn, contain)

    try:
        if workers is None:
            for i in todo:
                result = runner(i, points[i], seeds[i])
                results[i] = result
                if writer is not None:
                    writer.record(i, result)
            return results
        if workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            pickle.dumps(point_fn)
        except Exception as exc:
            raise TypeError(
                f"point_fn {point_fn!r} is not picklable, so it cannot be shipped "
                "to worker processes. Define it at module level (not a lambda, "
                "closure or local function), or run with workers=None."
            ) from exc
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if writer is None:
                out = pool.map(
                    runner,
                    todo,
                    [points[i] for i in todo],
                    [seeds[i] for i in todo],
                    chunksize=chunksize,
                )
                for i, result in zip(todo, out):
                    results[i] = result
            else:
                # Checkpointing wants every completion on disk as soon
                # as it happens (that is the whole point of resuming a
                # killed run), so dispatch per-point futures instead of
                # the chunked map.
                futures = {pool.submit(runner, i, points[i], seeds[i]): i for i in todo}
                for fut in as_completed(futures):
                    i = futures[fut]
                    results[i] = fut.result()
                    writer.record(i, results[i])
        return results
    finally:
        if writer is not None:
            writer.close()
