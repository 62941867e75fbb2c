"""Alternating parent/change pairs of the decode-stack benchmark.

Runs ``perfbench/run.py`` from two checkouts -- the parent commit
(``--base``) and the change (``--change``) -- in pairs on the same seed,
alternating which side runs first, and prints, per workload and metric,
each side's median and quartiles and how many pairs the change won.
That is the comparison a claimed gain has to pass: the change wins at
least nine pairs in ten (ties count for neither side) and the medians
differ by more than the parent's interquartile range.  A metric whose
parent runs spread wider than its regression bound (interquartile
range over median) is ``unresolved`` -- the pairs cannot tell a move
inside the bound from noise -- unless every change run beats every
parent run.  Each side's share of failed operations (perfbench's
``failed`` over ``attempted``, summed over the complete pairs) is
printed beside its count of correct runs.

Usage, from the repository root, with the parent checked out beside it
(for example ``git worktree add ../base HEAD~1``)::

    python3 scripts/perf_pairs.py --base ../base --change . \\
        --workload stream_dense --pairs 10 --seed 1001

``make perf-pairs BASE=../base`` runs every workload.  The metrics, their
direction and their regression bounds come from the change's
``BENCHMARK.json``; ``--out runs.jsonl`` keeps every run's JSON line.
``--record benchmarks/BENCH_0010.json`` appends one record per side to
the committed speed trajectory (:func:`make_records`): the checkout's
commit, the seeds, and each end-to-end metric's quartiles per workload.
A run that prints nothing (a crash, a farm harvest timeout) is recorded
with its exit code and the tail of its stderr and the pairs go on; the
summary lists each incomplete pair and the script exits 1.  Neither
checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SIDES = ("base", "change")
#: Schema of the speed-trajectory file ``--record`` appends to.
RECORD_SCHEMA = "repro.perf_record/1"
#: Enough lines to keep a traceback's frames, not only its last line.
STDERR_TAIL_LINES = 40


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its JSON line plus the exit code.

    A run that prints no JSON line (a crash, a farm harvest timeout)
    comes back as ``{"no_result": True, "exit_code": ..., "stderr_tail":
    ...}`` so that one bad run does not throw away the others.
    """
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL_LINES:])
        return {"no_result": True, "exit_code": proc.returncode, "stderr_tail": tail}
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: Sequence[float]) -> List[float]:
    """``[Q1, median, Q3]``; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def _pairs(runs: List[dict], workload: str) -> Tuple[List[Dict[str, dict]], List[str]]:
    """*workload*'s complete pairs (``side -> run``, by seed), and a line
    naming each incomplete one."""
    pairs: Dict[int, Dict[str, dict]] = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
    full, incomplete = [], []
    for seed, p in sorted(pairs.items()):
        whole = len(p) == len(SIDES) and not any(r.get("no_result") for r in p.values())
        if whole:
            full.append(p)
        else:
            incomplete.append(f"  incomplete pair, seed {seed}: {_incomplete(p)}")
    return full, incomplete


def summarise(runs: List[dict], metrics: List[dict]) -> str:
    """The per-workload, per-metric table of paired runs."""
    out = []
    for workload in sorted({r["workload"] for r in runs}):
        full, incomplete = _pairs(runs, workload)
        out.append(f"\n{workload}: {len(full)} pairs, {len(incomplete)} incomplete")
        out.extend(incomplete)
        for side in SIDES:
            bad = sum(not p[side]["correct"] for p in full)
            failed = sum(p[side].get("failed", 0) for p in full)
            attempted = sum(p[side].get("attempted", 0) for p in full)
            share = f" ({failed / attempted:.2%})" if attempted else ""
            out.append(
                f"  {side}: {len(full) - bad}/{len(full)} runs correct,"
                f" {failed}/{attempted} operations failed{share}"
            )
        out.append(
            f"  {'metric':<32} {'base Q1 / median / Q3':>28} {'change Q1 / median / Q3':>28}"
            f" {'wins':>6} {'vs base':>8}  verdict"
        )
        for spec in metrics:
            name = spec["name"]
            rows = [p for p in full if all(name in p[s]["metrics"] for s in SIDES)]
            if not rows:
                continue
            vals = {s: [p[s]["metrics"][name]["value"] for p in rows] for s in SIDES}
            sign = 1.0 if spec["better"] == "higher" else -1.0
            wins = sum(sign * (p["change"]["metrics"][name]["value"] - p["base"]["metrics"][name]["value"]) > 0 for p in rows)
            base_q, change_q = quartiles(vals["base"]), quartiles(vals["change"])
            rel = (change_q[1] - base_q[1]) / base_q[1] if base_q[1] else 0.0
            out.append(
                f"  {name:<32} {_fmt(base_q):>28} {_fmt(change_q):>28}"
                f" {wins:>3}/{len(rows):<2} {rel:>+8.1%}  {_verdict(spec, sign, vals, wins)}"
            )
    return "\n".join(out)


def make_records(
    runs: List[dict], metrics: List[dict], checkouts: Dict[str, Path], seconds: float
) -> List[dict]:
    """One speed-trajectory record per side, from the complete pairs.

    A record holds the checkout's commit (``dirty`` when tracked files
    differ from it), ``--seconds``, and per workload the seeds, the
    count of correct runs and each metric's ``[Q1, median, Q3]``.
    """
    complete = {w: _pairs(runs, w)[0] for w in sorted({r["workload"] for r in runs})}
    records = []
    for side in SIDES:
        workloads = {
            workload: {
                "seeds": [p[side]["seed"] for p in full],
                "correct": sum(bool(p[side]["correct"]) for p in full),
                "metrics": {
                    spec["name"]: quartiles([p[side]["metrics"][spec["name"]]["value"] for p in full])
                    for spec in metrics
                    if all(spec["name"] in p[side]["metrics"] for p in full)
                },
            }
            for workload, full in complete.items()
            if full
        }
        records.append({"side": side, **_commit(checkouts[side]), "seconds": seconds, "workloads": workloads})
    return records


def _commit(checkout: Path) -> Dict[str, object]:
    """``commit`` (``git rev-parse HEAD``) and ``dirty`` of *checkout*."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def append_records(path: Path, records: List[dict]) -> None:
    """Append *records* to the trajectory file *path* (created if absent)."""
    doc = json.loads(path.read_text()) if path.exists() else {"schema": RECORD_SCHEMA, "records": []}
    if doc.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"{path} is not a {RECORD_SCHEMA} file")
    doc["records"].extend(records)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _incomplete(pair: Dict[str, dict]) -> str:
    """Why a pair has no result on some side."""
    why = []
    for side in SIDES:
        r = pair.get(side)
        if r is None:
            why.append(f"{side} not run")
        elif r.get("no_result"):
            tail = r["stderr_tail"].splitlines()[-1:] or ["(no stderr)"]
            why.append(f"{side} failed, exit {r['exit_code']}: {tail[0]}")
    return "; ".join(why)


def _fmt(q: Sequence[float]) -> str:
    return " / ".join(f"{v:.4g}" for v in q)


def _verdict(spec, sign, vals: Dict[str, List[float]], wins: int) -> str:
    """The verdict on one metric's pairs (*vals*, per side).

    ``unresolved`` when the parent's IQR is wider, relative to its
    median, than the metric's bound and not every change run beats
    every parent run; else ``beyond bound`` when the change's median is
    worse by more than the bound, and ``gain`` when the change wins >=
    9/10 of the pairs and its median beats the parent's by more than
    the parent's IQR.
    """
    base_q, change_q = quartiles(vals["base"]), quartiles(vals["change"])
    n = len(vals["base"])
    rel = (change_q[1] - base_q[1]) / base_q[1] if base_q[1] else 0.0
    bound: Optional[float] = spec.get("bound")
    if bound is not None and base_q[1] and (base_q[2] - base_q[0]) / abs(base_q[1]) > bound:
        if min(sign * v for v in vals["change"]) <= max(sign * v for v in vals["base"]):
            return "unresolved"
    if bound is not None and -sign * rel > bound:
        return "beyond bound"
    if wins >= 0.9 * n and sign * (change_q[1] - base_q[1]) > base_q[2] - base_q[0]:
        return "gain"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first pair's seed; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append every run's JSON line here")
    parser.add_argument(
        "--record", type=Path, help="append one end-to-end record per side to this trajectory file"
    )
    args = parser.parse_args(argv)
    if args.record is not None and args.trace:
        parser.error("--record keeps end-to-end metrics; run it with --trace 0")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    checkouts = {"base": args.base, "change": args.change}
    runs: List[dict] = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                result.update(side=side, workload=workload, seed=seed)
                runs.append(result)
                if result.get("no_result"):
                    status = f"FAILED, exit {result['exit_code']}\n{result['stderr_tail']}"
                else:
                    status = f"correct={result['correct']}"
                print(f"{workload} seed {seed} {side}: {status}", file=sys.stderr)
                if args.out is not None:
                    with args.out.open("a") as fh:
                        fh.write(json.dumps(result) + "\n")
    print(summarise(runs, metrics))
    if args.record is not None:
        append_records(args.record, make_records(runs, metrics, checkouts, args.seconds))
    ok = all(not r.get("no_result") and r["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
