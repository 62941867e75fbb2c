"""Alternating parent/change pairs of the decode-stack benchmark.

Runs ``perfbench/run.py`` from two checkouts -- the parent commit
(``--base``) and the change (``--change``) -- in pairs on the same seed,
alternating which side runs first, and prints, per workload and metric,
each side's median and quartiles and how many pairs the change won.
That is the comparison a claimed gain has to pass: the change wins at
least nine pairs in ten (ties count for neither side) and the medians
differ by more than the parent's interquartile range.

Usage, from the repository root, with the parent checked out beside it
(for example ``git worktree add ../base HEAD~1``)::

    python3 scripts/perf_pairs.py --base ../base --change . \\
        --workload stream_dense --pairs 10 --seed 1001

``make perf-pairs BASE=../base`` runs every workload.  The metrics, their
direction and their regression bounds come from the change's
``BENCHMARK.json``; ``--out runs.jsonl`` keeps every run's JSON line.
Neither checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its JSON line plus the exit code."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed nothing\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: Sequence[float]) -> List[float]:
    """``[Q1, median, Q3]``; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarise(runs: List[dict], metrics: List[dict]) -> str:
    """The per-workload, per-metric table of paired runs."""
    out = []
    for workload in sorted({r["workload"] for r in runs}):
        pairs: Dict[int, Dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        full = [p for p in pairs.values() if len(p) == len(SIDES)]
        out.append(f"\n{workload}: {len(full)} pairs")
        for side in SIDES:
            bad = sum(not p[side]["correct"] for p in full)
            out.append(f"  {side}: {len(full) - bad}/{len(full)} runs correct")
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
                f" {wins:>3}/{len(rows):<2} {rel:>+8.1%}  {_verdict(spec, sign, rel, wins, len(rows), base_q, change_q)}"
            )
    return "\n".join(out)


def _fmt(q: Sequence[float]) -> str:
    return " / ".join(f"{v:.4g}" for v in q)


def _verdict(spec, sign, rel, wins, n, base_q, change_q) -> str:
    """``gain`` when the change wins >= 9/10 of the pairs and its median
    beats the parent's by more than the parent's IQR; ``beyond bound``
    when its median is worse by more than the metric's bound."""
    bound: Optional[float] = spec.get("bound")
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
    args = parser.parse_args(argv)

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
                print(f"{workload} seed {seed} {side}: correct={result['correct']}", file=sys.stderr)
                if args.out is not None:
                    with args.out.open("a") as fh:
                        fh.write(json.dumps(result) + "\n")
    print(summarise(runs, metrics))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
