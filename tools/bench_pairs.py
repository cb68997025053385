#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, parent and change, with the figures a perf claim needs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload gradcheck --seed 41 --pairs 10 --seconds 25

Each pair runs ``perfbench/run.py`` once in each checkout, one process at a
time; the parent runs first in even pairs and the change first in odd ones,
so a slow stretch of a shared host lands on both sides. Every checkout runs
its own ``perfbench/run.py`` on its own ``src``, with the ``BENCHMARK.json``
of that checkout. For each end-to-end metric it prints the parent's and the
change's median, the change's median difference in percent, the pairs the
change won (strictly better in the metric's ``better`` direction, as the
parent's ``BENCHMARK.json`` declares it), and the parent's interquartile
range. Last it prints the units each run finished, from perfbench's
"over N units" line, and the failed operations. ``--save`` writes every
run's metrics and unit count as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

UNITS = re.compile(r" over (\d+) units$", re.MULTILINE)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its end-to-end metrics, units finished and failed operations."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=4 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {checkout} printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    units = UNITS.search(proc.stdout)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": int(units.group(1)) if units else None,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
    }


def summary(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    lines = [f"{'metric':<14} {'parent':>11} {'change':>11} {'diff':>8} {'won':>7} {'parent IQR':>11}"]
    for name, direction in better.items():
        a = np.array([r["metrics"][name] for r in parent])
        b = np.array([r["metrics"][name] for r in change])
        won = int(np.sum(b < a if direction == "lower" else b > a))
        q1, q3 = np.percentile(a, [25, 75])
        ma, mb = np.median(a), np.median(b)
        lines.append(f"{name:<14} {ma:>11.6g} {mb:>11.6g} {100 * (mb - ma) / ma:>+7.1f}% "
                     f"{won:>3}/{len(a):<3} {q3 - q1:>11.4g}")
    for side, runs in (("parent", parent), ("change", change)):
        lines.append(f"{side} units finished: {' '.join(str(r['units']) for r in runs)}; failed operations: "
                     f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--save", type=Path, help="write every run's figures here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            figures = " ".join(f"{k}={v:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1}/{args.pairs} {side}: {figures} units={result['units']}"
                  + ("" if result["correct"] else " NOT CORRECT"), flush=True)
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, medians")
    print("\n".join(summary(runs["parent"], runs["change"], better)))
    if args.save:
        args.save.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                         **runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
