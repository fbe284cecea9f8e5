#!/usr/bin/env python3
"""Compare two checkouts on perfbench workloads in alternating pairs.

Usage::

    python3 scripts/bench_pairs.py BASE_CHECKOUT CHANGE_CHECKOUT \\
        --workload many-short [--workload long-think ...] --pairs 10 \\
        --seconds 35 [--seed 1] [--json BENCH.json]

For each ``--workload`` in turn, each pair runs ``perfbench/run.py`` once
in each checkout, one after the other; the base goes first in even pairs
and the change in odd ones.  Every run's end-to-end metrics are printed as
it ends, and each workload's summary block once its pairs are done.  The
summary gives, per metric, each side's median and quartiles, the median
over pairs of change / base, how many pairs the change won, and whether
that is a gain: the change won at least nine tenths of the pairs and its
median beats the base's by more than the distance between the base's
quartiles.  The metrics and which way is better come from the change's
``BENCHMARK.json``.  When every run also printed the CPU seconds of its
tarjama processes per iteration, their median per run is compared the
same way as ``cpu_s``, lower being better: the host's CPU speed moves
between identical runs, which ``wall_s`` alone cannot tell from a change.
With ``--json PATH`` the script also writes what it prints to PATH: both
checkouts' commits, the settings, every run's metrics and ``sha256`` lines
in pair order, each workload's summary rows, and the Python version and
CPU count of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


CPU_LINE = "cpu seconds of the tarjama processes per iteration:"
CPU_METRIC = {"name": "cpu_s", "better": "lower"}


def parse_run(stdout: str) -> dict:
    """The result object that perfbench prints as its last stdout line, with
    the median of its ``CPU_LINE`` values added to its metrics as ``cpu_s``
    when it printed that line, and its ``sha256`` lines as ``sha256``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(CPU_LINE):
            cpu = [float(v) for v in line[len(CPU_LINE):].split()]
            result["metrics"]["cpu_s"] = {"value": statistics.median(cpu), "unit": "s"}
    result["sha256"] = [line for line in lines if line.startswith("sha256 ")]
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One summary per end-to-end metric of ``(base, change)`` result pairs.

    *metrics* are ``BENCHMARK.json``'s ``end_to_end`` entries (``name``,
    ``better``); ``cpu_s`` follows them when every run has it."""
    if all("cpu_s" in r["metrics"] for pair in pairs for r in pair):
        metrics = [*metrics, CPU_METRIC]
    out = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b_q1, b_med, b_q3 = _quartiles(base)
        c_q1, c_med, c_q3 = _quartiles(change)
        gain = c_med - b_med if higher else b_med - c_med
        out.append({
            "name": name, "better": metric["better"],
            "base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
            "ratio": statistics.median(c / b for b, c in zip(base, change)),
            "wins": wins, "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1,
        })
    return out


def _median_and_quartiles(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def format_summary(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        lines.append(
            f"{r['name']:<20} base {_median_and_quartiles(r['base'])}  "
            f"change {_median_and_quartiles(r['change'])}  "
            f"median change/base {r['ratio']:.3f}  change better in {r['wins']}/"
            f"{r['pairs']} pairs ({r['better']} is better)"
            + ("  GAIN" if r["gain"] else ""))
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: perfbench exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return parse_run(proc.stdout)


def _commit(checkout: Path) -> str:
    """The checkout's commit, with ``-dirty`` when its tracked files differ."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to compare; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the runs and summaries here")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    correct = True
    report = {"base": _commit(args.base), "change": _commit(args.change), "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "workloads": {}}
    for workload in args.workload:
        pairs = []
        runs = report["workloads"].setdefault(workload, {"runs": []})["runs"]
        for n in range(args.pairs):
            sides = [("base", args.base), ("change", args.change)]
            result = {}
            for side, checkout in (sides if n % 2 == 0 else sides[::-1]):
                result[side] = run_once(checkout, workload, args.seed, args.seconds)
                values = " ".join(f"{name}={m['value']:.6g}"
                                  for name, m in result[side]["metrics"].items())
                print(f"{workload} pair {n} {side:<6} {values} "
                      f"correct={result[side]['correct']}", flush=True)
                runs.append({"pair": n, "side": side, "correct": result[side]["correct"],
                             "metrics": {name: m["value"]
                                         for name, m in result[side]["metrics"].items()},
                             "sha256": result[side]["sha256"]})
            pairs.append((result["base"], result["change"]))
        rows = summarize(pairs, metrics)
        report["workloads"][workload]["summary"] = rows
        print(f"{workload} summary, seed {args.seed}:")
        print(format_summary(rows), flush=True)
        correct = correct and all(b["correct"] and c["correct"] for b, c in pairs)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
