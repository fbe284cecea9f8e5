#!/usr/bin/env python3
"""Seeded benchmark of the tarjama pipeline, run through the real CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes the generated inputs (see ``gen.py``); the program sees
only the generated files.  Each iteration runs the whole workload from
the input corpus to the report in fresh ``tarjama`` processes (``python3
-m tarjama.cli`` with ``src`` on ``PYTHONPATH``) and then checks the
outputs.  Iterations repeat while their wall times fit in ``--seconds``
seconds (at least one runs).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median wall time per iteration, source characters per second, the
median of the largest peak RSS of any tarjama process per iteration, and
the median set-up time of ``SETUP_SAMPLES`` fresh interpreters.
``--trace 1`` runs one untraced and one traced iteration, where every
tarjama process records spans around its layers' public functions
(``spans.py``), then the outside-the-CLI probes (``probes.py``), and
prints the per-layer metrics.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one queue task or one output
check; a task not in ``done/``, a non-zero exit code or a failed check is
a failure.  The exit code is 0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen
from spans import LAYERS, rollup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import tarjama.cli as cli\n"
    "from tarjama.tokenizers import count_tokens\n"
    "cfg = cli.load_config(None)\n"
    "count_tokens('', cfg.chunking_tokenizer)\n"
    "count_tokens('', cfg.analysis_tokenizer)\n"
    "cli.build_parser()\n"
)
OUTPUTS = ("scored.jsonl", "report.md", "winners.jsonl")


class Checks:
    """Counts operations (queue tasks and output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def queue(self, queue: Path, units: int, enqueued: int | None = None) -> None:
        """Tasks as operations, then: nothing failed or left, every unit done once."""
        done = sorted((queue / "done").glob("*.json"))
        failed = list((queue / "failed").glob("*.json"))
        pending = list((queue / "pending").glob("*.json"))
        tasks = len(done) + len(failed) + len(pending) if enqueued is None else enqueued
        self.attempted += tasks
        self.failed += max(tasks - len(done), 0)
        self.check(not failed and not pending,
                   f"{queue.name}: {len(failed)} failed and {len(pending)} pending tasks")
        if enqueued is not None:
            self.check(len(done) == enqueued,
                       f"{queue.name}: {len(done)} done of {enqueued} enqueued tasks")
        keys = [tuple(u[k] for k in ("conversation_id", "message_index", "part_index",
                                     "chunk_index"))
                for path in done
                for u in json.loads(path.read_text(encoding="utf-8"))["units"]]
        self.check(len(keys) == units and len(set(keys)) == units,
                   f"{queue.name}: done records hold {len(keys)} units, want {units}")


class Procs:
    """Starts tarjama processes and reaps each with ``os.wait4`` to read its
    peak RSS.  Traced processes run under ``traced_cli.py``."""

    def __init__(self, directory: Path, traced: bool) -> None:
        self.dir = directory
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.live: list[subprocess.Popen] = []
        self.started = 0
        self.exit_codes: list[int] = []
        self.peak_rss_kb = 0
        self.cpu_s = 0.0
        self.span_files: list[Path] = []

    def start(self, *args) -> subprocess.Popen:
        n = self.started
        self.started += 1
        if self.traced:
            spans = self.dir / f"spans-{n:02d}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "tarjama.cli", *args]
        log = self.dir / f"proc-{n:02d}.log"
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
        proc.log = log
        self.live.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen) -> str:
        """Reap *proc*; return its output."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        self.exit_codes.append(proc.returncode)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        output = proc.log.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            print(f"{proc.args[3:]} exited {proc.returncode}:\n{output[-2000:]}",
                  file=sys.stderr)
        return output

    def run(self, *args) -> str:
        return self.wait(self.start(*args))

    def stop(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


class PipelineWorkload:
    """One ``tarjama pipeline --backend mock-identity`` run."""

    def __init__(self, base: Path, corpus: list[dict]) -> None:
        self.corpus = corpus
        self.corpus_path = base / "corpus.jsonl"
        gen.write_jsonl(corpus, self.corpus_path)

    def run(self, procs: Procs, d: Path) -> None:
        procs.run("pipeline", "--input", str(self.corpus_path), "--out", str(d / "out"),
                  "--backend", "mock-identity", "--manifest", str(d / "runs.jsonl"))

    def units_path(self, d: Path) -> Path:
        return d / "out" / "units.jsonl"

    def check(self, d: Path, checks: Checks) -> dict[str, str]:
        out = d / "out"
        ids = [c["id"] for c in self.corpus]
        checks.check(_read(out / "translated_corpus.jsonl") == self.corpus,
                     "mock-identity round trip rebuilds the source corpus")
        scored = _read(out / "scored.jsonl")
        checks.check(sorted((r["conversation_id"], r["translator_id"]) for r in scored)
                     == sorted((cid, "mock-identity") for cid in ids),
                     "one scored row per conversation")
        checks.check(all(r["lr"] == 1.0 for r in scored), "identity rows have lr == 1.0")
        units = len(_read(self.units_path(d)))
        checks.queue(out / "queue", units)
        return {name: _sha256(out / name) for name in OUTPUTS}


class StagedWorkload:
    """The single-stage subcommands as a user's shell script runs them, with
    three translators whose queues are each drained by two workers."""

    WORKERS = 2
    SAMPLE_TOTAL = 100

    def __init__(self, base: Path, corpus: list[dict], seed: int) -> None:
        self.corpus = corpus
        self.seed = seed
        self.corpus_path = base / "corpus.jsonl"
        gen.write_jsonl(corpus, self.corpus_path)
        self.backends = {"mock-identity": ["--backend", "mock-identity"]}
        self.expected = {"mock-identity": corpus}
        for tid, table in gen.build_tables(corpus, seed).items():
            path = base / f"{tid}.json"
            path.write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
            self.backends[tid] = ["--backend", "mock-table", "--table", str(path)]
            self.expected[tid] = [gen.translate_conversation(c, table.__getitem__)
                                  for c in corpus]
        self.enqueued: dict[str, int] = {}

    def units_path(self, d: Path) -> Path:
        return d / "units.jsonl"

    def run(self, procs: Procs, d: Path) -> None:
        corpus = str(self.corpus_path)
        common = ["--manifest", str(d / "runs.jsonl")]
        procs.run("decompose", "--input", corpus, "--units-out", str(self.units_path(d)),
                  *common)
        for tid, backend in self.backends.items():
            queue = str(d / f"queue-{tid}")
            out = procs.run("enqueue", "--units", str(self.units_path(d)), "--queue", queue,
                            "--translator-id", tid, *common)
            match = re.search(r"enqueued \d+ units as (\d+) tasks", out)
            self.enqueued[tid] = int(match.group(1)) if match else -1
            workers = [procs.start("work", "--queue", queue, "--worker-id", f"w{k}",
                                   *backend, *common) for k in range(self.WORKERS)]
            for proc in workers:
                procs.wait(proc)
            procs.run("reconstruct", "--from-queue", queue, "--corpus", corpus,
                      "--out", str(d / f"rebuilt-{tid}.jsonl"), *common)

        # Glue a user's script would hold: candidates from the rebuilt corpora.
        rebuilt = {tid: _read(d / f"rebuilt-{tid}.jsonl") for tid in self.backends}
        gen.write_jsonl(({"conversation_id": c["id"], "translator_id": tid,
                          "conversation": c}
                         for tid, convs in rebuilt.items() for c in convs),
                        d / "candidates.jsonl")
        procs.run("score", "--corpus", corpus, "--candidates", str(d / "candidates.jsonl"),
                  "--out", str(d / "scored.jsonl"), *common)
        procs.run("rank", "--scored", str(d / "scored.jsonl"),
                  "--winners-out", str(d / "winners.jsonl"),
                  "--ranking-out", str(d / "ranking.jsonl"), *common)

        # Glue: every ranking is a set of pairwise preferences for bt-fit.
        prefs: Counter = Counter()
        for row in _read(d / "ranking.jsonl"):
            order = [r["translator_id"] for r in row["ranking"]]
            for i, winner in enumerate(order):
                for loser in order[i + 1:]:
                    prefs[(winner, loser)] += 1
        with open(d / "prefs.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["winner", "loser", "count"])
            writer.writerows([w, l, n] for (w, l), n in sorted(prefs.items()))
        procs.run("bt-fit", "--prefs", str(d / "prefs.csv"), "--out", str(d / "bt.csv"),
                  *common)
        procs.run("stats", "--scored", str(d / "scored.jsonl"), "--out",
                  str(d / "report.md"), *common)

        # Glue: the winning candidate of each conversation goes to filter.
        winners = {r["conversation_id"]: r["translator_id"]
                   for r in _read(d / "winners.jsonl")}
        by_conv = {(c["id"], tid): c for tid, convs in rebuilt.items() for c in convs}
        gen.write_jsonl((by_conv[(cid, tid)] for cid, tid in winners.items()),
                        d / "winner-corpus.jsonl")
        gen.write_jsonl((r for r in _read(d / "scored.jsonl")
                         if winners.get(r["conversation_id"]) == r["translator_id"]),
                        d / "winner-scored.jsonl")
        procs.run("filter", "--corpus", str(d / "winner-corpus.jsonl"),
                  "--scored", str(d / "winner-scored.jsonl"),
                  "--kept-out", str(d / "kept.jsonl"),
                  "--rejected-out", str(d / "rejected.jsonl"), *common)
        procs.run("sample", "--corpus", str(d / "kept.jsonl"), "--out",
                  str(d / "sampled.jsonl"), "--ratios", "code:1,science:1,math:2",
                  "--total", str(self.SAMPLE_TOTAL), "--seed", str(self.seed),
                  "--allow-shortfall", *common)

    def check(self, d: Path, checks: Checks) -> dict[str, str]:
        ids = [c["id"] for c in self.corpus]
        units = len(_read(self.units_path(d)))
        for tid, expected in self.expected.items():
            checks.queue(d / f"queue-{tid}", units, self.enqueued[tid])
            checks.check(_read(d / f"rebuilt-{tid}.jsonl") == expected,
                         f"{tid}: rebuilt corpus matches the expected translation")
        scored = _read(d / "scored.jsonl")
        checks.check(sorted((r["conversation_id"], r["translator_id"]) for r in scored)
                     == sorted((cid, tid) for cid in ids for tid in self.expected),
                     "one scored row per conversation per translator")
        checks.check(all(r["lr"] == 1.0 for r in scored
                         if r["translator_id"] == "mock-identity"),
                     "identity rows have lr == 1.0")
        checks.check(sorted(r["conversation_id"] for r in _read(d / "winners.jsonl"))
                     == sorted(ids), "one winner per conversation")
        with open(d / "bt.csv", encoding="utf-8") as fh:
            systems = [row[0] for row in csv.reader(fh)][1:]
        checks.check(sorted(systems) == sorted(self.expected), "bt-fit scores every translator")
        kept = _read(d / "kept.jsonl")
        rejected = _read(d / "rejected.jsonl")
        checks.check(len(kept) + len(rejected) == len(ids),
                     "filter keeps or rejects every winner")
        sampled = _read(d / "sampled.jsonl")
        kept_ids = {c["id"] for c in kept}
        checks.check(len(sampled) == min(self.SAMPLE_TOTAL, len(kept))
                     and all(c["id"] in kept_ids for c in sampled),
                     "sample draws its quota from the kept rows")
        return {name: _sha256(d / name) for name in OUTPUTS}


def _read(path: Path) -> list[dict]:
    return gen.read_jsonl(path) if path.is_file() else []


def _iteration(workload, base: Path, n: int, traced: bool,
               checks: Checks) -> tuple[float, Procs, dict[str, str], Path]:
    # Iteration directories are removed with the whole run directory at the
    # end, so that no deletion of thousands of queue files overlaps a timed
    # iteration.
    d = base / f"iter-{n:03d}"
    d.mkdir()
    procs = Procs(d, traced)
    try:
        start = time.perf_counter()
        workload.run(procs, d)
        wall = time.perf_counter() - start
    finally:
        procs.stop()
    for rc in procs.exit_codes:
        checks.check(rc == 0, f"exit code {rc}")
    return wall, procs, workload.check(d, checks), d


def measure_setup(base: Path) -> list[float]:
    """Seconds from interpreter start to ready-for-the-first-stage, per sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=base, env=env, check=True)  # writes bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=base, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def layer_metrics(wall_untraced: float, wall_traced: float, procs: Procs,
                  probes: dict) -> dict[str, float]:
    seconds, counts, roots = rollup(procs.span_files)
    metrics = {f"{name}_s": seconds[name]
               for layer, functions in LAYERS.items()
               for name in {f"{layer}.{op}" for op in functions.values()}}
    for layer in ["cli", *LAYERS]:
        metrics[f"{layer}.self_s"] = seconds[f"{layer}.self"]
    for name in ("corpus.units", "chunking.chunks", "tokenizers.tokens", "workqueue.tasks",
                 "workqueue.done_tasks", "backends.calls", "ranking.bt_iterations",
                 "stats.rejected_rows"):
        metrics[name] = counts[name]
    chunks = counts["chunking.chunks"]
    for kind in ("sentence", "whitespace", "hard"):
        metrics[f"chunking.share_{kind}"] = (
            counts[f"chunking.kind.{kind}"] / chunks if chunks else 0.0)
    metrics.update(probes)
    metrics["trace.wall_s"] = wall_traced
    metrics["bench.outside_s"] = wall_traced - _union(roots)
    metrics["trace_overhead_share"] = wall_traced / wall_untraced - 1.0

    covered = sum(metrics[f"{layer}.self_s"] for layer in ["cli", *LAYERS])
    print(f"traced wall {wall_traced:.3f} s (untraced {wall_untraced:.3f} s): "
          f"layer and cli self {covered:.3f} s + outside tarjama processes "
          f"{metrics['bench.outside_s']:.3f} s")
    for layer in ["cli", *LAYERS]:
        self_s = metrics[f"{layer}.self_s"]
        print(f"  {layer:<10} self {self_s:8.3f} s  {self_s / wall_traced:6.1%} of traced wall")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tarjama" / "cli.py").is_file():
        print(f"error: no tarjama sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        corpus = gen.generate(args.workload, args.seed)
        if args.workload == "ensemble-staged":
            workload = StagedWorkload(base, corpus, args.seed)
        else:
            workload = PipelineWorkload(base, corpus)
        chars = gen.source_chars(corpus)
        print(f"workload {args.workload} seed {args.seed}: {len(corpus)} conversations, "
              f"{chars} source characters")
        checks = Checks()
        digests = []
        if args.trace:
            wall_untraced, _, dig, _ = _iteration(workload, base, 0, False, checks)
            digests.append(dig)
            wall_traced, procs, dig, d = _iteration(workload, base, 1, True, checks)
            digests.append(dig)
            probe_out = base / "probes.json"
            subprocess.run([sys.executable, str(HERE / "probes.py"),
                            str(workload.units_path(d)), str(base), str(args.seed),
                            str(probe_out)],
                           cwd=base, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
            values = layer_metrics(wall_untraced, wall_traced, procs,
                                   json.loads(probe_out.read_text(encoding="utf-8")))
        else:
            setup = measure_setup(base)
            walls, rss, cpu = [], [], []
            while True:
                wall, procs, dig, _ = _iteration(workload, base, len(walls), False, checks)
                walls.append(wall)
                rss.append(procs.peak_rss_kb / 1024)
                cpu.append(procs.cpu_s)
                digests.append(dig)
                # Start no iteration that would overrun the measuring budget.
                if sum(walls) + statistics.median(walls) > args.seconds:
                    break
            wall = statistics.median(walls)
            values = {"setup_s": statistics.median(setup), "wall_s": wall,
                      "source_chars_per_s": chars / wall,
                      "peak_rss_mb": statistics.median(rss)}
            print(f"wall_s median {wall:.4f} s over {len(walls)} iterations: "
                  + " ".join(f"{w:.3f}" for w in walls))
            print("cpu seconds of the tarjama processes per iteration: "
                  + " ".join(f"{c:.3f}" for c in cpu))
            print(f"setup_s median {values['setup_s']:.4f} s over {len(setup)} samples")
        checks.check(all(dig == digests[0] for dig in digests),
                     "outputs are identical in every iteration")
        for name, digest in digests[0].items():
            print(f"sha256 {args.workload} seed={args.seed} {name} {digest}")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
