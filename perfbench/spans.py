"""In-memory spans around calls into each tarjama layer, and their rollup.

A layer is a tarjama module.  ``Tracer.install`` replaces the public
functions listed in ``LAYERS`` with timing wrappers in every loaded
tarjama module that binds them, so calls made through ``from .x import
y`` names are caught as well as calls inside the defining module.  Spans
stay in memory and are written out once the traced command ends.

Functions called per character (``classify_char``, the ``uniscript``
lookups) are deliberately not wrapped: their cost shows as self time of
the enclosing span instead of as tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> {public function: operation}; a span is named "<module>.<op>".
LAYERS = {
    "corpus": {"load_corpus": "parse", "split_parts": "split",
               "decompose": "decompose", "reconstruct": "reconstruct",
               "write_corpus": "write", "write_units": "write"},
    "chunking": {"plan_chunks": "plan"},
    "tokenizers": {"tokenize": "tokenize", "count_tokens": "count"},
    "workqueue": {"enqueue": "enqueue", "worker_loop": "drain",
                  "acquire": "acquire", "complete": "complete"},
    "backends": {"translate_chunk": "translate"},
    "metrics": {"score_example": "score", "language_ratio": "lr",
                "strip_whitelisted": "scr_strip", "tally_scripts": "scr_tally",
                "contains_cjk": "cjk"},
    "ranking": {"rank_candidates": "rank", "combine_scores": "rank",
                "bt_fit": "bt_fit"},
    "stats": {"aggregate_split": "aggregate", "summarize_config": "aggregate",
              "apply_filter": "filter", "stratified_sample": "sample",
              "emit_report": "report"},
}
ROOT = "cli.main"


def _count_chunks(chunks, counts: Counter) -> None:
    counts["chunking.chunks"] += len(chunks)
    for chunk in chunks:
        counts[f"chunking.kind.{chunk.boundary_kind}"] += 1


# (module, function) -> how to count the work in its return value.
COUNTERS = {
    ("corpus", "decompose"): lambda r, c: c.update({"corpus.units": len(r)}),
    ("chunking", "plan_chunks"): _count_chunks,
    ("tokenizers", "count_tokens"): lambda r, c: c.update({"tokenizers.tokens": r}),
    ("workqueue", "enqueue"): lambda r, c: c.update({"workqueue.tasks": len(r)}),
    ("workqueue", "worker_loop"): lambda r, c: c.update({"workqueue.done_tasks": r}),
    ("backends", "translate_chunk"): lambda r, c: c.update({"backends.calls": 1}),
    ("ranking", "bt_fit"): lambda r, c: c.update({"ranking.bt_iterations": r.iterations}),
    ("stats", "apply_filter"): lambda r, c: c.update({"stats.rejected_rows": len(r[1])}),
}


class Tracer:
    """Records ``[name, parent index, start, end]`` spans of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if count is not None:
                count(result, counts)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions in loaded tarjama modules."""
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"tarjama.{module}"]
            for fn_name, op in functions.items():
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(
                    f"{module}.{op}", fn, COUNTERS.get((module, fn_name))))
        for name, mod in list(sys.modules.items()):
            if not name.startswith("tarjama"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def root(self, fn, *args):
        """Call *fn* under the root span and return its result."""
        return self._wrap(ROOT, fn, None)(*args)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "counts": self.counts}), encoding="utf-8")


def rollup(span_files: list[Path]) -> tuple[dict[str, float], Counter, list[tuple[float, float]]]:
    """Sum spans of several processes into per-name and per-layer seconds.

    Returns ``(seconds, counts, roots)``: ``seconds`` maps ``<span name>``
    to inclusive time, counting a span only when no ancestor has the same
    name, and ``<layer>.self`` to the layer's self time (span durations
    minus the time their child spans cover); ``roots`` are the root span
    intervals of the processes."""
    seconds: Counter = Counter()
    counts: Counter = Counter()
    roots = []
    for path in span_files:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        spans = data["spans"]
        counts.update(data["counts"])
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            seconds[name.split(".")[0] + ".self"] += duration - child_time[idx]
            if parent < 0:
                roots.append((start, end))
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][1]
            if anc < 0:
                seconds[name] += duration
    return seconds, counts, roots
