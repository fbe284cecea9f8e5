"""Layer probes that the traced benchmark run makes from outside the CLI.

Usage: ``python3 perfbench/probes.py UNITS_JSONL WORK_DIR SEED OUT_JSON``
with ``src`` on ``PYTHONPATH``.

* budget: how many of the run's chunks give a prompt, under the default
  config's template, longer than the backend's input window;
* queue depth sweep: ``enqueue`` then one ``worker_loop`` drain of fresh
  queues of 250, 1,000 and 2,000 tasks, in milliseconds per task;
* acquire latency: a benchmark-driven ``acquire`` / ``translate_chunk`` /
  ``complete`` loop over a fresh 1,000-task queue, timing each ``acquire``.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

from tarjama.backends import TranslatorBackend, translate_chunk
from tarjama.config import load_config
from tarjama.corpus import TranslationUnit, read_units
from tarjama.tokenizers import count_tokens
from tarjama.workqueue import acquire, complete, enqueue, worker_loop

import gen

SWEEP_DEPTHS = (250, 1000, 2000)
ACQUIRE_TASKS = 1000
BATCH = 8


def over_window_prompts(units_path: Path, cfg, backend: TranslatorBackend) -> int:
    over = 0
    for unit in read_units(units_path):
        prompt = cfg.prompt_template.format(source=unit.source_text,
                                            target_language=cfg.target_language)
        if count_tokens(prompt, cfg.chunking_tokenizer) > backend.max_input_tokens:
            over += 1
    return over


def _units(rng: random.Random, tag: str, tasks: int) -> list:
    return [TranslationUnit(conversation_id=f"{tag}-{i // 4}", message_index=i % 4,
                            part_type="visible", part_index=0, chunk_index=0,
                            chunk_count=1, role="user",
                            source_text=gen.sentences(rng, 8))
            for i in range(tasks * BATCH)]


def main() -> None:
    units_path, work, seed, out = (Path(sys.argv[1]), Path(sys.argv[2]),
                                   int(sys.argv[3]), Path(sys.argv[4]))
    cfg = load_config(None)
    backend = TranslatorBackend(id="mock-identity", kind="mock-identity",
                                max_input_tokens=cfg.backend.max_input_tokens)
    rng = random.Random(f"probes:{seed}")
    metrics = {"backends.over_window_prompts": over_window_prompts(units_path, cfg, backend)}

    for depth in SWEEP_DEPTHS:
        queue = work / f"sweep-{depth}"
        enqueue(queue, _units(rng, f"d{depth}", depth), "sweep", batch_size=BATCH)
        start = time.perf_counter()
        done = worker_loop(queue, backend, worker_id="sweep",
                           prompt_template=cfg.prompt_template,
                           target_language=cfg.target_language)
        elapsed = time.perf_counter() - start
        if done != depth:
            raise SystemExit(f"sweep queue of {depth} tasks completed {done}")
        metrics[f"workqueue.drain_ms_per_task.d{depth}"] = elapsed * 1000 / depth

    queue = work / "acquire"
    enqueue(queue, _units(rng, "acq", ACQUIRE_TASKS), "acquire", batch_size=BATCH)
    waits = []
    while True:
        start = time.perf_counter()
        task = acquire(queue, "probe")
        waits.append((time.perf_counter() - start) * 1000)
        if task is None:
            break
        results = {u.key: translate_chunk(backend, u, cfg.prompt_template,
                                          target_language=cfg.target_language)
                   for u in task.units}
        complete(queue, task, "probe", results)
    waits.pop()  # the final call that found the queue empty
    if len(waits) != ACQUIRE_TASKS:
        raise SystemExit(f"acquire loop took {len(waits)} of {ACQUIRE_TASKS} tasks")
    cuts = statistics.quantiles(waits, n=100)
    metrics["workqueue.acquire_ms_p50"] = statistics.median(waits)
    metrics["workqueue.acquire_ms_p99"] = cuts[98]
    out.write_text(json.dumps(metrics), encoding="utf-8")


if __name__ == "__main__":
    main()
