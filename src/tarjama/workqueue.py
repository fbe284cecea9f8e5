"""Multi-process work queue over a shared directory.

Layout: ``pending/<task_id>.json``, ``leases/<task_id>.lock``,
``done/<task_id>.json``, ``failed/<task_id>.json``.  All coordination
uses atomic filesystem operations, so the queue is safe across worker
processes on a shared filesystem:

* a lease is an exclusively created lock file; expired locks are claimed
  by renaming them away before re-locking, so takeover is exactly-once;
* completions publish via ``os.link`` onto the done path, which fails if
  a record already exists, making completion exactly-once per task;
* task files are written to a temp name and renamed into place.

A draining worker lists pending/ once per pass and claims the listed
tasks in directory order, not sorted order, so a drain's cost per task
does not grow with the queue's depth.

Task ids are content hashes of the batch, so re-enqueueing the same
units is a no-op.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import uuid
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .backends import TranslatorBackend, translate_chunk
from .corpus import TranslationUnit, unit_from_dict, unit_to_dict

logger = logging.getLogger(__name__)

DEFAULT_TTL_SECONDS = 1800.0  # generous: long reasoning traces generate slowly
DEFAULT_MAX_ATTEMPTS = 3

UnitKey = tuple[str, int, int, int]


class QueueError(Exception):
    pass


class ResultIncompleteError(QueueError):
    def __init__(self, missing: Sequence[UnitKey]):
        self.missing = list(missing)
        super().__init__(f"results missing for units: {self.missing}")


@dataclass
class Task:
    task_id: str
    translator_id: str
    attempt: int
    units: list[TranslationUnit]

    @property
    def unit_refs(self) -> list[UnitKey]:
        return [u.key for u in self.units]


@dataclass
class Lease:
    task_id: str
    worker_id: str
    acquired_at: float
    ttl: float

    def expired(self, now: float) -> bool:
        return now > self.acquired_at + self.ttl


def _dirs(queue_dir: Union[str, Path]) -> dict[str, Path]:
    base = Path(queue_dir)
    return {name: base / name for name in ("pending", "leases", "done", "failed")}


def init_queue(queue_dir: Union[str, Path]) -> None:
    for path in _dirs(queue_dir).values():
        path.mkdir(parents=True, exist_ok=True)


def _atomic_write_json(path: Path, obj: dict) -> None:
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    os.rename(tmp, path)


def _exclusive_publish_json(path: Path, obj: dict) -> bool:
    """Atomically create *path* with *obj*; False if it already exists."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)


def _task_to_dict(task: Task) -> dict:
    return {
        "task_id": task.task_id,
        "translator_id": task.translator_id,
        "attempt": task.attempt,
        "units": [unit_to_dict(u) for u in task.units],
    }


def _task_from_dict(obj: Mapping) -> Task:
    return Task(
        task_id=obj["task_id"],
        translator_id=obj["translator_id"],
        attempt=obj["attempt"],
        units=[unit_from_dict(u) for u in obj["units"]],
    )


def _batch_task_id(units: Sequence[TranslationUnit], translator_id: str) -> str:
    payload = json.dumps(
        {"translator_id": translator_id, "units": [unit_to_dict(u) for u in units]},
        sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def enqueue(queue_dir: Union[str, Path], units: Sequence[TranslationUnit],
            translator_id: str, batch_size: int = 8) -> list[Task]:
    """Batch units into tasks and write them to pending/ atomically.

    Idempotent: batches already pending or done are not re-added."""
    if not units:
        raise ValueError("cannot enqueue zero units")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    init_queue(queue_dir)
    dirs = _dirs(queue_dir)
    tasks: list[Task] = []
    for start in range(0, len(units), batch_size):
        batch = list(units[start:start + batch_size])
        task = Task(
            task_id=_batch_task_id(batch, translator_id),
            translator_id=translator_id,
            attempt=0,
            units=batch,
        )
        tasks.append(task)
        pending_path = dirs["pending"] / f"{task.task_id}.json"
        done_path = dirs["done"] / f"{task.task_id}.json"
        if pending_path.exists() or done_path.exists():
            continue
        _atomic_write_json(pending_path, _task_to_dict(task))
    return tasks


def _read_lease(path: Path) -> Optional[Lease]:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return Lease(task_id=obj["task_id"], worker_id=obj["worker_id"],
                 acquired_at=obj["acquired_at"], ttl=obj["ttl"])


def _try_lock(lock_path: Path, lease: Lease) -> bool:
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(lease.__dict__, fh)
    return True


def _pending_ids(pending: Path) -> Iterator[str]:
    """Task ids in pending/, read lazily in directory order; none if it is
    missing."""
    try:
        entries = os.scandir(pending)
    except (FileNotFoundError, NotADirectoryError):
        return
    with entries:
        for entry in entries:
            if entry.name.endswith(".json"):
                yield entry.name[:-5]


def _claim(dirs: dict[str, Path], task_id: str, worker_id: str, ttl: float,
           now: Callable[[], float]) -> Optional[Task]:
    """Lease one task by id, or None when it is done, held or gone.

    Expired leases are taken over (incrementing the task's attempt
    counter); exclusive lock-file creation guarantees no double grant."""
    pending_path = dirs["pending"] / f"{task_id}.json"
    done_path = dirs["done"] / f"{task_id}.json"
    lock_path = dirs["leases"] / f"{task_id}.lock"
    if done_path.exists():
        # Completed by a worker that died before tidying up.
        pending_path.unlink(missing_ok=True)
        lock_path.unlink(missing_ok=True)
        return None
    took_over = False
    lease = Lease(task_id=task_id, worker_id=worker_id,
                  acquired_at=now(), ttl=ttl)
    if not _try_lock(lock_path, lease):
        existing = _read_lease(lock_path)
        if existing is None or not existing.expired(now()):
            return None
        # Claim the stale lock by renaming it away; exactly one
        # claimant wins the rename, then locking proceeds normally.
        stale = lock_path.with_name(f".{task_id}.stale.{uuid.uuid4().hex}")
        try:
            os.rename(lock_path, stale)
        except FileNotFoundError:
            return None
        stale.unlink(missing_ok=True)
        lease = Lease(task_id=task_id, worker_id=worker_id,
                      acquired_at=now(), ttl=ttl)
        if not _try_lock(lock_path, lease):
            return None
        took_over = True
    try:
        task = _task_from_dict(json.loads(pending_path.read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError):
        # Task vanished (completed) or is mid-replacement; back off.
        lock_path.unlink(missing_ok=True)
        return None
    if took_over:
        task.attempt += 1
        _atomic_write_json(pending_path, _task_to_dict(task))
    return task


def acquire(queue_dir: Union[str, Path], worker_id: str,
            ttl: float = DEFAULT_TTL_SECONDS,
            now: Callable[[], float] = time.time) -> Optional[Task]:
    """Claim one pending task, or None when nothing is claimable.

    Reads pending/ in directory order and returns the first task that can
    be leased, without listing the rest.  Expired leases are taken over
    (incrementing the task's attempt counter); exclusive lock-file
    creation guarantees no double grant."""
    dirs = _dirs(queue_dir)
    with closing(_pending_ids(dirs["pending"])) as task_ids:
        for task_id in task_ids:
            task = _claim(dirs, task_id, worker_id, ttl, now)
            if task is not None:
                return task
    return None


def complete(queue_dir: Union[str, Path], task: Task, worker_id: str,
             results: Mapping[UnitKey, str]) -> bool:
    """Publish a task's translations to done/ exactly once.

    Returns False (with a warning) when another worker already completed
    the task; raises ResultIncompleteError when results are partial, in
    which case the lease is kept."""
    missing = [key for key in task.unit_refs if key not in results]
    if missing:
        raise ResultIncompleteError(missing)
    dirs = _dirs(queue_dir)
    record = {
        "task_id": task.task_id,
        "translator_id": task.translator_id,
        "worker_id": worker_id,
        "attempt": task.attempt,
        "units": [dict(unit_to_dict(u), translated_text=results[u.key],
                       translator_id=task.translator_id) for u in task.units],
    }
    done_path = dirs["done"] / f"{task.task_id}.json"
    published = _exclusive_publish_json(done_path, record)
    if not published:
        logger.warning("task %s already completed; discarding duplicate from %s",
                       task.task_id, worker_id)
    (dirs["pending"] / f"{task.task_id}.json").unlink(missing_ok=True)
    (dirs["leases"] / f"{task.task_id}.lock").unlink(missing_ok=True)
    return published


def fail_task(queue_dir: Union[str, Path], task: Task, worker_id: str,
              reason: str) -> bool:
    """Move a poison task to failed/ with diagnostics."""
    dirs = _dirs(queue_dir)
    record = dict(_task_to_dict(task), worker_id=worker_id, reason=reason)
    published = _exclusive_publish_json(dirs["failed"] / f"{task.task_id}.json", record)
    (dirs["pending"] / f"{task.task_id}.json").unlink(missing_ok=True)
    (dirs["leases"] / f"{task.task_id}.lock").unlink(missing_ok=True)
    return published


def queue_status(queue_dir: Union[str, Path],
                 now: Callable[[], float] = time.time) -> dict[str, int]:
    dirs = _dirs(queue_dir)
    leases = [_read_lease(p) for p in dirs["leases"].glob("*.lock")] \
        if dirs["leases"].is_dir() else []
    active = sum(1 for lease in leases if lease is not None and not lease.expired(now()))
    count = (lambda p: sum(1 for _ in p.glob("*.json")) if p.is_dir() else 0)
    return {
        "pending": count(dirs["pending"]),
        "leased": active,
        "done": count(dirs["done"]),
        "failed": count(dirs["failed"]),
    }


def worker_loop(queue_dir: Union[str, Path], backend: TranslatorBackend,
                worker_id: str, ttl: float = DEFAULT_TTL_SECONDS,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                poll_interval: float = 0.2,
                prompt_template: str = "{source}",
                target_language: str = "Arabic",
                now: Callable[[], float] = time.time,
                sleep: Callable[[float], None] = time.sleep) -> int:
    """Process tasks until the queue drains; returns the completed count.

    The worker lists pending/ once per pass and tries to claim each
    listed task in directory order, not sorted order; it lists again only
    when the pass is used up, so a drain costs one listing per pass, not
    one per task.  It returns when a fresh listing is empty and sleeps
    ``poll_interval`` only after a pass that claimed nothing, while other
    workers still hold the remaining leases.

    Crash-safe: leases left by killed workers expire and their tasks are
    retried.  Tasks whose attempt counter exceeds ``max_attempts`` move
    to failed/ instead of being retried forever."""
    processed = 0
    dirs = _dirs(queue_dir)
    idle = False
    while True:
        task_ids = list(_pending_ids(dirs["pending"]))
        if not task_ids:
            return processed
        if idle:
            sleep(poll_interval)
        idle = True
        for task_id in task_ids:
            task = _claim(dirs, task_id, worker_id, ttl, now)
            if task is None:
                continue
            idle = False
            if task.attempt >= max_attempts:
                fail_task(queue_dir, task, worker_id,
                          f"exceeded {max_attempts} attempts")
                logger.warning("task %s moved to failed/ after %d attempts",
                               task.task_id, task.attempt)
                continue
            try:
                results = {
                    unit.key: translate_chunk(backend, unit, prompt_template,
                                              target_language=target_language)
                    for unit in task.units
                }
            except Exception as exc:
                fail_task(queue_dir, task, worker_id, f"translation failed: {exc}")
                logger.error("task %s failed: %s", task.task_id, exc)
                continue
            if complete(queue_dir, task, worker_id, results):
                processed += 1
