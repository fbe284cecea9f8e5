"""Multi-process work queue over a shared directory.

Layout: ``pending/<task_id>.json``, ``leases/<task_id>.lock`` (attempt 0)
and ``leases/<task_id>.<n>.lock`` (attempt n), ``done/<task_id>.json``,
``failed/<task_id>.json``.  All coordination uses atomic filesystem
operations, so the queue is safe across worker processes on a shared
filesystem.  Every queue file has one writer:

* ``enqueue`` writes a task's pending record once, to a temp name renamed
  into place, and nothing rewrites it.  A task that is neither pending nor
  done gets a fresh one, after every lock its last run left and its
  failed record are removed;
* every attempt of a task is one exclusive create of that attempt's lock,
  an empty file whose mtime is its claim time; a claimant that finds a
  lock older than its own ``ttl`` moves on to the next attempt's lock.  A
  task's locks stay until it leaves pending/, so no attempt is granted
  twice and the attempt count lives only in the lock's name;
* only the holder of an attempt writes into its lock: the translations
  kept through a transient error, and at the end the task's done or
  failed record.  A holder whose lock is gone has lost the task to a
  peer, and publishes nothing;
* a done or failed record is published by ``os.link``-ing the lock onto
  its path; the link fails if a record already exists;
* a task has ended when its pending record is gone, or when one of its
  locks is linked onto a done or failed record (``_ended``): a claimant
  that cannot create its lock, or a holder about to publish, clears such
  a task instead, so each task is in one of pending/, done/ and failed/.

A task holds at least ``batch_size`` units, and more only while their
source text fits in the caller's character budget (``pack_batches``).
Task ids are content hashes of the translator id and the batch's units
JSON, so re-enqueueing the same units is a no-op; that JSON is joined from
the units' own JSON texts and the pending record is written around it.  A
claimed task keeps the unit dicts decoded from its record, and its done
record adds the translation fields to those dicts.  Only this module
builds queue paths and reads queue records.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from contextlib import closing
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .backends import BackendError, PermanentBackendError, TranslatorBackend, translate_chunk
from .corpus import (CorpusError, TranslationUnit, check_translated_record, json_text,
                     unit_from_dict, unit_to_dict)

logger = logging.getLogger(__name__)

DEFAULT_TTL_SECONDS = 1800.0  # generous: long reasoning traces generate slowly
DEFAULT_MAX_ATTEMPTS = 6

UnitKey = tuple[str, int, int, int]


class ResultIncompleteError(Exception):
    def __init__(self, missing: Sequence[UnitKey]):
        self.missing = list(missing)
        super().__init__(f"results missing for units: {self.missing}")


class Task:
    """A batch of units for one translator.  ``attempt`` is the number of the
    lock a claimed task holds.  ``unit_dicts`` are the units as
    ``unit_to_dict`` gives them; a claimed task keeps the dicts it decoded
    from its record, other tasks build them on first use."""
    __slots__ = ("task_id", "translator_id", "attempt", "units", "_unit_dicts")

    def __init__(self, task_id: str, translator_id: str, attempt: int,
                 units: list[TranslationUnit],
                 unit_dicts: Optional[list[dict]] = None) -> None:
        self.task_id = task_id
        self.translator_id = translator_id
        self.attempt = attempt
        self.units = units
        self._unit_dicts = unit_dicts

    @property
    def unit_dicts(self) -> list[dict]:
        if self._unit_dicts is None:
            self._unit_dicts = [unit_to_dict(u) for u in self.units]
        return self._unit_dicts


def _dirs(queue_dir: Union[str, Path]) -> dict[str, Path]:
    base = Path(queue_dir)
    return {name: base / name for name in ("pending", "leases", "done", "failed")}


def init_queue(queue_dir: Union[str, Path]) -> None:
    for path in _dirs(queue_dir).values():
        path.mkdir(parents=True, exist_ok=True)


def _atomic_write_json(path: Path, text: str) -> None:
    """Write the JSON *text* to *path* through a temp name and a rename; a
    write that fails leaves no temp file behind."""
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.rename(tmp, path)


def _task_to_dict(task: Task) -> dict:
    """A task's pending record; its attempt is the name of the lock it holds."""
    return {"task_id": task.task_id, "translator_id": task.translator_id,
            "units": task.unit_dicts}


def _task_from_json(data: bytes, attempt: int) -> Task:
    """The task of a pending record, or of a record kept in a lock; raises
    ValueError, LookupError or TypeError for anything else."""
    obj = json.loads(data.decode("utf-8"))
    return Task(obj["task_id"], obj["translator_id"], attempt,
                [unit_from_dict(u) for u in obj["units"]], obj["units"])


def _units_json(unit_texts: Sequence[str]) -> str:
    """A batch's units JSON from its units' JSON texts: the text that
    ``json_text`` gives for the list of their dicts."""
    return "[" + ", ".join(unit_texts) + "]"


def _batch_task_id(units_json: str, translator_id: str) -> str:
    """Content hash of a batch: the translator id's JSON string, which ends
    at its closing quote, followed by the batch's ``_units_json`` text."""
    payload = json_text(translator_id) + units_json
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _task_json(task: Task, units_json: str) -> str:
    """The text ``json_text(_task_to_dict(task))`` gives, around the
    already encoded units of *task*."""
    return (f'{{"task_id": {json_text(task.task_id)}, '
            f'"translator_id": {json_text(task.translator_id)}, "units": {units_json}}}')


def pack_batches(units: Iterable[TranslationUnit], batch_size: int,
                 char_budget: int = 0) -> Iterator[list[TranslationUnit]]:
    """Group *units*, in order, into the batches of queue tasks.

    A batch closes once it holds at least *batch_size* units and the next
    unit would push its source text past *char_budget* characters; with a
    budget of 0 every batch but the last holds exactly *batch_size* units.
    Every token covers at least one code point, so with a budget of
    ``batch_size * hard_cap_tokens`` a task carries at most that many
    source tokens, as *batch_size* full chunks do, while short units pack
    many to a task."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batch: list[TranslationUnit] = []
    chars = 0
    for unit in units:
        size = len(unit.source_text)
        if len(batch) >= batch_size and chars + size > char_budget:
            yield batch
            batch, chars = [], 0
        batch.append(unit)
        chars += size
    if batch:
        yield batch


def enqueue(queue_dir: Union[str, Path], units: Sequence[TranslationUnit],
            translator_id: str, batch_size: int = 8, char_budget: int = 0,
            unit_texts: Optional[Sequence[str]] = None) -> list[Task]:
    """Batch units into tasks with ``pack_batches`` and write them to
    pending/ atomically.

    *unit_texts* are the units' ``json_text(unit_to_dict(unit))`` texts,
    for a caller that has encoded them already; they are encoded here
    when not given.  Idempotent: batches already pending or done are not
    re-added.  Any other batch first loses every lock its last run left,
    then its failed/ record; a crash between these steps leaves it failed
    or in no state, and enqueueing it again finishes the job."""
    if not units:
        raise ValueError("cannot enqueue zero units")
    if unit_texts is None:
        unit_texts = [json_text(unit_to_dict(u)) for u in units]
    elif len(unit_texts) != len(units):
        raise ValueError("unit_texts must hold one text per unit")
    batches = list(pack_batches(units, batch_size, char_budget))
    init_queue(queue_dir)
    dirs = _dirs(queue_dir)
    tasks: list[Task] = []
    start = 0
    for batch in batches:
        units_json = _units_json(unit_texts[start:start + len(batch)])
        start += len(batch)
        task = Task(_batch_task_id(units_json, translator_id), translator_id, 0, batch)
        tasks.append(task)
        pending_path = dirs["pending"] / f"{task.task_id}.json"
        if pending_path.exists() or (dirs["done"] / pending_path.name).exists():
            continue
        for lock in dirs["leases"].glob(f"{task.task_id}.*"):  # after a gap too
            lock.unlink(missing_ok=True)
        (dirs["failed"] / pending_path.name).unlink(missing_ok=True)
        _atomic_write_json(pending_path, _task_json(task, units_json))
    return tasks


def _try_lock(lock_path: Path, claimed_at: float) -> bool:
    """Create the empty lock *lock_path* with mtime *claimed_at*, unless it exists."""
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.utime(fd, (claimed_at, claimed_at))
    finally:
        os.close(fd)
    return True


def _expired(lock_path: Path, ttl: float, now: Callable[[], float]) -> bool:
    """Whether a lease has ended: ``ttl`` after its lock's mtime, or with its lock."""
    try:
        return now() > lock_path.stat().st_mtime + ttl
    except FileNotFoundError:
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


def _lock_path(leases: Path, task_id: str, attempt: int) -> Path:
    """The lock of one attempt of a task; attempt 0 keeps the name that the
    one lock of older versions had."""
    return leases / (f"{task_id}.{attempt}.lock" if attempt else f"{task_id}.lock")


def _write_lock(lock: Path, text: str, stamp: Optional[float] = None) -> None:
    """Write *text* into the held *lock*, setting its mtime to *stamp*, or
    keeping its mtime when *stamp* is None.  FileNotFoundError means the
    lock is gone, so its holder has lost the task.  A text that cannot be
    encoded leaves the lock as it was."""
    data = text.encode("utf-8")
    with open(lock, "r+b") as fh:
        mtime_ns = os.fstat(fh.fileno()).st_mtime_ns
        fh.truncate()
        fh.write(data)
        fh.flush()
        if stamp is None:
            os.utime(fh.fileno(), ns=(mtime_ns, mtime_ns))
        else:
            os.utime(fh.fileno(), (stamp, stamp))


def _clear(dirs: dict[str, Path], task_id: str, held: int = 0) -> None:
    """Take a task out of pending/, then remove its locks: those of attempts
    0 to *held*, which a peer's cleanup may have removed already, and those
    after it up to the first one missing."""
    (dirs["pending"] / f"{task_id}.json").unlink(missing_ok=True)
    for attempt in count():
        try:
            _lock_path(dirs["leases"], task_id, attempt).unlink()
        except FileNotFoundError:
            if attempt >= held:
                return


def _ended(dirs: dict[str, Path], task_id: str, attempt: int) -> bool:
    """Whether a task has ended: its pending/ record is gone, or one of its
    locks is linked onto a done or failed record.  The locks read are those
    of attempts 0 to *attempt*, and those after it up to the first one
    missing."""
    if not (dirs["pending"] / f"{task_id}.json").exists():
        return True
    for n in count():
        try:
            if _lock_path(dirs["leases"], task_id, n).stat().st_nlink > 1:
                return True
        except FileNotFoundError:
            if n > attempt:
                return False


def _publish(dirs: dict[str, Path], state: str, task_id: str, attempt: int,
             record: dict) -> bool:
    """Write *record* into the lock of *attempt*, link the lock onto the
    task's record in *state*/ ("done" or "failed"), and clear the task.

    False (with a warning) when the task has ended, or its lock is gone,
    for a peer took it over."""
    lock = _lock_path(dirs["leases"], task_id, attempt)
    path = dirs[state] / f"{task_id}.json"
    try:
        published = not _ended(dirs, task_id, attempt)
        if published:
            _write_lock(lock, json_text(record))
            os.link(lock, path)
    except FileNotFoundError:
        logger.warning("task %s was taken over by a peer; discarding duplicate from %s",
                       task_id, record["worker_id"])
        return False
    except FileExistsError:
        published = False
    if not published:
        logger.warning("task %s already ended; discarding duplicate from %s",
                       task_id, record["worker_id"])
    elif state == "failed":
        logger.error("task %s failed: %s", task_id, record["reason"])
    _clear(dirs, task_id, attempt)
    return published


def _check_ttl(ttl: float) -> None:
    if not ttl > 0:  # NaN too
        raise ValueError(f"ttl must be positive, not {ttl!r}")


def _claim(dirs: dict[str, Path], task_id: str, ttl: float,
           now: Callable[[], float], worker_id: str, attempt: int = 0) -> Optional[Task]:
    """Lease one task by id at its first free attempt from *attempt* on, or
    None when it has ended, is held or is gone.

    A task that has ended (``_ended``) is cleared instead, whatever the age
    of its locks; an attempt whose lock has expired is passed over, and the
    first attempt without a lock is leased by creating that lock
    exclusively, so no attempt is granted twice.  While pending/ still
    holds the task, it is read from the newest earlier lock that holds a
    task record, or else from pending/.  A pending record that is no task
    fails the task."""
    while not _try_lock(lock := _lock_path(dirs["leases"], task_id, attempt), now()):
        if _ended(dirs, task_id, attempt):  # a holder stopped before its _clear
            _clear(dirs, task_id, attempt)
            return None
        if not _expired(lock, ttl, now):
            return None
        attempt += 1
    try:
        pending = (dirs["pending"] / f"{task_id}.json").read_bytes()
    except FileNotFoundError:  # cleared since it was listed; back off
        lock.unlink(missing_ok=True)
        return None
    for earlier in range(attempt - 1, -1, -1):
        try:
            return _task_from_json(_lock_path(dirs["leases"], task_id, earlier).read_bytes(),
                                   attempt)
        except (OSError, ValueError, LookupError, TypeError):
            pass  # an empty lock, a torn write, or an earlier version's lease JSON
    try:
        return _task_from_json(pending, attempt)
    except (ValueError, LookupError, TypeError) as exc:
        _publish(dirs, "failed", task_id, attempt, {
            "task_id": task_id, "attempt": attempt, "worker_id": worker_id,
            "reason": f"unreadable pending/ record: {exc!r}"})
        return None


def acquire(queue_dir: Union[str, Path], worker_id: str,
            ttl: float = DEFAULT_TTL_SECONDS,
            now: Callable[[], float] = time.time) -> Optional[Task]:
    """Claim one pending task, or None when nothing is claimable.

    Reads pending/ in directory order and returns the first task that can
    be leased, without listing the rest.  A task whose lease has expired
    is taken over at its next attempt (see ``_claim``)."""
    _check_ttl(ttl)
    dirs = _dirs(queue_dir)
    with closing(_pending_ids(dirs["pending"])) as task_ids:
        for task_id in task_ids:
            task = _claim(dirs, task_id, ttl, now, worker_id)
            if task is not None:
                return task
    return None


def complete(queue_dir: Union[str, Path], task: Task, worker_id: str,
             results: Mapping[UnitKey, str]) -> bool:
    """Publish a task's translations to done/ exactly once: write the done
    record into the task's lock and link the lock onto the done path.

    Returns False (with a warning) when another worker already completed
    the task or the lock is gone; raises ResultIncompleteError when
    results are partial, in which case the lease is kept."""
    keys = [u.key for u in task.units]
    missing = [key for key in keys if key not in results]
    if missing:
        raise ResultIncompleteError(missing)
    translator_id = task.translator_id
    units = [dict(obj, translated_text=results[key], translator_id=translator_id)
             for obj, key in zip(task.unit_dicts, keys)]
    record = {"task_id": task.task_id, "translator_id": translator_id,
              "worker_id": worker_id, "attempt": task.attempt, "units": units}
    return _publish(_dirs(queue_dir), "done", task.task_id, task.attempt, record)


def fail_task(queue_dir: Union[str, Path], task: Task, worker_id: str,
              reason: str) -> bool:
    """Move a poison task to failed/ with diagnostics.  False when the task
    has ended or its lock is gone, for a peer took it over."""
    record = dict(_task_to_dict(task), attempt=task.attempt, worker_id=worker_id,
                  reason=reason)
    return _publish(_dirs(queue_dir), "failed", task.task_id, task.attempt, record)


def done_unit_dicts(queue_dir: Union[str, Path],
                    task_ids: Optional[Iterable[str]] = None) -> Iterator[dict]:
    """The translated unit records of every done/ record in sorted order, or
    of *task_ids*' records in the given order.  CorpusError names a bad or
    missing record, quoting the reason its failed/ record gives, if any."""
    dirs = _dirs(queue_dir)
    paths = (sorted(dirs["done"].glob("*.json")) if task_ids is None
             else (dirs["done"] / f"{task_id}.json" for task_id in task_ids))
    for path in paths:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            for obj in record["units"]:
                check_translated_record(obj)
        except FileNotFoundError:
            message = f"task {path.stem} has no done/ record"
            failed = dirs["failed"] / path.name
            if failed.is_file():
                record = json.loads(failed.read_text(encoding="utf-8"))
                message += f"; its failed/ record says: {record['reason']}"
            raise CorpusError(message) from None
        except (LookupError, TypeError):
            raise CorpusError(f"{path}: not a done record of unit objects") from None
        except ValueError as exc:
            raise CorpusError(f"{path}: {exc}") from None
        yield from record["units"]


def queue_status(queue_dir: Union[str, Path], ttl: float = DEFAULT_TTL_SECONDS,
                 now: Callable[[], float] = time.time) -> dict[str, int]:
    """Task counts per state; a pending task is leased while one of its
    locks is younger than *ttl*."""
    _check_ttl(ttl)
    dirs = _dirs(queue_dir)
    records = (lambda p: sum(1 for _ in p.glob("*.json")))  # none if p is missing
    pending = set(_pending_ids(dirs["pending"]))
    leased = {lock.name.split(".", 1)[0] for lock in dirs["leases"].glob("*.lock")
              if not _expired(lock, ttl, now)}
    return {
        "pending": len(pending),
        "leased": len(leased & pending),
        "done": records(dirs["done"]),
        "failed": records(dirs["failed"]),
    }


def run_attempt(queue_dir: Union[str, Path], task: Task, backend: TranslatorBackend,
                worker_id: str, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                reason: Optional[str] = None, prompt_template: str = "{source}",
                target_language: str = "Arabic",
                now: Callable[[], float] = time.time) -> Union[bool, str]:
    """Run the held attempt *task* to its end, sending only the units with
    no kept translation.  True: it published the done record.  A string:
    a transient ``BackendError``'s reason, after which the translations so
    far are kept in the attempt's lock, stamped with ``now``, and attempt
    ``task.attempt + 1`` is next.  False: it published a failed record, on
    any other exception or, with *reason*, from attempt *max_attempts* on,
    or found its lock gone."""
    if task.attempt < max_attempts:
        try:
            for unit, obj in zip(task.units, task.unit_dicts):
                if "translated_text" not in obj:  # else kept from a failed try
                    obj["translated_text"] = translate_chunk(
                        backend, unit, prompt_template, target_language=target_language)
        except Exception as exc:
            reason = f"translation failed: {exc}"
            if isinstance(exc, BackendError) and not isinstance(exc, PermanentBackendError):
                try:
                    _write_lock(_lock_path(_dirs(queue_dir)["leases"], task.task_id,
                                           task.attempt),
                                _task_json(task, json_text(task.unit_dicts)), now())
                except FileNotFoundError:
                    logger.warning("task %s was taken over by a peer; dropping it",
                                   task.task_id)
                    return False
                return reason
        else:
            return complete(queue_dir, task, worker_id, {
                unit.key: obj["translated_text"]
                for unit, obj in zip(task.units, task.unit_dicts)})
    fail_task(queue_dir, task, worker_id, reason or f"exceeded {max_attempts} attempts")
    return False


def worker_loop(queue_dir: Union[str, Path], backend: TranslatorBackend,
                worker_id: str, ttl: float = DEFAULT_TTL_SECONDS,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                poll_interval: float = 0.2,
                prompt_template: str = "{source}",
                target_language: str = "Arabic",
                now: Callable[[], float] = time.time,
                sleep: Callable[[float], None] = time.sleep) -> int:
    """Process tasks until the queue drains; returns the completed count.

    The worker lists pending/ once per pass and tries to claim each listed
    task in directory order, not sorted order; it lists again only when
    the pass is used up, so a drain's cost per task does not grow with the
    queue's depth, and returns when a fresh listing is empty: only once every
    task enqueued before the call has ended, by any worker.  While peers
    hold the remaining leases, a pass that claimed nothing is followed by
    a sleep that starts at ``poll_interval / 64`` and doubles on each
    further idle pass up to ``poll_interval``; a claim resets it, so a
    peer that finishes within milliseconds costs milliseconds.  A claimed
    attempt runs through ``run_attempt``; after a transient error the
    worker sleeps 0.25 s * 2^attempt and claims the task's next attempt,
    or drops the task when a peer holds that attempt or ended the task."""
    _check_ttl(ttl)
    processed = 0
    dirs = _dirs(queue_dir)
    wait = 0.0  # sleep before the next pass; 0 after a pass that claimed
    while True:
        task_ids = list(_pending_ids(dirs["pending"]))
        if not task_ids:
            return processed
        if wait:
            sleep(wait)
        wait = min(2 * wait, poll_interval) or poll_interval / 64
        for task_id in task_ids:
            task = _claim(dirs, task_id, ttl, now, worker_id)
            if task is not None:
                wait = 0.0
            reason = None
            while task is not None:
                outcome = run_attempt(queue_dir, task, backend, worker_id, max_attempts,
                                      reason, prompt_template, target_language, now)
                if not isinstance(outcome, str):
                    processed += outcome
                    break
                reason = outcome
                if task.attempt + 1 < max_attempts:
                    delay = 0.25 * 2 ** task.attempt
                    logger.warning("task %s attempt %d failed, retrying in %.2fs: %s",
                                   task_id, task.attempt + 1, delay, reason)
                    sleep(delay)
                task = _claim(dirs, task_id, ttl, now, worker_id, task.attempt + 1)
                if task is None:
                    logger.warning("task %s was taken over by a peer; dropping it", task_id)
