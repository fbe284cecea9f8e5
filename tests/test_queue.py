import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from tarjama.backends import TranslatorBackend
from tarjama.corpus import TranslationUnit
from tarjama.workqueue import (ResultIncompleteError, acquire, complete,
                               enqueue, fail_task, init_queue, queue_status,
                               worker_loop)


def make_units(n, conv="c"):
    return [TranslationUnit(conversation_id=conv, message_index=i, part_type="visible",
                            part_index=0, chunk_index=0, chunk_count=1,
                            role="user", source_text=f"text {i}")
            for i in range(n)]


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_enqueue_batches(tmp_path):
    tasks = enqueue(tmp_path, make_units(10), "seed", batch_size=4)
    assert [len(t.units) for t in tasks] == [4, 4, 2]
    assert len(set(t.task_id for t in tasks)) == 3
    assert queue_status(tmp_path)["pending"] == 3


def test_enqueue_idempotent(tmp_path):
    units = make_units(10)
    first = enqueue(tmp_path, units, "seed", batch_size=4)
    again = enqueue(tmp_path, units, "seed", batch_size=4)
    assert [t.task_id for t in first] == [t.task_id for t in again]
    assert queue_status(tmp_path)["pending"] == 3


def test_enqueue_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        enqueue(tmp_path, [], "seed")


def test_acquire_empty_queue_returns_none(tmp_path):
    init_queue(tmp_path)
    assert acquire(tmp_path, "w1") is None


def test_acquire_grants_once_then_blocks(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    task = acquire(tmp_path, "w1", ttl=60, now=clock)
    assert task is not None
    assert acquire(tmp_path, "w2", ttl=60, now=clock) is None
    assert queue_status(tmp_path, now=clock)["leased"] == 1


def test_expired_lease_reacquired_with_attempt_bump(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    first = acquire(tmp_path, "w1", ttl=60, now=clock)
    assert first.attempt == 0
    clock.advance(61)
    second = acquire(tmp_path, "w2", ttl=60, now=clock)
    assert second is not None
    assert second.task_id == first.task_id
    assert second.attempt == 1
    # and the pending file records the bump for future takeovers
    stored = json.loads((tmp_path / "pending" / f"{first.task_id}.json").read_text())
    assert stored["attempt"] == 1


def test_complete_writes_done_and_clears(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    task = acquire(tmp_path, "w1", ttl=60, now=clock)
    results = {u.key: u.source_text.upper() for u in task.units}
    assert complete(tmp_path, task, "w1", results)
    status = queue_status(tmp_path, now=clock)
    assert status == {"pending": 0, "leased": 0, "done": 1, "failed": 0}
    record = json.loads(next((tmp_path / "done").glob("*.json")).read_text())
    assert record["units"][0]["translated_text"] == "TEXT 0"


def test_complete_partial_results_rejected(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(3), "seed", batch_size=3)
    task = acquire(tmp_path, "w1", ttl=60, now=clock)
    partial = {task.units[0].key: "x"}
    with pytest.raises(ResultIncompleteError) as err:
        complete(tmp_path, task, "w1", partial)
    assert task.units[1].key in err.value.missing
    # still leased, still pending
    status = queue_status(tmp_path, now=clock)
    assert status["pending"] == 1 and status["leased"] == 1


def test_duplicate_complete_after_expiry_race_discarded(tmp_path, caplog):
    clock = FakeClock()
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    stale_task = acquire(tmp_path, "w1", ttl=10, now=clock)
    clock.advance(30)  # w1's lease expires while it is still "working"
    fresh_task = acquire(tmp_path, "w2", ttl=10, now=clock)
    results = {u.key: "from-w2" for u in fresh_task.units}
    assert complete(tmp_path, fresh_task, "w2", results)
    stale_results = {u.key: "from-w1" for u in stale_task.units}
    with caplog.at_level("WARNING"):
        assert not complete(tmp_path, stale_task, "w1", stale_results)
    assert any("discarding duplicate" in r.message for r in caplog.records)
    done_files = list((tmp_path / "done").glob("*.json"))
    assert len(done_files) == 1
    record = json.loads(done_files[0].read_text())
    assert record["worker_id"] == "w2"
    assert record["units"][0]["translated_text"] == "from-w2"


def test_fail_task_moves_to_failed(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    task = acquire(tmp_path, "w1", ttl=60, now=clock)
    fail_task(tmp_path, task, "w1", "poison")
    status = queue_status(tmp_path, now=clock)
    assert status == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
    record = json.loads(next((tmp_path / "failed").glob("*.json")).read_text())
    assert record["reason"] == "poison"


def test_worker_loop_drains_queue(tmp_path):
    enqueue(tmp_path, make_units(12), "seed", batch_size=5)
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    processed = worker_loop(tmp_path, backend, "w1", ttl=60, poll_interval=0.01)
    assert processed == 3
    status = queue_status(tmp_path)
    assert status["pending"] == 0 and status["done"] == 3


def test_worker_loop_sends_poison_to_failed(tmp_path):
    clock = FakeClock()
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    # Burn through the attempt budget with expiring leases.
    for _ in range(3):
        assert acquire(tmp_path, "w-crashy", ttl=1, now=clock) is not None
        clock.advance(5)
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    processed = worker_loop(tmp_path, backend, "w2", ttl=60, max_attempts=3,
                            poll_interval=0.01, now=clock)
    assert processed == 0
    status = queue_status(tmp_path, now=clock)
    assert status["failed"] == 1 and status["pending"] == 0


def test_worker_loop_lists_pending_once_per_pass(tmp_path, monkeypatch):
    enqueue(tmp_path, make_units(200), "seed", batch_size=1)
    pending = tmp_path / "pending"
    listings = []
    real_scandir = os.scandir

    def counting_scandir(path="."):
        if Path(path) == pending:
            listings.append(path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", counting_scandir)
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    assert worker_loop(tmp_path, backend, "w1", ttl=60, poll_interval=0.01) == 200
    # One pass over the first listing, then one empty listing to finish.
    assert 1 <= len(listings) <= 3


class CountingEntries:
    """Wraps a scandir iterator and records every entry read from it."""

    def __init__(self, entries, read):
        self._entries = entries
        self._read = read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._entries.close()

    def __iter__(self):
        return self

    def __next__(self):
        entry = next(self._entries)
        self._read.append(entry.name)
        return entry


def test_acquire_stops_at_first_claimable_task(tmp_path, monkeypatch):
    enqueue(tmp_path, make_units(300), "seed", batch_size=1)
    pending = tmp_path / "pending"
    read = []
    real_scandir = os.scandir

    def counting_scandir(path="."):
        entries = real_scandir(path)
        return CountingEntries(entries, read) if Path(path) == pending else entries

    monkeypatch.setattr(os, "scandir", counting_scandir)
    assert acquire(tmp_path, "w1", ttl=60) is not None
    # The first entry is claimable, so acquire need not read the other 299.
    assert 1 <= len(read) <= 3


class EnqueueOnFirstLookup(dict):
    """Identity table that enqueues one more task on its first lookup."""

    def __init__(self, queue_dir):
        super().__init__()
        self.queue_dir = queue_dir
        self.fired = False

    def get(self, key, default=None):
        if not self.fired:
            self.fired = True
            enqueue(self.queue_dir, make_units(1, conv="late"), "seed", batch_size=1)
        return key


def test_worker_loop_completes_task_enqueued_mid_drain(tmp_path):
    enqueue(tmp_path, make_units(6), "seed", batch_size=2)
    backend = TranslatorBackend(id="seed", kind="mock-table",
                                table=EnqueueOnFirstLookup(tmp_path))
    processed = worker_loop(tmp_path, backend, "w1", ttl=60, poll_interval=0.01)
    assert processed == 4
    status = queue_status(tmp_path)
    assert status == {"pending": 0, "leased": 0, "done": 4, "failed": 0}
    late = [json.loads(p.read_text()) for p in (tmp_path / "done").glob("*.json")]
    assert any(r["units"][0]["conversation_id"] == "late" for r in late)


# -- multi-process races -----------------------------------------------------


def _racer(queue_dir, worker_id, out_dir, barrier):
    barrier.wait()
    claimed = []
    while True:
        task = acquire(queue_dir, worker_id, ttl=300)
        if task is None:
            break
        claimed.append(task.task_id)
    Path(out_dir, f"{worker_id}.json").write_text(json.dumps(claimed))


def test_concurrent_acquire_never_double_grants(tmp_path):
    queue_dir = tmp_path / "q"
    out_dir = tmp_path / "claims"
    out_dir.mkdir()
    enqueue(queue_dir, make_units(60), "seed", batch_size=1)
    barrier = multiprocessing.Barrier(4)
    procs = [multiprocessing.Process(target=_racer,
                                     args=(str(queue_dir), f"w{i}", str(out_dir), barrier))
             for i in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    all_claims = []
    for path in out_dir.glob("*.json"):
        all_claims.extend(json.loads(path.read_text()))
    assert len(all_claims) == 60
    assert len(set(all_claims)) == 60


def _worker_main(queue_dir, worker_id):
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    worker_loop(queue_dir, backend, worker_id, ttl=1.0, poll_interval=0.02)


def test_killed_worker_task_is_recovered(tmp_path):
    import tests_queue_helpers as helpers
    queue_dir = tmp_path / "q"
    enqueue(queue_dir, make_units(6), "seed", batch_size=3)
    victim = multiprocessing.Process(
        target=helpers.slow_worker, args=(str(queue_dir), "victim", 1.0, 0.4))
    victim.start()
    time.sleep(0.5)  # victim is mid-task now
    victim.kill()
    victim.join()
    rescuer = multiprocessing.Process(
        target=helpers.slow_worker, args=(str(queue_dir), "rescuer", 1.0, 0.0))
    rescuer.start()
    rescuer.join(timeout=60)
    assert rescuer.exitcode == 0
    status = queue_status(queue_dir)
    assert status["done"] == 2 and status["pending"] == 0
