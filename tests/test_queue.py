import hashlib
import io
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, precondition, rule,
                                 run_state_machine_as_test)

from test_chunking import DENSE_PIECES, small_policies

from tarjama import workqueue
from tarjama.backends import BackendError, BudgetExceededError, TranslatorBackend
from tarjama.chunking import plan_chunks
from tarjama.cli import main
from tarjama.corpus import TranslationUnit, unit_to_dict, write_units
from tarjama.tokenizers import TokenizerSpec, count_tokens
from tarjama.workqueue import (ResultIncompleteError, _atomic_write_json, _claim,
                               _task_to_dict, _write_lock, acquire, complete, enqueue,
                               fail_task, init_queue, pack_batches, queue_status,
                               run_attempt, worker_loop)


def make_units(n, conv="c", texts=None):
    texts = texts or [f"text {i}" for i in range(n)]
    return [TranslationUnit(conversation_id=conv, message_index=i, part_type="visible",
                            part_index=0, chunk_index=0, chunk_count=1,
                            role="user", source_text=texts[i])
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


@given(st.lists(st.lists(st.sampled_from(DENSE_PIECES) | st.characters(
    blacklist_categories=("Cs",)), max_size=60).map("".join), max_size=40),
    st.integers(1, 6), small_policies())
@settings(max_examples=300, deadline=None)
def test_pack_batches_bounds_each_task(bpe_spec, parts, batch_size, policy):
    budget = batch_size * policy.hard_cap_tokens
    for spec in (TokenizerSpec.builtin(), bpe_spec):
        texts = [c.text for part in parts for c in plan_chunks(part, spec, policy)]
        units = make_units(len(texts), texts=texts)
        batches = list(pack_batches(units, batch_size, budget))
        assert [u for batch in batches for u in batch] == units  # in order
        assert all(batch for batch in batches)
        assert all(len(batch) >= batch_size for batch in batches[:-1])
        for batch in batches:
            chars = sum(len(u.source_text) for u in batch)
            assert len(batch) <= batch_size or chars <= budget
            assert sum(count_tokens(u.source_text, spec) for u in batch) <= budget


def test_pack_batches_without_budget_counts_units():
    units = make_units(10, texts=["x" * 500] * 5 + [""] * 5)
    assert [len(b) for b in pack_batches(units, 4)] == [4, 4, 2]
    assert [len(b) for b in pack_batches(units, 4, char_budget=10_000)] == [10]


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


def test_a_lease_is_an_empty_lock_aged_by_its_mtime(tmp_path):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    acquire(tmp_path, "w1", ttl=60, now=clock)
    lock = tmp_path / "leases" / f"{task.task_id}.lock"
    assert lock.read_bytes() == b""
    assert lock.stat().st_mtime == clock()  # the claimer's clock, not the host's
    clock.advance(60)
    assert queue_status(tmp_path, ttl=60, now=clock)["leased"] == 1
    assert queue_status(tmp_path, ttl=30, now=clock)["leased"] == 0  # the reader's ttl
    clock.advance(0.5)
    assert queue_status(tmp_path, ttl=60, now=clock)["leased"] == 0


def test_queue_status_cli_ages_leases_by_the_configured_ttl(tmp_path, capsys):
    enqueue(tmp_path / "q", make_units(1), "seed", batch_size=1)
    acquire(tmp_path / "q", "w1", now=lambda: time.time() - 100)
    ini = tmp_path / "queue.ini"
    ini.write_text("[queue]\nttl_seconds = 60\n", encoding="utf-8")
    manifest = ["--manifest", str(tmp_path / "runs.jsonl")]
    for config, leased in [([], 1), (["--config", str(ini)], 0)]:
        assert main(["queue-status", "--queue", str(tmp_path / "q"), *config, *manifest]) == 0
        assert json.loads(capsys.readouterr().out)["leased"] == leased


def test_lock_holding_a_lease_json_is_taken_over_ttl_after_its_mtime(tmp_path):
    # Locks of earlier versions hold the lease as JSON; its mtime is still
    # the claim time, and its own ttl no longer counts.
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    lock = tmp_path / "leases" / f"{task.task_id}.lock"
    lock.write_text(json.dumps({"task_id": task.task_id, "worker_id": "w1",
                                "acquired_at": 1000.0, "ttl": 10_000.0}))
    os.utime(lock, (1000.0, 1000.0))
    assert acquire(tmp_path, "w2", ttl=60, now=lambda: 1060.0) is None
    taken = acquire(tmp_path, "w2", ttl=60, now=lambda: 1060.5)
    assert taken.task_id == task.task_id and taken.attempt == 1
    new_lock = tmp_path / "leases" / f"{task.task_id}.1.lock"
    assert new_lock.read_bytes() == b"" and new_lock.stat().st_mtime == 1060.5


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
    # and the lock's name records the bump for future takeovers
    assert sorted(p.name for p in (tmp_path / "leases").iterdir()) == [
        f"{first.task_id}.1.lock", f"{first.task_id}.lock"]
    stored = json.loads((tmp_path / "pending" / f"{first.task_id}.json").read_text())
    assert "attempt" not in stored


def test_torn_lease_expires_ttl_after_its_mtime(tmp_path):
    # A worker killed between creating its lock file and setting its mtime
    # leaves a lock that ages from its creation.
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    lock = tmp_path / "leases" / f"{task.task_id}.lock"
    lock.touch()
    assert acquire(tmp_path, "w2", ttl=60) is None  # still within ttl
    later = float(int(time.time()) + 120)
    taken = acquire(tmp_path, "w2", ttl=1.0, now=lambda: later)
    assert taken is not None
    assert taken.task_id == task.task_id and taken.attempt == 1
    assert (tmp_path / "leases" / f"{task.task_id}.1.lock").stat().st_mtime == later


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


ODD_TEXTS = ['say "hi" \\ there', "مرحبا\u064e بالعالم", "tab\tnew\nline", "\U0001f600 ok"]


def _pending_text(queue, task):
    return (queue / "pending" / f"{task.task_id}.json").read_text(encoding="utf-8")


def test_pending_record_is_the_json_of_the_task_dict(tmp_path):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(4, texts=ODD_TEXTS), 'tr "ü"', batch_size=4)
    text = _pending_text(tmp_path, task)
    assert text == json.dumps(_task_to_dict(task), ensure_ascii=False)
    assert json.loads(text) == _task_to_dict(task)
    acquire(tmp_path, "w1", ttl=60, now=clock)
    clock.advance(61)
    taken = acquire(tmp_path, "w2", ttl=60, now=clock)  # takeover leaves pending/ as is
    assert taken.attempt == 1
    assert _pending_text(tmp_path, task) == text
    assert "attempt" not in json.loads(text)


def test_task_id_hashes_translator_id_and_units_json(tmp_path):
    units = make_units(2)
    (task,) = enqueue(tmp_path, units, "seed", batch_size=2)
    payload = json.dumps("seed") + json.dumps([unit_to_dict(u) for u in units])
    assert task.task_id == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    assert task.task_id == "f521bd21917068c3b5a9412e"  # pinned: ids name queue files
    (other,) = enqueue(tmp_path, units, "seed2", batch_size=2)
    assert other.task_id != task.task_id


def test_done_record_adds_translation_fields_to_each_unit(tmp_path):
    clock = FakeClock()
    units = make_units(4, texts=ODD_TEXTS)
    units += make_units(1, conv="d")
    (task,) = enqueue(tmp_path, units, "seed", batch_size=5)
    acquire(tmp_path, "w1", ttl=60, now=clock)
    clock.advance(61)
    acquire(tmp_path, "w2", ttl=60, now=clock)  # a takeover
    clock.advance(61)
    task = acquire(tmp_path, "w3", ttl=60, now=clock)  # and a second one
    results = {u.key: u.source_text[::-1] for u in task.units}
    assert complete(tmp_path, task, "w3", results)
    record = {"task_id": task.task_id, "translator_id": "seed", "worker_id": "w3",
              "attempt": 2,
              "units": [dict(unit_to_dict(u), translated_text=results[u.key],
                             translator_id="seed") for u in units]}
    done = tmp_path / "done" / f"{task.task_id}.json"
    assert done.read_text(encoding="utf-8") == json.dumps(record, ensure_ascii=False)


def test_failed_writes_leave_no_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        _atomic_write_json(tmp_path / "a.json", '"\ud800"')
    assert list(tmp_path.iterdir()) == []
    lock = tmp_path / "b.lock"  # a held lock is left as it was
    lock.write_bytes(b"kept")
    os.utime(lock, (1000.0, 1000.0))
    with pytest.raises(UnicodeEncodeError):
        _write_lock(lock, '"\ud800"', 2000.0)
    assert lock.read_bytes() == b"kept" and lock.stat().st_mtime == 1000.0
    assert list(tmp_path.iterdir()) == [lock]


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
    processed = worker_loop(tmp_path, backend, "w2", ttl=1, max_attempts=3,
                            poll_interval=0.01, now=clock)
    assert processed == 0
    status = queue_status(tmp_path, now=clock)
    assert status["failed"] == 1 and status["pending"] == 0


class FailingTable(dict):
    """Identity lookup for mock-table whose *failures* calls after the first
    *after* raise *error*."""

    def __init__(self, failures, error=BackendError, after=0):
        super().__init__()
        self.failures = failures
        self.error = error
        self.after = after
        self.calls = 0

    def get(self, key, default=None):
        self.calls += 1
        if self.after < self.calls <= self.after + self.failures:
            raise self.error(f"backend down (call {self.calls})")
        return key


class SurrogateTable(FailingTable):
    """Identity lookup that counts its calls and answers "text 1" with an
    unpaired surrogate."""

    def get(self, key, default=None):
        text = super().get(key, default)
        return "\ud800 bad" if key == "text 1" else text


def test_translation_with_lone_surrogate_fails_its_task(tmp_path):
    # No retry can mend it: the first attempt fails, one call per unit.
    enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    table = SurrogateTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", max_attempts=3) == 0
    assert table.calls == 2
    assert queue_status(tmp_path) == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
    assert list((tmp_path / "done").iterdir()) == []
    (failed,) = (tmp_path / "failed").iterdir()
    record = json.loads(failed.read_text(encoding="utf-8"))
    assert record["attempt"] == 0 and "unpaired surrogates" in record["reason"]


def test_backend_error_retries_the_task_on_its_next_attempt(tmp_path):
    enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    table = FailingTable(failures=1)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, max_attempts=3,
                       poll_interval=0.01) == 1
    assert queue_status(tmp_path) == {"pending": 0, "leased": 0, "done": 1, "failed": 0}
    record = json.loads(next((tmp_path / "done").glob("*.json")).read_text())
    assert record["attempt"] == 1  # counted from 0: the second attempt succeeded
    assert table.calls == 3  # one failed call, then both units


def test_backend_that_always_fails_is_failed_after_max_attempts(tmp_path):
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    table = FailingTable(failures=100)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, max_attempts=3,
                       poll_interval=0.01) == 0
    assert table.calls == 3
    assert queue_status(tmp_path) == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
    record = json.loads(next((tmp_path / "failed").glob("*.json")).read_text())
    assert record["attempt"] == 3
    assert "call 3" in record["reason"]


def test_a_retry_sends_only_the_untranslated_units(tmp_path):
    units = make_units(40)
    enqueue(tmp_path / "clean", units, "seed", batch_size=40)
    clean = TranslatorBackend(id="seed", kind="mock-table", table=FailingTable(0))
    assert worker_loop(tmp_path / "clean", clean, "w1", ttl=60) == 1
    enqueue(tmp_path / "q", units, "seed", batch_size=40)
    table = FailingTable(failures=1, after=4)  # the 5th call fails once
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    sleeps = []
    assert worker_loop(tmp_path / "q", backend, "w1", ttl=60, sleep=sleeps.append) == 1
    assert table.calls == 41 and sleeps == [0.25]

    def done_units(queue):
        (path,) = (queue / "done").iterdir()
        return json.loads(path.read_text(encoding="utf-8"))["units"]

    assert done_units(tmp_path / "q") == done_units(tmp_path / "clean")


def test_a_transient_error_keeps_the_lease_and_writes_the_kept_task_into_it(tmp_path):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(3, texts=ODD_TEXTS), "seed", batch_size=3)
    enqueued = _pending_text(tmp_path, task)
    leases = tmp_path / "leases"
    held = [f"{task.task_id}.lock", f"{task.task_id}.1.lock"]
    seen = []

    def sleep(seconds):  # the worker is between two tries of the task
        locks = sorted(p.name for p in leases.iterdir())
        lock = leases / held[len(seen)]  # the lock of the attempt that failed
        seen.append((seconds, locks, _pending_text(tmp_path, task),
                     json.loads(lock.read_text(encoding="utf-8")), lock.stat().st_mtime))
        clock.advance(seconds)

    table = FailingTable(failures=2, after=1)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, now=clock, sleep=sleep) == 1
    assert table.calls == 5  # unit 0, two failures of unit 1, then units 1 and 2
    kept = [dict(unit_to_dict(u), translated_text=u.source_text) for u in task.units]
    # The attempt that failed holds its lock, and the next one is not made yet.
    for attempt, (seconds, locks, pending, record, mtime) in enumerate(seen, start=1):
        assert seconds == 0.25 * 2 ** (attempt - 1)
        assert locks == sorted(held[:attempt])
        assert pending == enqueued  # pending/ is written once, by enqueue
        assert record == dict(_task_to_dict(task), units=kept[:1] + task.unit_dicts[1:])
        assert mtime == 1000.0 + 0.25 * (attempt - 1)  # stamped by the holder's clock
    assert len(seen) == 2


def test_a_retry_holds_two_fresh_locks_of_one_leased_task(tmp_path):
    (task,) = enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    seen = []

    class Watching(FailingTable):
        def get(self, key, default=None):
            locks = sorted(p.name for p in (tmp_path / "leases").iterdir())
            seen.append((locks, queue_status(tmp_path, ttl=60)["leased"]))
            return super().get(key, default)

    backend = TranslatorBackend(id="seed", kind="mock-table",
                                table=Watching(failures=1, after=1))
    assert worker_loop(tmp_path, backend, "w1", ttl=60, sleep=lambda s: None) == 1
    first, retry = [f"{task.task_id}.lock"], [f"{task.task_id}.1.lock", f"{task.task_id}.lock"]
    assert seen == [(first, 1), (first, 1), (retry, 1)]
    assert list((tmp_path / "leases").iterdir()) == []


def test_a_peer_that_takes_over_during_a_back_off_keeps_the_task(tmp_path):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(4), "seed", batch_size=4)
    table = FailingTable(failures=1, after=1)  # the 2nd call fails
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    peer_table = FailingTable(failures=0)
    peer = TranslatorBackend(id="seed", kind="mock-table", table=peer_table)

    def sleep(seconds):  # the back-off outlasts the lease, and a peer takes over
        clock.advance(61)
        assert worker_loop(tmp_path, peer, "peer", ttl=60, now=clock) == 1

    assert worker_loop(tmp_path, backend, "w1", ttl=60, now=clock, sleep=sleep) == 0
    assert table.calls == 2  # none after the takeover
    assert peer_table.calls == 3  # the kept translation is not sent again
    record = json.loads((tmp_path / "done" / f"{task.task_id}.json").read_text())
    assert record["worker_id"] == "peer" and record["attempt"] == 1
    assert list((tmp_path / "leases").iterdir()) == []
    assert queue_status(tmp_path, now=clock) == {"pending": 0, "leased": 0, "done": 1,
                                                 "failed": 0}


def test_no_lock_is_left_when_a_peer_cleared_the_earlier_ones(tmp_path):
    # A peer fails the task for good while this worker's call outlives its
    # lease, and then the call raises a transient error.
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    peer = TranslatorBackend(id="seed", kind="mock-table",
                             table=FailingTable(failures=1, error=BudgetExceededError))

    class OutlivesItsLease(FailingTable):
        def get(self, key, default=None):
            if self.calls == 0:
                clock.advance(61)
                worker_loop(tmp_path, peer, "peer", ttl=60, now=clock)
            return super().get(key, default)

    table = OutlivesItsLease(failures=1)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, now=clock, sleep=lambda s: None) == 0
    assert table.calls == 1  # no second call for a task the peer has failed
    record = json.loads((tmp_path / "failed" / f"{task.task_id}.json").read_text())
    assert record["worker_id"] == "peer" and record["attempt"] == 1
    assert list((tmp_path / "done").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []
    assert list((tmp_path / "pending").iterdir()) == []


class Crash(BaseException):
    """A worker stopping dead at one step of a completion."""


def _crash_at(monkeypatch, name, parent, skip=0):
    """Make the first ``os.<name>`` onto a path in *parent*/ after *skip*
    such calls raise Crash."""
    real = getattr(os, name)
    skipped = []

    def crashing(*args, **kwargs):
        if Path(args[-1]).parent.name == parent:
            if len(skipped) == skip:
                monkeypatch.undo()
                raise Crash
            skipped.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, crashing)


def test_a_takeover_publishes_a_done_record_left_unlinked_in_its_lock(tmp_path, monkeypatch):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(3), "seed", batch_size=3)
    held = acquire(tmp_path, "w1", ttl=60, now=clock)
    results = {u.key: u.source_text.upper() for u in held.units}
    _crash_at(monkeypatch, "link", "done")  # after the record is in the lock
    with pytest.raises(Crash):
        complete(tmp_path, held, "w1", results)
    assert list((tmp_path / "done").iterdir()) == []
    clock.advance(61)
    table = FailingTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w2", ttl=60, now=clock) == 1
    assert table.calls == 0
    (done,) = (tmp_path / "done").iterdir()
    record = {"task_id": task.task_id, "translator_id": "seed", "worker_id": "w2",
              "attempt": 1,
              "units": [dict(unit_to_dict(u), translated_text=results[u.key],
                             translator_id="seed") for u in task.units]}
    assert done.read_text(encoding="utf-8") == json.dumps(record, ensure_ascii=False)
    assert list((tmp_path / "pending").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []


def test_the_next_claim_tidies_up_after_a_holder_that_stopped_after_the_link(
        tmp_path, monkeypatch):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    held = acquire(tmp_path, "w1", ttl=60, now=clock)
    _crash_at(monkeypatch, "unlink", "pending")  # after the link, before the cleanup
    with pytest.raises(Crash):
        complete(tmp_path, held, "w1", {u.key: "x" for u in held.units})
    table = FailingTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w2", ttl=60, now=clock) == 0
    assert table.calls == 0
    record = json.loads((tmp_path / "done" / f"{task.task_id}.json").read_text())
    assert record["worker_id"] == "w1"
    assert list((tmp_path / "pending").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []


def test_a_retried_task_whose_holder_stopped_after_the_link_is_cleared_at_once(
        tmp_path, monkeypatch):
    # Attempt 0 keeps a translation through a transient error, which stamps
    # its lock; attempt 1 is linked onto done/ and stops before the cleanup.
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(2), "seed", batch_size=2)
    dirs = workqueue._dirs(tmp_path)
    backend = TranslatorBackend(id="seed", kind="mock-table",
                                table=FailingTable(failures=1, after=1))
    held = acquire(tmp_path, "w1", ttl=60, now=clock)
    assert isinstance(run_attempt(tmp_path, held, backend, "w1", now=clock), str)
    held = _claim(dirs, task.task_id, 60, clock, "w1", 1)
    _crash_at(monkeypatch, "unlink", "pending")  # after the link, before the cleanup
    with pytest.raises(Crash):
        run_attempt(tmp_path, held, backend, "w1", now=clock)
    done = (tmp_path / "done" / f"{task.task_id}.json").read_bytes()
    table = FailingTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)

    def sleep(seconds):
        raise AssertionError("the worker waits on a lease of an ended task")

    assert worker_loop(tmp_path, backend, "w2", ttl=60, now=clock, sleep=sleep) == 0
    assert table.calls == 0
    assert (tmp_path / "done" / f"{task.task_id}.json").read_bytes() == done
    assert list((tmp_path / "pending").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []


@pytest.mark.parametrize("held", [0, 1])
def test_a_rerun_finishes_a_failed_task_whose_cleanup_was_cut_short(
        tmp_path, monkeypatch, held):
    # The holder of attempt *held* stops after unlinking pending/ and the
    # locks before its own, which stays linked onto failed/: lock 0, or
    # lock 1 without lock 0.
    clock = FakeClock()
    units = make_units(2)
    (task,) = enqueue(tmp_path, units, "seed", batch_size=2)
    holder = acquire(tmp_path, "w1", ttl=60, now=clock)
    for _ in range(held):
        clock.advance(61)
        holder = acquire(tmp_path, "w1", ttl=60, now=clock)
    assert holder.attempt == held
    _crash_at(monkeypatch, "unlink", "leases", skip=held)
    with pytest.raises(Crash):
        fail_task(tmp_path, holder, "w1", "poison")
    assert [p.name for p in (tmp_path / "leases").iterdir()] == [
        workqueue._lock_path(tmp_path / "leases", task.task_id, held).name]
    assert queue_status(tmp_path, ttl=60, now=clock) == {
        "pending": 0, "leased": 0, "done": 0, "failed": 1}
    enqueue(tmp_path, units, "seed", batch_size=2)
    assert list((tmp_path / "leases").iterdir()) == []
    table = FailingTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w2", ttl=60, now=clock) == 1
    assert table.calls == 2  # one call per unit
    assert queue_status(tmp_path, ttl=60, now=clock) == {
        "pending": 0, "leased": 0, "done": 1, "failed": 0}
    assert list((tmp_path / "leases").iterdir()) == []


def test_no_attempt_is_granted_twice_after_a_holder_stopped_after_failing(
        tmp_path, monkeypatch):
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    held = acquire(tmp_path, "w1", ttl=60, now=clock)
    _crash_at(monkeypatch, "unlink", "pending")  # after failed/, before the cleanup
    with pytest.raises(Crash):
        fail_task(tmp_path, held, "w1", "poison")
    assert json.loads((tmp_path / "failed" / f"{task.task_id}.json").read_text())[
        "reason"] == "poison"
    # The lock linked onto failed/ ends the task: the next claim tidies up.
    assert acquire(tmp_path, "w2", ttl=60, now=clock) is None
    clock.advance(61)
    claims = [acquire(tmp_path, f"w{i}", ttl=60, now=clock) for i in range(3, 6)]
    assert claims == [None, None, None]
    assert json.loads((tmp_path / "failed" / f"{task.task_id}.json").read_text())[
        "reason"] == "poison"
    assert list((tmp_path / "pending").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []
    assert queue_status(tmp_path, now=clock) == {"pending": 0, "leased": 0, "done": 0,
                                                 "failed": 1}


@pytest.mark.parametrize("stopped", ["done", "failed"])
def test_a_holder_that_stopped_after_its_link_ends_the_task_for_a_peer_holding_it(
        tmp_path, monkeypatch, stopped):
    # w1's lease expires and w2 takes the task over; w1 then publishes and
    # stops before the cleanup, and w2 goes on to finish the other way.
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    slow = acquire(tmp_path, "w1", ttl=60, now=clock)
    clock.advance(61)
    peer = acquire(tmp_path, "w2", ttl=60, now=clock)
    finish = {"done": lambda t, w: complete(tmp_path, t, w, {u.key: w for u in t.units}),
              "failed": lambda t, w: fail_task(tmp_path, t, w, "poison")}
    _crash_at(monkeypatch, "unlink", "pending")  # after the link, before the cleanup
    with pytest.raises(Crash):
        finish[stopped](slow, "w1")
    assert not finish["failed" if stopped == "done" else "done"](peer, "w2")
    assert [p.parent.name for p in tmp_path.glob("*/*.json")] == [stopped]
    assert json.loads((tmp_path / stopped / f"{task.task_id}.json").read_text())[
        "worker_id"] == "w1"
    assert list((tmp_path / "leases").iterdir()) == []


def test_a_crash_left_task_of_a_queue_with_done_record_files_is_sent_once_more(tmp_path):
    # Earlier versions wrote a done/ record as a file of its own, not as a
    # link of the lock; a task whose holder stopped before the cleanup is
    # then translated again, its link onto done/ fails, and it is cleared.
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(3), "seed", batch_size=3)
    done = tmp_path / "done" / f"{task.task_id}.json"
    done.write_text(json.dumps({
        "task_id": task.task_id, "translator_id": "seed", "worker_id": "w1", "attempt": 0,
        "units": [dict(unit_to_dict(u), translated_text="old", translator_id="seed")
                  for u in task.units]}), encoding="utf-8")
    written = done.read_bytes()
    lock = tmp_path / "leases" / f"{task.task_id}.lock"
    lock.touch()
    os.utime(lock, (clock(), clock()))
    clock.advance(61)
    table = FailingTable(failures=0)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w2", ttl=60, now=clock) == 0
    assert table.calls == 3  # one call per unit
    assert done.read_bytes() == written
    assert list((tmp_path / "failed").iterdir()) == []
    assert list((tmp_path / "pending").iterdir()) == []
    assert list((tmp_path / "leases").iterdir()) == []


@pytest.mark.parametrize("text", [b"{not json", b"\xff", b"[1, 2]", b'{"task_id": "x"}',
                                  b'{"task_id": "x", "translator_id": "t", "units": [{}]}'])
def test_an_unreadable_pending_record_fails_its_task(tmp_path, text):
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    (tmp_path / "pending" / f"{task.task_id}.json").write_bytes(text)
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        assert len(sleeps) < 20, "the worker polls an unreadable task forever"

    backend = TranslatorBackend(id="seed", kind="mock-identity")
    assert worker_loop(tmp_path, backend, "w1", ttl=60, sleep=sleep) == 0
    record = json.loads((tmp_path / "failed" / f"{task.task_id}.json").read_text())
    assert record["worker_id"] == "w1" and record["attempt"] == 0
    assert record["reason"].startswith("unreadable pending/ record: ")
    assert queue_status(tmp_path) == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
    assert list((tmp_path / "leases").iterdir()) == []


@pytest.mark.parametrize("ttl", [-1, 0, float("nan")])
def test_a_ttl_that_is_not_positive_is_refused(tmp_path, ttl):
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    for call in (lambda: acquire(tmp_path, "w1", ttl=ttl),
                 lambda: acquire(tmp_path, "w2", ttl=ttl),
                 lambda: worker_loop(tmp_path, backend, "w3", ttl=ttl),
                 lambda: queue_status(tmp_path, ttl=ttl)):
        with pytest.raises(ValueError, match="ttl must be positive"):
            call()
    assert list((tmp_path / "leases").iterdir()) == []  # no attempt was granted


def test_a_completed_task_costs_two_file_creates(tmp_path, monkeypatch):
    created = []
    real_io_open, real_os_open = io.open, os.open

    def io_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wxa"):
            created.append(Path(file).parent.name)
        return real_io_open(file, mode, *args, **kwargs)

    def os_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            created.append(Path(path).parent.name)
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(io, "open", io_open)
    monkeypatch.setattr(os, "open", os_open)
    enqueue(tmp_path, make_units(3), "seed", batch_size=3)
    backend = TranslatorBackend(id="seed", kind="mock-identity")
    assert worker_loop(tmp_path, backend, "w1", ttl=60) == 1
    assert sorted(created) == ["leases", "pending"]  # the pending record and the lock
    assert queue_status(tmp_path)["done"] == 1


def test_a_takeover_is_granted_once_to_three_claimants(tmp_path, monkeypatch):
    # A peer takes the expired lease over during this claimant's expiry
    # check, and a third claimant tries during its next step.
    clock = FakeClock()
    (task,) = enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    acquire(tmp_path, "w0", ttl=60, now=clock)
    clock.advance(61)
    real_expired = workqueue._expired
    others = ["peer", "third"]
    granted = {}
    inside = []

    def expired(path, ttl, now):
        result = real_expired(path, ttl, now)
        if others and not inside:  # the claimants' own checks run unhooked
            inside.append(others.pop(0))
            granted[inside[0]] = acquire(tmp_path, inside[0], ttl=60, now=clock)
            inside.clear()
        return result

    monkeypatch.setattr(workqueue, "_expired", expired)
    granted["w1"] = acquire(tmp_path, "w1", ttl=60, now=clock)
    monkeypatch.setattr(workqueue, "_expired", real_expired)
    assert granted["peer"] is not None and granted["peer"].attempt == 1
    assert granted["third"] is None and granted["w1"] is None
    peer_lock = tmp_path / "leases" / f"{task.task_id}.1.lock"
    assert peer_lock.stat().st_mtime == clock()
    assert sorted(p.name for p in (tmp_path / "leases").iterdir()) == [
        peer_lock.name, f"{task.task_id}.lock"]
    assert queue_status(tmp_path, ttl=60, now=clock)["leased"] == 1


def test_budget_exceeded_fails_the_task_without_retry(tmp_path):
    enqueue(tmp_path, make_units(1), "seed", batch_size=1)
    table = FailingTable(failures=100, error=BudgetExceededError)
    backend = TranslatorBackend(id="seed", kind="mock-table", table=table)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, max_attempts=3,
                       poll_interval=0.01) == 0
    assert table.calls == 1
    assert queue_status(tmp_path)["failed"] == 1


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


def test_short_units_pack_into_few_task_records(tmp_path, monkeypatch, rng):
    texts = ["".join(rng.choice("abc ") for _ in range(rng.randint(40, 60)))
             for _ in range(900)]
    units_path = tmp_path / "units.jsonl"
    write_units(make_units(900, texts=texts), units_path)
    queue = tmp_path / "q"
    created = []
    real_rename, real_link = os.rename, os.link

    def rename(src, dst):  # a pending/ record is a temp file renamed in place
        created.append(Path(dst).parent.name)
        return real_rename(src, dst)

    def link(src, dst):  # a done/ record is the task's lock linked in place
        created.append(Path(dst).parent.name)
        return real_link(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    monkeypatch.setattr(os, "link", link)
    manifest = str(tmp_path / "runs.jsonl")
    assert main(["enqueue", "--units", str(units_path), "--queue", str(queue),
                 "--translator-id", "seed", "--manifest", manifest]) == 0
    assert main(["work", "--queue", str(queue), "--worker-id", "w1",
                 "--manifest", manifest]) == 0
    status = queue_status(queue)
    assert status["pending"] == 0 and status["failed"] == 0
    # Each closed task holds over budget - 60 characters at the default
    # batch_size 8 and hard cap 506; 8 units a task would be 113 tasks.
    tasks = status["done"]
    assert tasks <= sum(map(len, texts)) // (8 * 506 - 60) + 1
    assert sorted(created) == ["done"] * tasks + ["pending"] * tasks
    records = [json.loads(p.read_text()) for p in (queue / "done").glob("*.json")]
    assert sorted(u["source_text"] for r in records for u in r["units"]) == sorted(texts)


def test_idle_worker_backs_off_while_a_peer_holds_the_last_lease(tmp_path):
    enqueue(tmp_path, make_units(2), "seed", batch_size=1)
    first = acquire(tmp_path, "peer", ttl=600)
    second = acquire(tmp_path, "peer", ttl=600)
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 3:  # the peer gives up its first task
            (tmp_path / "leases" / f"{first.task_id}.lock").unlink()
        if len(sleeps) == 12:  # and later finishes the second
            complete(tmp_path, second, "peer",
                     {u.key: u.source_text for u in second.units})

    backend = TranslatorBackend(id="seed", kind="mock-identity")
    poll = 0.2
    assert worker_loop(tmp_path, backend, "w1", ttl=600, poll_interval=poll,
                       sleep=sleep) == 1
    # Doubling from poll/64, reset by the claim, capped at poll_interval.
    step = poll / 64
    expected = [step, 2 * step, 4 * step,
                step, 2 * step, 4 * step, 8 * step, 16 * step, 32 * step,
                poll, poll, poll]
    assert sleeps == pytest.approx(expected)
    assert queue_status(tmp_path)["done"] == 2


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


# -- a model of the queue -----------------------------------------------------

# The filesystem call before which a worker may stop: that of a clear, in a
# claim; in an attempt, also the link of its record.  So it stops with its
# record in its lock but not linked, linked but its task not cleared, or its
# pending/ record cleared but a lock not, the first or the second.
CLEARS = [("unlink", "pending"), ("unlink", "leases"), ("unlink", "leases", 1)]
# Those before which an enqueue of a task again may stop: its removals of
# the locks and the failed/ record a run left, and its pending/ rename.
ENQUEUES = [("unlink", "leases"), ("unlink", "failed"), ("rename", "pending")]
ATTEMPTS = [("transient", None), ("ok", None), ("permanent", None),
            ("ok", ("link", "done")), ("permanent", ("link", "failed")),
            *((outcome, crash) for outcome in ("ok", "permanent") for crash in CLEARS)]
OUTCOMES = {"ok": None, "transient": BackendError, "permanent": BudgetExceededError}


class ModelTable(dict):
    """A worker's backend: it translates a source text to ``<text>``, or
    raises ``error`` once ``sends_left`` texts are sent; it refuses a text
    whose translation the worker's claim read from a lock."""

    def __init__(self, kept):
        super().__init__()
        self.kept = kept
        self.error, self.sends_left = None, 0

    def get(self, key, default=None):
        assert key not in self.kept, f"{key!r} was sent again after its translation was kept"
        if self.error is not None:
            if not self.sends_left:
                raise self.error(f"{key!r} not translated")
            self.sends_left -= 1
        return f"<{key}>"


class QueueModel(RuleBasedStateMachine):
    """Two or three workers share one queue and one FakeClock.  A step
    enqueues a task, enqueues one again as a rerun does, moves the clock
    past the ttl, claims, or runs a held attempt to its end with a backend
    outcome; a claim or an attempt may stop its worker dead before one
    filesystem call, and a stopped worker takes no further step, while an
    enqueue may stop before one of its own.  At the end a claim at the
    current clock clears every pending task that has a linked lock; then
    the clock passes the ttl and a healthy worker drains the queue, and a
    rerun enqueues every task again and drains it once more."""

    TTL, MAX_ATTEMPTS, TASKS = 60, 4, 2

    def __init__(self, queue):
        super().__init__()
        self.queue, self.clock = queue, FakeClock()
        self.units = {}  # task id -> its pending/ record's units
        self.texts = {}  # task id -> its units' source texts
        self.cut = set()  # ids of tasks whose last enqueue stopped before pending/
        self.grants = set()  # (task id, attempt) of every claim granted
        self.kept = {}  # worker id -> the source texts its claim read as translated
        self.workers = []
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(workqueue, "_claim", self._claim)

    def _claim(self, dirs, task_id, ttl, now, worker_id, attempt=0):
        task = _claim(dirs, task_id, ttl, now, worker_id, attempt)
        if task is None:
            return None
        assert (task_id, task.attempt) not in self.grants, "an attempt was granted twice"
        self.grants.add((task_id, task.attempt))
        kept = {}  # the translations in the newest earlier lock that holds a record
        for earlier in range(task.attempt - 1, -1, -1):
            try:
                record = json.loads(workqueue._lock_path(dirs["leases"], task_id, earlier)
                                    .read_bytes())
                kept = {u["source_text"]: u["translated_text"] for u in record["units"]
                        if "translated_text" in u}
                break
            except (OSError, ValueError, LookupError):
                pass
        assert all(obj.get("translated_text") == kept[obj["source_text"]]
                   for obj in task.unit_dicts if obj["source_text"] in kept)
        self.kept[worker_id].clear()
        self.kept[worker_id].update(kept)
        return task

    def _worker(self, wid):
        self.kept[wid] = set()
        table = ModelTable(self.kept[wid])
        return {"id": wid, "table": table, "crashed": False, "task": None,
                "next": None, "reason": None,
                "backend": TranslatorBackend(id="seed", kind="mock-table", table=table)}

    def _live(self, holding):
        """The workers that have not stopped and hold a task just when *holding*."""
        return [w for w in self.workers
                if not w["crashed"] and (w["task"] is not None) == holding]

    def _step(self, worker, crash, call):
        """Run *call* for *worker*, which stops dead before the *crash* point,
        unless it is the last worker that has not stopped."""
        patch = pytest.MonkeyPatch()
        if crash is not None and sum(not w["crashed"] for w in self.workers) > 1:
            _crash_at(patch, *crash)
        try:
            call()
        except Crash:
            worker["crashed"] = True
        finally:
            patch.undo()

    @initialize(workers=st.integers(2, 3), size=st.integers(1, 3))
    def start(self, workers, size):
        self.workers = [self._worker(f"w{i}") for i in range(workers)]
        self.add_task(size)

    @precondition(lambda self: len(self.units) < self.TASKS)
    @rule(size=st.integers(1, 3))
    def add_task(self, size):
        texts = [f"t{len(self.units)}u{i}" for i in range(size)]
        task_id = self._enqueue(texts)
        record = json.loads((self.queue / "pending" / f"{task_id}.json").read_text())
        self.units[task_id], self.texts[task_id] = record["units"], texts

    def _enqueue(self, texts):
        (task,) = enqueue(self.queue, make_units(len(texts), conv=texts[0], texts=texts),
                          "seed", batch_size=len(texts))
        return task.task_id

    def _enqueueable(self):
        """The tasks that have neither a pending/ nor a done/ record, which
        an enqueue makes pending again."""
        return [task_id for task_id in self.units
                if not any((self.queue / state / f"{task_id}.json").exists()
                           for state in ("pending", "done"))]

    def _enqueue_again(self, task_id, crash=None):
        """Enqueue a task's units again, stopping dead before the *crash*
        point; a task given a fresh pending/ record starts its attempts
        afresh."""
        fresh = task_id in self._enqueueable()
        patch = pytest.MonkeyPatch()
        if crash is not None:
            _crash_at(patch, *crash)
        try:
            self._enqueue(self.texts[task_id])
        except Crash:
            self.cut.add(task_id)
            return
        finally:
            patch.undo()
        if fresh:
            assert not any((self.queue / "leases").glob(f"{task_id}.*")), \
                f"task {task_id} is pending again beside a lock of its last run"
            self.cut.discard(task_id)
            self.grants = {grant for grant in self.grants if grant[0] != task_id}

    @precondition(lambda self: self._enqueueable())
    @rule(pick=st.integers(0, 2), crash=st.none() | st.sampled_from(ENQUEUES))
    def enqueue_again(self, pick, crash):
        tasks = self._enqueueable()
        self._enqueue_again(tasks[pick % len(tasks)], crash)

    @precondition(lambda self: self._live(holding=False)
                  and any((self.queue / "pending").iterdir()))
    @rule(pick=st.integers(0, 2), crash=st.none() | st.sampled_from(CLEARS))
    def claim(self, pick, crash):
        workers = self._live(holding=False)
        worker = workers[pick % len(workers)]
        task_id, attempt = worker["next"] or (None, 0)
        worker["next"] = None

        def call():
            worker["task"] = (acquire(self.queue, worker["id"], self.TTL, now=self.clock)
                              if task_id is None else
                              workqueue._claim(workqueue._dirs(self.queue), task_id,
                                               self.TTL, self.clock, worker["id"], attempt))

        self._step(worker, crash, call)

    @precondition(lambda self: self._live(holding=True))
    @rule(pick=st.integers(0, 2), attempt=st.sampled_from(ATTEMPTS), sends=st.integers(0, 2))
    def run(self, pick, attempt, sends):
        outcome, crash = attempt
        workers = self._live(holding=True)
        worker = workers[pick % len(workers)]
        task, reason = worker["task"], worker["reason"]
        worker["task"] = worker["reason"] = None
        worker["table"].error, worker["table"].sends_left = OUTCOMES[outcome], sends

        def call():
            result = run_attempt(self.queue, task, worker["backend"], worker["id"],
                                 self.MAX_ATTEMPTS, reason, now=self.clock)
            if isinstance(result, str):
                worker["next"], worker["reason"] = (task.task_id, task.attempt + 1), result

        self._step(worker, crash, call)

    @precondition(lambda self: any((self.queue / "leases").iterdir())
                  or len(self.units) == self.TASKS)  # so that some rule always applies
    @rule()
    def expire_leases(self):
        self.clock.advance(self.TTL + 1)

    def teardown(self):
        try:
            if sys.exc_info()[0] is None:  # every step passed
                self._drain_and_check()
        finally:
            self.patch.undo()
            shutil.rmtree(self.queue)

    def _drain_and_check(self):
        # A task with a lock linked onto a record has ended: a claim at the
        # current clock clears it, whatever the age of its other locks.
        dirs = workqueue._dirs(self.queue)
        self._worker("checker")
        for task_id in self.units:
            pending = dirs["pending"] / f"{task_id}.json"
            if pending.exists() and any(lock.stat().st_nlink > 1
                                        for lock in dirs["leases"].glob(f"{task_id}.*")):
                assert workqueue._claim(dirs, task_id, self.TTL, self.clock, "checker") is None
                assert not pending.exists(), f"ended task {task_id} is still pending"
        self.clock.advance(self.TTL + 1)
        self._drain()
        for task_id in self.units:
            done, failed = ((self.queue / state / f"{task_id}.json").exists()
                            for state in ("done", "failed"))
            assert not (done and failed), f"task {task_id} has two outcomes"
            assert done or failed or task_id in self.cut, f"task {task_id} has no outcome"
        for task_id in self.units:  # a rerun translates every task not done
            self._enqueue_again(task_id)
        self._drain()
        assert queue_status(self.queue, self.TTL, now=self.clock) == {
            "pending": 0, "leased": 0, "done": len(self.units), "failed": 0}
        for task_id, units in self.units.items():
            done = self.queue / "done" / f"{task_id}.json"
            assert json.loads(done.read_text(encoding="utf-8"))["units"] == [
                dict(u, translated_text=f"<{u['source_text']}>", translator_id="seed")
                for u in units]

    def _drain(self):
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            assert len(sleeps) < 20, "the drain does not end"
            self.clock.advance(seconds)

        healer = self._worker("healer")
        worker_loop(self.queue, healer["backend"], "healer", self.TTL, self.MAX_ATTEMPTS,
                    now=self.clock, sleep=sleep)
        status = queue_status(self.queue, self.TTL, now=self.clock)
        assert status["pending"] == status["leased"] == 0


def test_a_model_of_the_queue_gives_each_task_one_outcome(tmp_path):
    run_state_machine_as_test(
        lambda: QueueModel(Path(tempfile.mkdtemp(dir=tmp_path))),
        settings=settings(derandomize=True, max_examples=250, stateful_step_count=20,
                          deadline=None))


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


def test_concurrent_takeovers_grant_each_task_once(tmp_path):
    queue_dir = tmp_path / "q"
    out_dir = tmp_path / "claims"
    out_dir.mkdir()
    tasks = enqueue(queue_dir, make_units(60), "seed", batch_size=1)
    for _ in tasks:  # every lease has expired before the race starts
        assert acquire(queue_dir, "w-old", ttl=300, now=lambda: time.time() - 1000)
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
    assert sorted(all_claims) == sorted(t.task_id for t in tasks)
    # Each grant made attempt 1's lock, and no claimant went on to attempt 2.
    assert sorted(p.name for p in (queue_dir / "leases").iterdir()) == sorted(
        name for t in tasks for name in (f"{t.task_id}.lock", f"{t.task_id}.1.lock"))


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
