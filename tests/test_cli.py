import json
import math
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from operator import attrgetter
from pathlib import Path

import pytest

from tarjama.backends import HttpRewardScorer
from tarjama.cli import main
from tarjama.config import BackendConfig, load_config
from tarjama.corpus import (Candidate, IncompleteUnitSetError, conversation_to_dict,
                            load_corpus, read_units)
from tarjama.ranking import rank_candidates
from tarjama.workqueue import enqueue

from conftest import (ARABIC_WORDS, LATIN_WORDS, README_INI, corpus_jsonl,
                      make_conversation, random_corpus)


@pytest.fixture
def fixture_corpus(tmp_path, rng):
    conversations = random_corpus(rng, 10, think_prob=0.5)
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    return path, conversations


def run(args, tmp_path):
    manifest = tmp_path / "runs.jsonl"
    return main(args + ["--manifest", str(manifest)]), manifest


def test_pipeline_identity_backend_roundtrips_corpus(tmp_path, fixture_corpus):
    corpus_path, conversations = fixture_corpus
    out = tmp_path / "out"
    rc, manifest = run(["pipeline", "--input", str(corpus_path),
                        "--out", str(out), "--backend", "mock-identity"], tmp_path)
    assert rc == 0
    assert (out / "translated_corpus.jsonl").read_bytes() == corpus_path.read_bytes()
    # Short units pack more than batch_size (8) to a task and still rebuild.
    records = [json.loads(p.read_text()) for p in (out / "queue" / "done").glob("*.json")]
    assert max(len(r["units"]) for r in records) > 8
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "| Split | Num Examples | Mean LR |" in report
    # manifest recorded the run
    entries = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert entries[-1]["subcommand"] == "pipeline"
    assert entries[-1]["exit_code"] == 0
    assert str(corpus_path) in entries[-1]["inputs"]


def test_pipeline_mock_table_translates(tmp_path):
    conv = make_conversation("c1", contents=[("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"hi": "مرحبا"}), encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--backend", "mock-table", "--table", str(table_path)], tmp_path)
    assert rc == 0
    translated = load_corpus(out / "translated_corpus.jsonl")
    assert translated[0].messages[0].content == "مرحبا"


def test_pipeline_system_passthrough_flag(tmp_path):
    conv = make_conversation("c1", contents=[("system", "keep"), ("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"keep": "X", "hi": "Y"}), encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--backend", "mock-table", "--table", str(table_path),
                 "--no-translate-system"], tmp_path)
    assert rc == 0
    translated = load_corpus(out / "translated_corpus.jsonl")
    assert translated[0].messages[0].content == "keep"   # passed through
    assert translated[0].messages[1].content == "Y"


def test_pipeline_passes_through_system_only_conversations_anywhere(tmp_path):
    contents = {
        "sys-first": [("system", "first note")],
        "chat-1": [("system", "be brief"), ("user", "hi"), ("assistant", "ok")],
        "sys-middle": [("system", "middle note"), ("system", "second note")],
        "chat-2": [("user", "hi"), ("assistant", "<think>ok</think>ok")],
        "sys-last": [("system", "last note")],
    }
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([make_conversation(cid, contents=turns)
                                         for cid, turns in contents.items()]),
                           encoding="utf-8")
    table = {"hi": "مرحبا", "ok": "حسنا"}
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table), encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--backend", "mock-table", "--table", str(table_path),
                 "--no-translate-system"], tmp_path)
    assert rc == 0
    units = [json.loads(line) for line in (out / "units.jsonl").read_text().splitlines()]
    translated = [json.loads(line) for line in
                  (out / "translated_units.jsonl").read_text().splitlines()]
    assert [{k: u[k] for k in units[0]} for u in translated] == units
    assert [u["translator_id"] for u in translated] == [
        "passthrough" if u["role"] == "system" else "mock-table" for u in units]
    translated_turns = {"chat-1": [("system", "be brief"), ("user", "مرحبا"),
                                   ("assistant", "حسنا")],
                        "chat-2": [("user", "مرحبا"), ("assistant", "<think>حسنا</think>حسنا")]}
    assert load_corpus(out / "translated_corpus.jsonl") == [
        make_conversation(cid, contents=translated_turns.get(cid, turns))
        for cid, turns in contents.items()]


def test_pipeline_splits_each_message_into_parts_three_times(
        tmp_path, staged_corpus, monkeypatch):
    corpus_path, _, table_path, ini = staged_corpus
    import tarjama.corpus as corpus
    real = corpus.split_parts
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("tarjama") and getattr(module, "split_parts", None) is real:
            monkeypatch.setattr(module, "split_parts",
                                lambda content: calls.append(1) or real(content))
    assert run(_pipeline_args(corpus_path, table_path, ini, tmp_path / "out"),
               tmp_path)[0] == 0
    # decompose, then the structure check of the source and of its candidate
    messages = sum(len(conv.messages) for conv in load_corpus(corpus_path))
    assert len(calls) == 3 * messages


def test_decompose_enqueue_work_reconstruct_chain(tmp_path, fixture_corpus):
    corpus_path, conversations = fixture_corpus
    units = tmp_path / "units.jsonl"
    queue = tmp_path / "queue"
    rebuilt = tmp_path / "rebuilt.jsonl"

    rc, _ = run(["decompose", "--input", str(corpus_path),
                 "--units-out", str(units),
                 "--target-tokens", "8", "--window-tokens", "3",
                 "--hard-cap-tokens", "9"], tmp_path)
    assert rc == 0
    assert units.is_file()

    rc, _ = run(["enqueue", "--units", str(units), "--queue", str(queue),
                 "--translator-id", "mock", "--batch-size", "7"], tmp_path)
    assert rc == 0

    rc, _ = run(["work", "--queue", str(queue), "--worker-id", "w0",
                 "--backend", "mock-identity"], tmp_path)
    assert rc == 0

    rc, _ = run(["queue-status", "--queue", str(queue)], tmp_path)
    assert rc == 0

    rc, _ = run(["reconstruct", "--from-queue", str(queue),
                 "--corpus", str(corpus_path), "--out", str(rebuilt)], tmp_path)
    assert rc == 0
    assert rebuilt.read_bytes() == corpus_path.read_bytes()



CHUNK_FLAGS = ["--target-tokens", "8", "--window-tokens", "3", "--hard-cap-tokens", "9"]
LATIN_TO_ARABIC = dict(zip(LATIN_WORDS, ARABIC_WORDS))


@pytest.fixture
def staged_corpus(tmp_path, rng):
    """Conversations with system prompts (one of them system-only), long
    parts that chunk into several units, and a mock-table translation of
    every non-system chunk."""
    conversations = [make_conversation("sys-only", contents=[
        ("system", "System note: only a system prompt here.")])]
    for i, conv in enumerate(random_corpus(rng, 12, think_prob=0.6, max_words=40)):
        contents = [(m.role, m.content) for m in conv.messages if m.role != "system"]
        if i % 3:
            contents.insert(0, ("system", f"System note {i}: answer in full sentences."))
        conversations.append(make_conversation(conv.id, split=conv.split,
                                               contents=contents))
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    units_path = tmp_path / "units.jsonl"
    assert run(["decompose", "--input", str(corpus_path),
                "--units-out", str(units_path), *CHUNK_FLAGS], tmp_path)[0] == 0
    units = [json.loads(line) for line in units_path.read_text().splitlines()]
    table = {}
    for unit in units:
        if unit["role"] != "system":
            text = unit["source_text"]
            for latin, arabic in LATIN_TO_ARABIC.items():
                text = text.replace(latin, arabic)
            table[unit["source_text"]] = text
    assert not {u["source_text"] for u in units if u["role"] == "system"} & set(table)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
    ini = tmp_path / "conf.ini"
    ini.write_text("[queue]\nbatch_size = 5\n", encoding="utf-8")
    return corpus_path, units_path, table_path, ini


def _pipeline_args(corpus_path, table_path, ini, out):
    return ["pipeline", "--input", str(corpus_path), "--out", str(out),
            "--backend", "mock-table", "--table", str(table_path),
            "--config", str(ini), "--no-translate-system", *CHUNK_FLAGS]


def test_pipeline_matches_single_stage_chain(tmp_path, staged_corpus):
    corpus_path, units_path, table_path, ini = staged_corpus
    queue = tmp_path / "queue"
    rebuilt = tmp_path / "rebuilt.jsonl"
    candidates = tmp_path / "candidates.jsonl"
    scored = tmp_path / "scored.jsonl"
    assert run(["enqueue", "--units", str(units_path), "--queue", str(queue),
                "--translator-id", "mock-table", "--batch-size", "5"], tmp_path)[0] == 0
    assert run(["work", "--queue", str(queue), "--worker-id", "w0",
                "--backend", "mock-table", "--table", str(table_path)], tmp_path)[0] == 0
    assert run(["reconstruct", "--from-queue", str(queue), "--corpus", str(corpus_path),
                "--out", str(rebuilt)], tmp_path)[0] == 0
    candidates.write_text("".join(json.dumps({
        "conversation_id": conv.id, "translator_id": "mock-table",
        "conversation": conversation_to_dict(conv)}, ensure_ascii=False) + "\n"
        for conv in load_corpus(rebuilt)), encoding="utf-8")
    assert run(["score", "--corpus", str(corpus_path), "--candidates", str(candidates),
                "--out", str(scored)], tmp_path)[0] == 0

    out = tmp_path / "out"
    assert run(_pipeline_args(corpus_path, table_path, ini, out), tmp_path)[0] == 0
    assert (out / "units.jsonl").read_bytes() == units_path.read_bytes()
    assert (out / "translated_corpus.jsonl").read_bytes() == rebuilt.read_bytes()
    assert (out / "candidates.jsonl").read_bytes() == candidates.read_bytes()
    assert (out / "scored.jsonl").read_bytes() == scored.read_bytes()
    assert rebuilt.read_bytes() != corpus_path.read_bytes()  # the table translated
    # One rule picks every winner: the pipeline's are rank's over its rows.
    winners = tmp_path / "winners.jsonl"
    assert run(["rank", "--scored", str(out / "scored.jsonl"), "--winners-out",
                str(winners), "--config", str(ini)], tmp_path)[0] == 0
    assert (out / "winners.jsonl").read_bytes() == winners.read_bytes()

    key = ("conversation_id", "message_index", "part_index", "chunk_index")
    units = [json.loads(line) for line in units_path.read_text().splitlines()]
    translated = [json.loads(line) for line in
                  (out / "translated_units.jsonl").read_text().splitlines()]
    assert [[u[k] for k in key] for u in translated] == [[u[k] for k in key] for u in units]
    # The setup exercises what the streaming pass 2 has to get right.
    assert {u["translator_id"] for u in translated} == {"passthrough", "mock-table"}
    assert any(u["chunk_count"] > 1 for u in units)
    records = [json.loads(p.read_text()) for p in (out / "queue" / "done").glob("*.json")]
    assert any(len({u["conversation_id"] for u in r["units"]}) > 1 for r in records)
    # Pass 1 enqueues each batch as it closes, yet makes the batches, hence
    # the task ids, of one enqueue of every translatable unit under the
    # budget of batch_size full chunks.
    translatable = [u for u in read_units(units_path) if u.role != "system"]
    expected = enqueue(tmp_path / "q1", translatable, "mock-table", batch_size=5,
                       char_budget=5 * 9)
    assert len(expected) > 2 * 16
    assert sorted(p.stem for p in (out / "queue" / "done").iterdir()) == \
        sorted(t.task_id for t in expected)


def test_pipeline_encodes_each_unit_once_into_enqueues_pending_records(
        tmp_path, staged_corpus, monkeypatch):
    corpus_path, units_path, table_path, ini = staged_corpus
    import tarjama.cli as cli
    import tarjama.workqueue as workqueue
    calls = []
    for module in (cli, workqueue):
        monkeypatch.setattr(module, "unit_to_dict",
                            lambda unit, real=module.unit_to_dict: calls.append(1) or real(unit))
    real_worker_loop = cli.worker_loop
    pending = {}

    def snapshot_then_drain(queue_dir, *args, **kwargs):
        pending.update((p.name, p.read_bytes()) for p in (queue_dir / "pending").iterdir())
        return real_worker_loop(queue_dir, *args, **kwargs)

    monkeypatch.setattr(cli, "worker_loop", snapshot_then_drain)
    out = tmp_path / "out"
    assert run(_pipeline_args(corpus_path, table_path, ini, out), tmp_path)[0] == 0
    # pass 1 only: no second encoding for the task, the done record or
    # translated_units.jsonl
    assert len(calls) == len((out / "units.jsonl").read_text().splitlines())
    translatable = [u for u in read_units(units_path) if u.role != "system"]
    enqueue(tmp_path / "q1", translatable, "mock-table", batch_size=5, char_budget=5 * 9)
    assert pending == {p.name: p.read_bytes() for p in (tmp_path / "q1" / "pending").iterdir()}


def test_pipeline_builds_unit_objects_only_for_claimed_tasks(tmp_path, staged_corpus,
                                                             monkeypatch):
    corpus_path, _, table_path, ini = staged_corpus
    import tarjama.cli as cli
    import tarjama.corpus as corpus
    import tarjama.workqueue as workqueue
    calls = []
    for module in (cli, corpus, workqueue):
        monkeypatch.setattr(module, "unit_from_dict",
                            lambda obj, real=module.unit_from_dict: calls.append(1) or real(obj))
    out = tmp_path / "out"
    assert run(_pipeline_args(corpus_path, table_path, ini, out), tmp_path)[0] == 0
    # One per translatable unit, when its task is claimed; pass 2 rebuilds
    # the conversations from the unit records themselves.
    units = [json.loads(line) for line in (out / "units.jsonl").read_text().splitlines()]
    assert len(calls) == sum(u["role"] != "system" for u in units)


def test_pipeline_fails_a_task_whose_translation_holds_a_lone_surrogate(tmp_path, capsys):
    conv = make_conversation("c1", contents=[("user", "hello there"), ("assistant", "ok")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "table.json"
    out = tmp_path / "out"
    queue = out / "queue"
    args = ["pipeline", "--input", str(corpus_path), "--out", str(out),
            "--backend", "mock-table", "--table", str(table_path)]
    # A rerun on the same queue finds no lease left behind; its table breaks
    # the other unit of the same task, and failed/ keeps the latest reason.
    for message_index, source in enumerate(["hello there", "ok"]):
        table_path.write_text(json.dumps({source: "\ud800 bad"}), encoding="utf-8")
        rc, _ = run(args, tmp_path)
        assert rc == 1
        assert [len(list((queue / d).iterdir())) for d in ("pending", "leases", "done",
                                                          "failed")] == [0, 0, 0, 1]
        (record,) = (queue / "failed").iterdir()
        reason = json.loads(record.read_text(encoding="utf-8"))["reason"]
        assert f"unpaired surrogates for unit ('c1', {message_index}, 0, 0)" in reason
        err = capsys.readouterr().err
        assert f"task {record.stem} has no done/ record" in err
        assert reason in err


def test_a_pipeline_rerun_retries_a_failed_task_and_empties_failed(tmp_path):
    convs = [make_conversation(f"c{i}", contents=[("user", f"hello {i}"), ("assistant", "ok")])
             for i in range(3)]
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl(convs), encoding="utf-8")
    table_path = tmp_path / "table.json"
    out = tmp_path / "out"
    queue = out / "queue"
    args = ["pipeline", "--input", str(corpus_path), "--out", str(out),
            "--backend", "mock-table", "--table", str(table_path)]
    table_path.write_text(json.dumps({"hello 1": "\ud800 bad"}), encoding="utf-8")
    assert run(args, tmp_path)[0] == 1
    assert len(list((queue / "failed").iterdir())) == 1
    # The same --out, with a table that now translates the failed task.
    table_path.write_text(json.dumps({"hello 1": "مرحبا"}), encoding="utf-8")
    assert run(args, tmp_path)[0] == 0
    translated = load_corpus(out / "translated_corpus.jsonl")
    assert [c.id for c in translated] == ["c0", "c1", "c2"]
    assert translated[1].messages[0].content == "مرحبا"
    assert list((queue / "failed").iterdir()) == []
    assert [len(list((queue / d).iterdir())) for d in ("pending", "leases")] == [0, 0]


def test_pipeline_exits_1_naming_a_task_without_done_record(
        tmp_path, staged_corpus, monkeypatch, capsys):
    corpus_path, _, table_path, ini = staged_corpus
    import tarjama.cli as cli
    real_worker_loop = cli.worker_loop
    lost = []

    def drain_then_lose_a_record(queue_dir, *args, **kwargs):
        processed = real_worker_loop(queue_dir, *args, **kwargs)
        record = sorted((Path(queue_dir) / "done").glob("*.json"))[1]
        record.unlink()
        lost.append(record.stem)
        return processed

    monkeypatch.setattr(cli, "worker_loop", drain_then_lose_a_record)
    rc, _ = run(_pipeline_args(corpus_path, table_path, ini, tmp_path / "out"), tmp_path)
    assert rc == 1
    assert f"task {lost[0]} has no done/ record" in capsys.readouterr().err


def _in_three_processes(monkeypatch):
    """Make pipeline run three processes on any input."""
    import tarjama.cli as cli
    monkeypatch.setattr(cli, "_CHARS_PER_PROCESS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def _sys_only_at_a_shard_start(corpus_path, tmp_path):
    """A copy of the staged corpus with its system-only conversation, its
    first line, moved to where the second of three shards starts; and the
    shard bounds."""
    import tarjama.cli as cli
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "moved.jsonl"
    for index in range(1, len(lines)):
        path.write_text("".join([*lines[1:index + 1], lines[0], *lines[index + 1:]]),
                        encoding="utf-8")
        bounds = cli._shard_bounds([sum(len(m.content) for m in conv.messages)
                                    for conv in load_corpus(path)], 3)
        if bounds[1] == index:
            return path, bounds
    pytest.fail("no order puts the system-only conversation at a shard start")


def _files_outside_queue(out):
    return {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
            if path.is_file() and path.relative_to(out).parts[0] != "queue"}


def test_pipeline_in_three_processes_writes_the_bytes_of_one(tmp_path, staged_corpus,
                                                             monkeypatch):
    corpus_path, _, table_path, ini = staged_corpus
    corpus_path, bounds = _sys_only_at_a_shard_start(corpus_path, tmp_path)
    import tarjama.workqueue as workqueue
    real_translate = workqueue.translate_chunk

    def slow_translate(*args, **kwargs):  # so the drain outlasts a fork
        time.sleep(0.002)
        return real_translate(*args, **kwargs)

    monkeypatch.setattr(workqueue, "translate_chunk", slow_translate)
    outs = {}
    for w in (1, 3):
        if w == 3:
            _in_three_processes(monkeypatch)
        outs[w] = tmp_path / f"out{w}"
        manifest = tmp_path / f"runs{w}.jsonl"
        assert main(_pipeline_args(corpus_path, table_path, ini, outs[w])
                    + ["--manifest", str(manifest)]) == 0
        assert len(manifest.read_text().splitlines()) == 1
    assert _files_outside_queue(outs[3]) == _files_outside_queue(outs[1])
    assert {str(path) for path in _files_outside_queue(outs[1])} == {
        "units.jsonl", "translated_units.jsonl", "translated_corpus.jsonl",
        "candidates.jsonl", "scored.jsonl", "winners.jsonl", "report.md"}

    conversations = load_corpus(corpus_path)
    assert conversations[bounds[1]].id == "sys-only"
    index = {conv.id: i for i, conv in enumerate(conversations)}
    spans = [{index[u["conversation_id"]] for u in json.loads(p.read_text())["units"]}
             for p in (outs[3] / "queue" / "done").glob("*.json")]
    assert any(min(span) < bound <= max(span) for span in spans for bound in bounds[1:-1])

    own_id = f"pipeline-{os.uname().nodename}-{os.getpid()}"
    worker_ids = {w: {json.loads(p.read_text())["worker_id"]
                      for p in (out / "queue" / "done").glob("*.json")}
                  for w, out in outs.items()}
    assert worker_ids[1] == {own_id}
    assert own_id in worker_ids[3] and len(worker_ids[3]) > 1
    assert all(re.fullmatch(rf"pipeline-{re.escape(os.uname().nodename)}-\d+", worker_id)
               for worker_id in worker_ids[3])


def test_pipeline_reports_a_shard_process_failure_as_one_process_does(
        tmp_path, staged_corpus, monkeypatch, capsys):
    corpus_path, _, table_path, ini = staged_corpus
    import tarjama.cli as cli
    real_worker_loop = cli.worker_loop
    parent = os.getpid()
    last_id = load_corpus(corpus_path)[-1].id

    def drain_then_lose_the_last_records(queue_dir, *args, **kwargs):
        processed = real_worker_loop(queue_dir, *args, **kwargs)
        if os.getpid() == parent:  # every task has ended once its drain returns
            for record in (Path(queue_dir) / "done").glob("*.json"):
                if last_id in {u["conversation_id"]
                               for u in json.loads(record.read_text())["units"]}:
                    record.unlink()
        return processed

    monkeypatch.setattr(cli, "worker_loop", drain_then_lose_the_last_records)
    errors = {}
    for w in (1, 3):
        if w == 3:
            _in_three_processes(monkeypatch)
        out = tmp_path / f"out{w}"
        assert run(_pipeline_args(corpus_path, table_path, ini, out), tmp_path)[0] == 1
        errors[w] = [line for line in capsys.readouterr().err.splitlines()
                     if "has no done/ record" in line]
        assert [p.name for p in out.iterdir() if p.is_dir()] == ["queue"]
    assert len(errors[1]) == 1 and errors[3] == errors[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pipeline_below_the_threshold_forks_nothing(tmp_path, staged_corpus, monkeypatch):
    corpus_path, _, table_path, ini = staged_corpus

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(_pipeline_args(corpus_path, table_path, ini, tmp_path / "out"),
               tmp_path)[0] == 0


def test_pipeline_fork_map_returns_in_order_and_raises_the_first_failure():
    from tarjama.cli import _fork_map
    assert _fork_map(lambda k: [k] * k, 3) == [[], [1], [2, 2]]

    def fail(k):
        if k == 1:
            raise IncompleteUnitSetError([("c1", 0, 0, 1)])
        if k == 2:
            raise ValueError("later")
        return k

    with pytest.raises(IncompleteUnitSetError) as raised:
        _fork_map(fail, 3)
    assert raised.value.missing == [("c1", 0, 0, 1)]
    assert str(raised.value) == str(IncompleteUnitSetError([("c1", 0, 0, 1)]))
    with pytest.raises(FileNotFoundError) as raised:
        _fork_map(lambda k: k and open(f"/nonexistent/{k}"), 2)
    assert str(raised.value) == "[Errno 2] No such file or directory: '/nonexistent/1'"
    with pytest.raises(ChildProcessError, match="process 1 ended without a result"):
        _fork_map(lambda k: k and os._exit(3), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reconstruct_rejects_done_record_without_translation(tmp_path, capsys):
    conv = make_conversation("c1", contents=[("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    units = tmp_path / "units.jsonl"
    queue = tmp_path / "queue"
    assert run(["decompose", "--input", str(corpus_path),
                "--units-out", str(units)], tmp_path)[0] == 0
    assert run(["enqueue", "--units", str(units), "--queue", str(queue),
                "--translator-id", "mock"], tmp_path)[0] == 0
    assert run(["work", "--queue", str(queue), "--worker-id", "w0",
                "--backend", "mock-identity"], tmp_path)[0] == 0
    (record_path,) = (queue / "done").glob("*.json")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    del record["units"][0]["translated_text"]
    record_path.write_text(json.dumps(record), encoding="utf-8")

    rc, _ = run(["reconstruct", "--from-queue", str(queue),
                 "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "rebuilt.jsonl")], tmp_path)
    assert rc == 1
    assert record_path.name in capsys.readouterr().err


def _one_done_record(tmp_path):
    """A queue whose one done/ record translates a two-message corpus."""
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([make_conversation("c1")]), encoding="utf-8")
    units = tmp_path / "units.jsonl"
    queue = tmp_path / "queue"
    assert run(["decompose", "--input", str(corpus_path),
                "--units-out", str(units)], tmp_path)[0] == 0
    assert run(["enqueue", "--units", str(units), "--queue", str(queue),
                "--translator-id", "mock"], tmp_path)[0] == 0
    assert run(["work", "--queue", str(queue), "--worker-id", "w0",
                "--backend", "mock-identity"], tmp_path)[0] == 0
    (record_path,) = (queue / "done").glob("*.json")
    return queue, record_path


@pytest.mark.parametrize("field, value, message", [
    ("chunk_index", "0", "unit row field 'chunk_index' must be int, not '0'"),
    ("message_index", True, "unit row field 'message_index' must be int, not True"),
    ("translated_text", 5, "unit row field 'translated_text' must be str, not 5"),
    ("chunk_count", 0, "chunk_index must be in [0, chunk_count), not 0 of 0"),
    (None, 5, "not a done record of unit objects"),
])
def test_reconstruct_names_the_done_record_of_a_bad_unit(tmp_path, capsys, field, value,
                                                         message):
    queue, record_path = _one_done_record(tmp_path)
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if field is None:
        record["units"][-1] = value
    else:
        record["units"][-1][field] = value
    record_path.write_text(json.dumps(record), encoding="utf-8")

    rc, manifest = run(["reconstruct", "--from-queue", str(queue),
                        "--out", str(tmp_path / "rebuilt.jsonl")], tmp_path)
    assert rc == 1
    assert f"error: {record_path}: {message}" in capsys.readouterr().err
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


def test_reconstruct_from_translated_units_matches_pipeline(tmp_path, staged_corpus):
    corpus_path, _, table_path, ini = staged_corpus
    out = tmp_path / "out"
    assert run(_pipeline_args(corpus_path, table_path, ini, out), tmp_path)[0] == 0
    rebuilt = tmp_path / "rebuilt.jsonl"
    assert run(["reconstruct", "--translated-units", str(out / "translated_units.jsonl"),
                "--corpus", str(corpus_path), "--out", str(rebuilt)], tmp_path)[0] == 0
    assert rebuilt.read_bytes() == (out / "translated_corpus.jsonl").read_bytes()


def test_reconstruct_from_queue_without_corpus_keeps_first_seen_order(tmp_path):
    conversations = [make_conversation(cid, split="dev", category="math",
                                       contents=[("user", f"hello {cid}")])
                     for cid in ("b", "c", "a")]
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    units, queue, rebuilt = tmp_path / "units.jsonl", tmp_path / "queue", tmp_path / "r.jsonl"
    assert run(["decompose", "--input", str(corpus_path), "--units-out", str(units)],
               tmp_path)[0] == 0
    assert run(["enqueue", "--units", str(units), "--queue", str(queue),
                "--translator-id", "mock"], tmp_path)[0] == 0
    assert len(list((queue / "pending").iterdir())) == 1
    assert run(["work", "--queue", str(queue), "--worker-id", "w0",
                "--backend", "mock-identity"], tmp_path)[0] == 0
    assert run(["reconstruct", "--from-queue", str(queue), "--out", str(rebuilt)],
               tmp_path)[0] == 0
    # without --corpus, neither split nor category is known
    assert load_corpus(rebuilt) == [
        make_conversation(conv.id, split="", contents=[("user", f"hello {conv.id}")])
        for conv in conversations]


@pytest.mark.parametrize("inputs, message", [
    ([], "one of the arguments --translated-units --from-queue is required"),
    (["--translated-units", "t.jsonl", "--from-queue", "q"],
     "argument --from-queue: not allowed with argument --translated-units"),
])
def test_reconstruct_takes_exactly_one_input(tmp_path, capsys, inputs, message):
    rc, _ = run(["reconstruct", *inputs, "--out", str(tmp_path / "r.jsonl")], tmp_path)
    assert rc == 1
    assert message in capsys.readouterr().err


def test_score_then_rank_produces_winners(tmp_path):
    conversations = [
        make_conversation(f"c{i}", split="dev",
                          contents=[("user", "مرحبا بالعالم الجميل")])
        for i in range(3)
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    candidates = []
    for conv in conversations:
        good = conversation_to_dict(conv)
        bad = conversation_to_dict(make_conversation(
            conv.id, split="dev", contents=[("user", "zzqx vrtp mmlk nnpp")]))
        candidates.append({"conversation_id": conv.id, "translator_id": "aaa-good",
                           "conversation": good})
        candidates.append({"conversation_id": conv.id, "translator_id": "bbb-bad",
                           "conversation": bad})
    cand_path = tmp_path / "candidates.jsonl"
    cand_path.write_text("".join(json.dumps(c, ensure_ascii=False) + "\n"
                                 for c in candidates), encoding="utf-8")
    scored = tmp_path / "scored.jsonl"
    rc, _ = run(["score", "--corpus", str(corpus_path),
                 "--candidates", str(cand_path), "--out", str(scored)], tmp_path)
    assert rc == 0
    rows = [json.loads(line) for line in scored.read_text().splitlines()]
    assert len(rows) == 6
    assert all(set(row) >= {"conversation_id", "translator_id", "lr", "scr",
                            "tokens", "turns"} for row in rows)

    winners = tmp_path / "winners.jsonl"
    ranking = tmp_path / "ranking.jsonl"
    rc, _ = run(["rank", "--scored", str(scored), "--winners-out", str(winners),
                 "--ranking-out", str(ranking)], tmp_path)
    assert rc == 0
    winner_rows = [json.loads(line) for line in winners.read_text().splitlines()]
    assert len(winner_rows) == 3
    assert all(row["translator_id"] == "aaa-good" for row in winner_rows)
    ranking_rows = [json.loads(line) for line in ranking.read_text().splitlines()]
    assert all(len(row["ranking"]) == 2 for row in ranking_rows)


class _RewardByContent(BaseHTTPRequestHandler):
    """Reward endpoint: 0.5 for every candidate, HTTP 500 for one whose
    first message holds FAIL."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if "FAIL" in body["candidate"]["messages"][0]["content"]:
            self.send_error(500)
            return
        data = json.dumps({"score": 0.5}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_rank_candidates_matches_score_then_rank_cli(tmp_path, caplog):
    source = make_conversation("c", contents=[("user", "مرحبا بالعالم الجميل")])
    candidates = [  # t-b and t-a tie; the scorer fails for t-fail
        Candidate("c", tid, make_conversation("c", contents=[("user", text)]))
        for tid, text in [("t-b", "مرحبا بالعالم الجميل"), ("t-zz", "zzqx vrtp mmlk"),
                          ("t-fail", "مرحبا FAIL"), ("t-a", "مرحبا بالعالم الجميل")]]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([source]), encoding="utf-8")
    cand_path = tmp_path / "candidates.jsonl"
    cand_path.write_text("".join(json.dumps({
        "conversation_id": c.conversation_id, "translator_id": c.translator_id,
        "conversation": conversation_to_dict(c.conversation)}, ensure_ascii=False) + "\n"
        for c in candidates), encoding="utf-8")
    server = HTTPServer(("127.0.0.1", 0), _RewardByContent)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    endpoint = f"http://127.0.0.1:{server.server_port}"
    scored, ranking = tmp_path / "scored.jsonl", tmp_path / "ranking.jsonl"
    try:
        with caplog.at_level("WARNING"):
            expected = rank_candidates(source, candidates,
                                       scorer=HttpRewardScorer(endpoint))
            assert run(["score", "--corpus", str(corpus_path), "--candidates",
                        str(cand_path), "--out", str(scored), "--reward-endpoint",
                        endpoint], tmp_path)[0] == 0
    finally:
        server.shutdown()
        server.server_close()
    assert run(["rank", "--scored", str(scored), "--winners-out",
                str(tmp_path / "winners.jsonl"), "--ranking-out", str(ranking)],
               tmp_path)[0] == 0
    (row,) = [json.loads(line) for line in ranking.read_text().splitlines()]
    assert [(r["translator_id"], r["score"]) for r in row["ranking"]] == expected
    assert [t for t, _ in expected[:2]] == ["t-a", "t-b"]
    assert expected[0][1] == expected[1][1]
    rows = {r["translator_id"]: r for r in map(json.loads, scored.read_text().splitlines())}
    assert "rm" not in rows["t-fail"] and rows["t-a"]["rm"] == 0.5
    failures = [r.message for r in caplog.records if "reward scorer failed" in r.message]
    assert len(failures) == 2 and all("c/t-fail" in m for m in failures)


def test_stats_report_from_scored_rows(tmp_path):
    rows = [
        {"conversation_id": "a", "translator_id": "m", "split": "s1",
         "lr": 1.0, "scr": 1.0, "tokens": 100, "turns": 2},
        {"conversation_id": "b", "translator_id": "m", "split": "s1",
         "lr": 0.5, "scr": 0.8, "tokens": 200, "turns": 4},
    ]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "report.csv"
    rc, _ = run(["stats", "--scored", str(scored), "--out", str(out),
                 "--format", "csv"], tmp_path)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "Split,Num Examples,Mean LR,Mean SCR,Mean Turns," \
                       "Mean Total Tokens,P95 Tokens"
    assert lines[2] == "s1,2,0.7500,0.9000,3.00,150.00,200.00"


def test_bt_fit_cli_closed_form(tmp_path):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("winner,loser,count\nA,B,3\nB,A,1\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    rc, _ = run(["bt-fit", "--prefs", str(prefs), "--out", str(out),
                 "--epsilon", "0"], tmp_path)
    assert rc == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["A"]) == pytest.approx(math.log(3) / 2, abs=1e-5)
    assert float(rows["B"]) == pytest.approx(-math.log(3) / 2, abs=1e-5)


def test_bt_fit_rejects_a_row_without_a_loser(tmp_path, capsys):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("winner,loser,count\na\n", encoding="utf-8")
    rc, manifest = run(["bt-fit", "--prefs", str(prefs),
                        "--out", str(tmp_path / "scores.csv")], tmp_path)
    assert rc == 1
    assert f"error: {prefs} line 2:" in capsys.readouterr().err
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


def test_bt_fit_names_the_line_of_a_bad_count(tmp_path, capsys):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("winner,loser,count\nA,B,3\na,b,x\n", encoding="utf-8")
    rc, manifest = run(["bt-fit", "--prefs", str(prefs),
                        "--out", str(tmp_path / "scores.csv")], tmp_path)
    assert rc == 1
    assert f"error: {prefs} line 3: count 'x' is not an integer" in capsys.readouterr().err
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


@pytest.mark.parametrize("epsilon", ["-0.2", "-1", "nan"])
def test_bt_fit_rejects_a_negative_epsilon(tmp_path, capsys, epsilon):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("winner,loser,count\nA,B,3\nB,A,1\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    rc, manifest = run(["bt-fit", "--prefs", str(prefs), "--out", str(out),
                        "--epsilon", epsilon], tmp_path)
    assert rc == 1
    assert f"error: epsilon must be >= 0, got {float(epsilon)}" in capsys.readouterr().err
    assert not out.exists()
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


@pytest.mark.parametrize("field", ["conversation_id", "translator_id", "conversation"])
def test_score_names_the_missing_field_of_a_candidate_row(tmp_path, capsys, field):
    conv = make_conversation("c")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    row = {"conversation_id": "c", "translator_id": "t",
           "conversation": conversation_to_dict(conv)}
    cand_path = tmp_path / "candidates.jsonl"
    cand_path.write_text(json.dumps(row) + "\n\n"
                         + json.dumps({k: v for k, v in row.items() if k != field}) + "\n",
                         encoding="utf-8")
    rc, manifest = run(["score", "--corpus", str(corpus_path), "--candidates",
                        str(cand_path), "--out", str(tmp_path / "scored.jsonl")], tmp_path)
    assert rc == 1
    assert (f"error: {cand_path} line 3: candidate row has no {field!r} field"
            in capsys.readouterr().err)
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


SCORED_ROW = {"conversation_id": "c", "translator_id": "t", "split": "dev",
              "lr": 0.9, "scr": 0.9, "tokens": 10, "turns": 2}


@pytest.mark.parametrize("subcommand, field", [
    *(("rank", f) for f in ("conversation_id", "translator_id", "lr", "scr", "tokens",
                            "turns")),
    *(("stats", f) for f in ("split", "lr", "scr", "tokens", "turns")),
    *(("filter", f) for f in ("conversation_id", "lr", "scr", "tokens", "turns")),
])
def test_scored_row_without_a_field_exits_1(tmp_path, capsys, subcommand, field):
    scored = tmp_path / "scored.jsonl"
    scored.write_text(json.dumps({k: v for k, v in SCORED_ROW.items() if k != field})
                      + "\n", encoding="utf-8")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([make_conversation("c")]), encoding="utf-8")
    outputs = {
        "rank": ["--winners-out", str(tmp_path / "winners.jsonl")],
        "stats": ["--out", str(tmp_path / "report.md")],
        "filter": ["--corpus", str(corpus_path), "--kept-out", str(tmp_path / "kept.jsonl"),
                   "--rejected-out", str(tmp_path / "rejected.jsonl")],
    }[subcommand]
    rc, manifest = run([subcommand, "--scored", str(scored), *outputs], tmp_path)
    assert rc == 1
    assert f"error: scored row has no {field!r} field" in capsys.readouterr().err
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


UNIT_ROW = {"conversation_id": "c", "message_index": 0, "part_type": "visible",
            "part_index": 0, "chunk_index": 0, "chunk_count": 1, "role": "user",
            "source_text": "hi", "translated_text": "hi", "translator_id": "t"}


@pytest.mark.parametrize("subcommand, flag, bad_line, message", [
    ("enqueue", "--units", "not json", "Expecting value: line 1 column 1 (char 0)"),
    ("enqueue", "--units", json.dumps({"conversation_id": "a"}),
     "unit row has no 'message_index' field"),
    ("enqueue", "--units", "[1, 2]", "not a JSON object"),
    ("enqueue", "--units", json.dumps(dict(UNIT_ROW, chunk_count="1")),
     "unit row field 'chunk_count' must be int, not '1'"),
    ("reconstruct", "--translated-units", "{", "Expecting property name"),
    ("reconstruct", "--translated-units",
     json.dumps({k: v for k, v in UNIT_ROW.items() if k != "source_text"}),
     "unit row has no 'source_text' field"),
    ("reconstruct", "--translated-units", json.dumps(dict(UNIT_ROW, translated_text=None)),
     "unit row field 'translated_text' must be str, not None"),
    # Unchecked, this last part of the message would be dropped: it has all
    # of its zero chunks, and no part after it shows it missing.
    ("reconstruct", "--translated-units", json.dumps(dict(UNIT_ROW, part_index=1,
                                                          chunk_count=0)),
     "chunk_index must be in [0, chunk_count), not 0 of 0"),
    # An untranslated unit row, as a units.jsonl holds, rebuilds nothing.
    ("reconstruct", "--translated-units",
     json.dumps({k: v for k, v in UNIT_ROW.items()
                 if k not in ("translated_text", "translator_id")}),
     "unit row has no 'translated_text' field"),
    ("score", "--candidates", "not json", "Expecting value"),
    ("rank", "--scored", "not json", "Expecting value"),
    ("stats", "--scored", "7", "not a JSON object"),
    ("filter", "--scored", "{\"lr\": }", "Expecting value"),
], ids=["enqueue-not-json", "enqueue-no-field", "enqueue-not-object", "enqueue-wrong-type",
        "reconstruct-not-json", "reconstruct-no-field", "reconstruct-wrong-type",
        "reconstruct-chunk-count-0", "reconstruct-untranslated", "score-not-json",
        "rank-not-json", "stats-not-object", "filter-not-json"])
def test_bad_input_row_exits_1_naming_its_file_and_line(tmp_path, capsys, subcommand,
                                                        flag, bad_line, message):
    conv = make_conversation("c")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    good_row = {"--units": UNIT_ROW, "--translated-units": UNIT_ROW, "--scored": SCORED_ROW,
                "--candidates": {"conversation_id": "c", "translator_id": "t",
                                 "conversation": conversation_to_dict(conv)}}[flag]
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(good_row) + "\n\n" + bad_line + "\n", encoding="utf-8")
    outputs = {
        "enqueue": ["--queue", str(tmp_path / "q"), "--translator-id", "t"],
        "reconstruct": ["--out", str(tmp_path / "rebuilt.jsonl")],
        "score": ["--corpus", str(corpus_path), "--out", str(tmp_path / "scored.jsonl")],
        "rank": ["--winners-out", str(tmp_path / "winners.jsonl")],
        "stats": ["--out", str(tmp_path / "report.md")],
        "filter": ["--corpus", str(corpus_path), "--kept-out", str(tmp_path / "kept.jsonl"),
                   "--rejected-out", str(tmp_path / "rejected.jsonl")],
    }[subcommand]
    rc, manifest = run([subcommand, flag, str(rows), *outputs], tmp_path)
    assert rc == 1
    assert f"error: {rows} line 3: {message}" in capsys.readouterr().err
    assert json.loads(manifest.read_text().splitlines()[-1])["exit_code"] == 1


def test_filter_cli(tmp_path):
    conversations = [
        make_conversation("keep", contents=[("user", "مرحبا")]),
        make_conversation("drop", contents=[("user", "漢字")]),
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    rows = [
        {"conversation_id": "keep", "translator_id": "m", "split": "dev",
         "lr": 0.9, "scr": 0.9, "tokens": 10, "turns": 2},
        {"conversation_id": "drop", "translator_id": "m", "split": "dev",
         "lr": 0.9, "scr": 0.9, "tokens": 10, "turns": 2},
    ]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    kept = tmp_path / "kept.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    rc, _ = run(["filter", "--corpus", str(corpus_path), "--scored", str(scored),
                 "--kept-out", str(kept), "--rejected-out", str(rejected),
                 "--min-lr", "0.3", "--min-scr", "0.3", "--reject-cjk"], tmp_path)
    assert rc == 0
    assert [c.id for c in load_corpus(kept)] == ["keep"]
    rejected_rows = [json.loads(line) for line in rejected.read_text().splitlines()]
    assert rejected_rows == [{"id": "drop", "reasons": ["cjk"]}]


def test_sample_cli_deterministic(tmp_path):
    conversations = []
    for i in range(40):
        category = ["code", "science", "math", "math"][i % 4]
        conversations.append(make_conversation(f"c{i}", category=category))
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    args = ["sample", "--corpus", str(corpus_path), "--ratios",
            "code:1,science:1,math:2", "--total", "8", "--seed", "5"]
    rc, _ = run(args + ["--out", str(out1)], tmp_path)
    assert rc == 0
    rc, _ = run(args + ["--out", str(out2)], tmp_path)
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    sampled = load_corpus(out1)
    assert len(sampled) == 8
    assert sum(1 for c in sampled if c.category == "math") == 4


def test_sample_total_zero_writes_no_rows(tmp_path):
    conversations = [make_conversation(f"c{i}", category="math") for i in range(5)]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    out = tmp_path / "sampled.jsonl"
    rc, _ = run(["sample", "--corpus", str(corpus_path), "--ratios", "math:1",
                 "--total", "0", "--seed", "5", "--out", str(out)], tmp_path)
    assert rc == 0
    assert load_corpus(out) == []


@pytest.mark.parametrize("flags, message", [
    (["--target-tokens", "0"], "target_tokens must be positive"),
    (["--hard-cap-tokens", "0"], "target_tokens must not exceed hard_cap_tokens"),
])
def test_zero_chunk_flags_are_checked_not_defaulted(tmp_path, fixture_corpus,
                                                    capsys, flags, message):
    corpus_path, _ = fixture_corpus
    rc, _ = run(["decompose", "--input", str(corpus_path),
                 "--units-out", str(tmp_path / "u.jsonl")] + flags, tmp_path)
    assert rc == 1
    assert message in capsys.readouterr().err


def test_zero_batch_size_is_checked_not_defaulted(tmp_path, fixture_corpus, capsys):
    corpus_path, _ = fixture_corpus
    units = tmp_path / "u.jsonl"
    rc, _ = run(["decompose", "--input", str(corpus_path),
                 "--units-out", str(units)], tmp_path)
    assert rc == 0
    rc, _ = run(["enqueue", "--units", str(units), "--queue", str(tmp_path / "q"),
                 "--translator-id", "mock", "--batch-size", "0"], tmp_path)
    assert rc == 1
    assert "batch_size must be positive" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["queue-status", "--queue", str(tmp_path),
               "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "absent.ini" in capsys.readouterr().err


def test_unparseable_config_value_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    for text, where in [
        ("[metrics]\nalpha = 1.25   ; comment\n", "[metrics] alpha:"),
        ("alpha = 1.25\n", f"{ini}: File contains no section headers"),
        ("[run]\nprompt_template = 100% of {source}\n",
         "[run] prompt_template: '%' must be followed by"),
    ]:
        ini.write_text(text, encoding="utf-8")
        rc = main(["queue-status", "--queue", str(tmp_path), "--config", str(ini)])
        assert rc == 2
        assert f"config error: {where}" in capsys.readouterr().err
    ini.write_text("[run]\nprompt_template = 100%% of {source}\n", encoding="utf-8")
    assert load_config(str(ini)).prompt_template == "100% of {source}"


def test_unknown_subcommand_exits_1(capsys):
    rc = main(["frobnicate"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_input_file_exits_2(tmp_path):
    rc, _ = run(["decompose", "--input", str(tmp_path / "nope.jsonl"),
                 "--units-out", str(tmp_path / "u.jsonl")], tmp_path)
    assert rc == 2


def test_invalid_corpus_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    rc, _ = run(["decompose", "--input", str(bad),
                 "--units-out", str(tmp_path / "u.jsonl")], tmp_path)
    assert rc == 1


@pytest.mark.parametrize("subcommand", ["decompose", "score"])
def test_corpus_errors_name_their_file(tmp_path, capsys, caplog, subcommand):
    good = corpus_jsonl([make_conversation("c")])
    no_split = json.dumps({"id": "d", "messages": [{"role": "user", "content": "x"}]})
    corpus_path = tmp_path / "bad.jsonl"
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text("", encoding="utf-8")
    args = {"decompose": ["decompose", "--input", str(corpus_path),
                          "--units-out", str(tmp_path / "u.jsonl")],
            "score": ["score", "--corpus", str(corpus_path), "--candidates", str(candidates),
                      "--out", str(tmp_path / "s.jsonl")]}[subcommand]
    for text, message in [
            (good + no_split + "\n", "line 2: missing required field 'split'"),
            (good + good, "lines 1 and 2: duplicate conversation id 'c'")]:
        corpus_path.write_text(text, encoding="utf-8")
        rc, _ = run(args, tmp_path)
        assert rc == 1
        assert f"error: {corpus_path} {message}" in capsys.readouterr().err
        with caplog.at_level("WARNING"):
            assert run(args + ["--lenient"], tmp_path)[0] == 0
        assert f"skipping {corpus_path} {message}" in caplog.text
        caplog.clear()


def test_lenient_flag_skips_bad_lines(tmp_path):
    conv = make_conversation("good", contents=[("user", "hi")])
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("this is not json\n" + corpus_jsonl([conv]), encoding="utf-8")
    units = tmp_path / "u.jsonl"
    rc, _ = run(["decompose", "--input", str(mixed), "--units-out", str(units),
                 "--lenient"], tmp_path)
    assert rc == 0
    assert "good" in units.read_text()


def test_pipeline_rejects_undersized_backend_window(tmp_path, fixture_corpus):
    corpus_path, _ = fixture_corpus
    ini = tmp_path / "conf.ini"
    ini.write_text("[backend]\nkind = mock-identity\nmax_input_tokens = 100\n",
                   encoding="utf-8")
    rc, _ = run(["pipeline", "--input", str(corpus_path),
                 "--out", str(tmp_path / "out"), "--config", str(ini)], tmp_path)
    assert rc == 1


def test_score_with_reward_endpoint(tmp_path):
    from test_backends import _RewardHandler

    conv = make_conversation("c1", contents=[("user", "مرحبا")])
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    cand_path = tmp_path / "cands.jsonl"
    cand_path.write_text(json.dumps({
        "conversation_id": "c1", "translator_id": "m",
        "conversation": conversation_to_dict(conv)}, ensure_ascii=False) + "\n",
        encoding="utf-8")
    server = HTTPServer(("127.0.0.1", 0), _RewardHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        scored = tmp_path / "scored.jsonl"
        rc, _ = run(["score", "--corpus", str(corpus_path),
                     "--candidates", str(cand_path), "--out", str(scored),
                     "--reward-endpoint",
                     f"http://127.0.0.1:{server.server_port}"], tmp_path)
        assert rc == 0
        row = json.loads(scored.read_text().splitlines()[0])
        assert row["rm"] == pytest.approx(0.8)
    finally:
        server.shutdown()
        server.server_close()


def test_config_per_split_filter_overrides(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("""
[filter]
min_lr = 0.2
min_scr = 0.1

[filter.overrides]
Strict_Split = 0.8,0.9
""", encoding="utf-8")
    cfg = load_config(str(ini))
    assert cfg.filter_policy.min_lr == 0.2
    assert cfg.filter_policy.thresholds("Strict_Split") == (0.8, 0.9)
    assert cfg.filter_policy.thresholds("other") == (0.2, 0.1)


def test_config_file_drives_pipeline(tmp_path, fixture_corpus):
    corpus_path, _ = fixture_corpus
    ini = tmp_path / "conf.ini"
    ini.write_text("""
[chunking]
target_tokens = 8
window_tokens = 3
hard_cap_tokens = 9

[metrics]
alpha = 1.0
tau = 0.5
""", encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--config", str(ini)], tmp_path)
    assert rc == 0
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "alpha=1.0" in report and "tau=0.5" in report


# -- one resolved configuration ----------------------------------------------

SUBCOMMANDS = {
    "decompose": ["decompose", "--input", "c.jsonl", "--units-out", "u.jsonl"],
    "enqueue": ["enqueue", "--units", "u.jsonl", "--queue", "q", "--translator-id", "t"],
    "work": ["work", "--queue", "q", "--worker-id", "w0"],
    "reconstruct": ["reconstruct", "--from-queue", "q", "--out", "r.jsonl"],
    "score": ["score", "--corpus", "c.jsonl", "--candidates", "x.jsonl", "--out", "s.jsonl"],
    "rank": ["rank", "--scored", "s.jsonl", "--winners-out", "w.jsonl"],
    "bt-fit": ["bt-fit", "--prefs", "p.csv", "--out", "bt.csv"],
    "stats": ["stats", "--scored", "s.jsonl", "--out", "r.md"],
    "filter": ["filter", "--corpus", "c.jsonl", "--scored", "s.jsonl",
               "--kept-out", "k.jsonl", "--rejected-out", "r.jsonl"],
    "sample": ["sample", "--corpus", "c.jsonl", "--out", "o.jsonl"],
    "queue-status": ["queue-status", "--queue", "q"],
    "pipeline": ["pipeline", "--input", "c.jsonl", "--out", "out"],
}


@pytest.fixture
def resolve(tmp_path, monkeypatch):
    """``resolve(argv)`` runs ``main`` with every handler replaced by one
    that keeps the config it is handed; it returns that config and the
    config hash of the manifest line the run appended."""
    import tarjama.cli as cli
    handed = []
    for name in [name for name in vars(cli) if name.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, cfg: handed.append(cfg) or 0)
    manifest = tmp_path / "runs.jsonl"

    def resolve(argv):
        assert main(argv + ["--manifest", str(manifest)]) == 0
        return handed[-1], json.loads(manifest.read_text().splitlines()[-1])["config_hash"]
    return resolve


def _chunk_cases(subcommand):
    return [(subcommand, [flag, str(value)], f"chunk_policy.{field}", value, "")
            for flag, field, value in [("--target-tokens", "target_tokens", 100),
                                       ("--window-tokens", "window_tokens", 10),
                                       ("--hard-cap-tokens", "hard_cap_tokens", 600)]]


OVERRIDE_CASES = [
    *_chunk_cases("decompose"),
    *_chunk_cases("pipeline"),
    ("enqueue", ["--batch-size", "3"], "batch_size", 3, ""),
    ("work", ["--ttl", "60"], "ttl_seconds", 60.0, ""),
    ("work", ["--backend", "mock-table"], "backend",
     BackendConfig(id="mock-table", kind="mock-table"), ""),
    ("work", ["--endpoint", "http://127.0.0.1:9/v1"], "backend",
     BackendConfig(kind="http-endpoint", endpoint="http://127.0.0.1:9/v1"), ""),
    ("work", ["--model", "m"], "backend.model", "m", ""),
    ("work", ["--table", "t.json"], "backend",
     BackendConfig(kind="mock-table", table_path="t.json"), ""),
    ("score", ["--alpha", "1.0"], "alpha", 1.0, ""),
    ("score", ["--tau", "0.5"], "tau", 0.5, ""),
    ("rank", ["--weights", "1,1,1"], "combine_weights", (1.0, 1.0, 1.0), ""),
    ("filter", ["--min-lr", "0.5"], "filter_policy.min_lr", 0.5, ""),
    ("filter", ["--min-scr", "0.5"], "filter_policy.min_scr", 0.5, ""),
    ("filter", ["--reject-cjk"], "filter_policy.reject_cjk", True,
     "[filter]\nreject_cjk = false\n"),
    ("filter", ["--keep-cjk"], "filter_policy.reject_cjk", False, ""),
    ("sample", ["--ratios", "code:1"], "strata_ratios", {"code": 1}, ""),
    ("sample", ["--total", "5"], "sample_total", 5, ""),
    ("sample", ["--seed", "3"], "seed", 3, ""),
    ("pipeline", ["--translator-id", "x"], "backend", BackendConfig(id="x"), ""),
    ("pipeline", ["--translator-id", "x"], "backend",
     BackendConfig(id="x", kind="mock-table", table_path="t.json"),
     "[backend]\nkind = mock-table\ntable_path = t.json\n"),
    ("pipeline", ["--backend", "mock-table", "--table", "t.json"], "backend",
     BackendConfig(kind="mock-table", id="mock-table", table_path="t.json"), ""),
    ("pipeline", ["--no-translate-system"], "translate_system_messages", False, ""),
    ("decompose", ["--lenient"], "strict", False, ""),
]


@pytest.mark.parametrize("subcommand, flags, field, expected, ini", OVERRIDE_CASES,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_override_flag_reaches_its_field_and_the_config_hash(
        tmp_path, monkeypatch, resolve, subcommand, flags, field, expected, ini):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text("{}", encoding="utf-8")
    config = []
    if ini:
        (tmp_path / "conf.ini").write_text(ini, encoding="utf-8")
        config = ["--config", "conf.ini"]
    without, hash_without = resolve(SUBCOMMANDS[subcommand] + config)
    given, hash_given = resolve(SUBCOMMANDS[subcommand] + config + flags)
    assert attrgetter(field)(given) == expected != attrgetter(field)(without)
    assert hash_given != hash_without


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_no_flag_left_unset_stands_in_for_a_config_value(tmp_path, resolve, subcommand):
    ini = tmp_path / "conf.ini"
    ini.write_text(README_INI, encoding="utf-8")
    cfg, config_hash = resolve(SUBCOMMANDS[subcommand] + ["--config", str(ini)])
    assert config_hash == cfg.config_hash() == load_config(str(ini)).config_hash()


@pytest.mark.parametrize("subcommand, flags, message", [
    ("score", ["--alpha", "0"], "alpha must be positive"),
    ("score", ["--tau", "1.5"], "tau must be in (0, 1]"),
    ("rank", ["--weights", "1,-1,2"], "weights must be non-negative"),
    ("rank", ["--weights", "0,0,0"], "weights must not all be zero"),
    ("rank", ["--weights", "1,2"], "weights must be three comma-separated numbers"),
    ("sample", ["--ratios", ","], "cannot parse ratios from ','"),
    ("work", ["--ttl", "-5"], "ttl_seconds must be positive"),
    ("enqueue", ["--batch-size", "0"], "batch_size must be positive"),
])
def test_bad_override_flag_exits_1(tmp_path, capsys, subcommand, flags, message):
    rc, _ = run(SUBCOMMANDS[subcommand] + flags, tmp_path)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("ini, message", [
    ("[metrics]\ntau = 1.5\n", "[metrics] tau: tau must be in (0, 1]"),
    ("[metrics]\nalpha = -1\n", "[metrics] alpha: alpha must be positive"),
    ("[ranking]\nweight_lr = -1\n", "[ranking] weight_lr: weights must be non-negative"),
    ("[chunking]\nhard_cap_token = 9\n", "[chunking] hard_cap_token: unknown key"),
    ("[queue]\nmax_attempts = 0\n", "[queue] max_attempts: max_attempts must be positive"),
])
def test_bad_config_stops_pipeline_before_any_translation(
        tmp_path, capsys, fixture_corpus, ini, message):
    corpus_path, _ = fixture_corpus
    (tmp_path / "conf.ini").write_text(ini, encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--config", str(tmp_path / "conf.ini")], tmp_path)
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "queue").exists()


def test_config_backend_drives_pipeline(tmp_path):
    conv = make_conversation("c1", contents=[("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "tbl.json"
    table_path.write_text(json.dumps({"hi": "مرحبا"}), encoding="utf-8")
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[backend]\nkind = mock-table\nid = tbl\ntable_path = {table_path}\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    rc, manifest = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                        "--config", str(ini)], tmp_path)
    assert rc == 0
    assert load_corpus(out / "translated_corpus.jsonl")[0].messages[0].content == "مرحبا"
    (row,) = [json.loads(line) for line in (out / "scored.jsonl").read_text().splitlines()]
    assert row["translator_id"] == "tbl"
    entry = json.loads(manifest.read_text().splitlines()[-1])
    assert entry["config_hash"] == load_config(str(ini)).config_hash()


def test_manifest_hashes_the_table_file_of_the_config_backend(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([make_conversation("c1", contents=[("user", "hi")])]),
                           encoding="utf-8")
    table_path = tmp_path / "tbl.json"
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[backend]\nkind = mock-table\ntable_path = {table_path}\n",
                   encoding="utf-8")
    inputs = []
    for n, translation in enumerate(["مرحبا", "أهلا"]):
        table_path.write_text(json.dumps({"hi": translation}), encoding="utf-8")
        rc, manifest = run(["pipeline", "--input", str(corpus_path),
                            "--out", str(tmp_path / f"out-{n}"), "--config", str(ini)],
                           tmp_path)
        assert rc == 0
        inputs.append(json.loads(manifest.read_text().splitlines()[-1])["inputs"])
    assert [sorted(entry) for entry in inputs] == [
        sorted([str(corpus_path), str(ini), str(table_path)])] * 2
    assert inputs[0][str(table_path)] != inputs[1][str(table_path)]
