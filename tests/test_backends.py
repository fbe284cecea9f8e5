import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import tarjama
from tarjama.backends import (BackendError, BudgetExceededError,
                              HttpRewardScorer, PermanentBackendError,
                              TranslatorBackend, translate_chunk)
from tarjama.corpus import TranslationUnit
from tarjama.tokenizers import TokenizerSpec
from tarjama.workqueue import enqueue, worker_loop

from tarjama.cli import main

from conftest import corpus_jsonl, make_conversation, random_corpus


def unit(text="hi"):
    return TranslationUnit(conversation_id="c", message_index=0,
                           part_type="visible", part_index=0, chunk_index=0,
                           chunk_count=1, role="user", source_text=text)


def test_importing_cli_does_not_load_requests():
    # Every tarjama process imports tarjama.cli, so a module it loads for
    # nothing costs every command its import time: requests (HTTP backends
    # only), dataclasses with inspect, uuid with platform, csv (bt-fit only)
    # and configparser (--config only).  Compared with the same
    # interpreter's modules before the import.
    src = os.path.dirname(os.path.dirname(tarjama.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import tarjama.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    added = result.stdout.split()
    assert "tarjama.cli" in added
    unwanted = ("dataclasses", "inspect", "uuid", "csv", "configparser")
    assert [m for m in added if m in unwanted or m.split(".")[0] == "requests"] == []


def test_mock_identity_returns_source():
    backend = TranslatorBackend(id="id", kind="mock-identity")
    assert translate_chunk(backend, unit("خذ هذا")) == "خذ هذا"


def test_mock_table_lookup():
    backend = TranslatorBackend(id="tbl", kind="mock-table", table={"hi": "مرحبا"})
    assert translate_chunk(backend, unit("hi")) == "مرحبا"


def test_mock_table_miss_falls_back_to_source():
    backend = TranslatorBackend(id="tbl", kind="mock-table", table={})
    assert translate_chunk(backend, unit("bye")) == "bye"


def test_budget_precondition():
    backend = TranslatorBackend(id="id", kind="mock-identity", max_input_tokens=3)
    with pytest.raises(BudgetExceededError):
        translate_chunk(backend, unit("a b c d e"), tokenizer=TokenizerSpec.builtin())
    # Within budget passes.
    assert translate_chunk(backend, unit("a b"),
                           tokenizer=TokenizerSpec.builtin()) == "a b"


def test_backend_validation():
    with pytest.raises(ValueError):
        TranslatorBackend(id="x", kind="weird")
    with pytest.raises(ValueError):
        TranslatorBackend(id="x", kind="http-endpoint")
    with pytest.raises(ValueError):
        TranslatorBackend(id="x", kind="mock-identity", temperature=0.9)


class _FlakyHandler(BaseHTTPRequestHandler):
    """Answers *failures* POSTs after the first *after* with *status*, and
    every other POST with 200 *reply*."""
    after = 0
    failures = 3
    status = 500
    reply = {"choices": [{"message": {"content": "مرحبا"}}]}
    seen = 0
    payloads = []

    def do_POST(self):
        cls = type(self)
        cls.seen += 1
        body = self.rfile.read(int(self.headers["Content-Length"]))
        cls.payloads.append(json.loads(body))
        if cls.after < cls.seen <= cls.after + cls.failures:
            self.send_response(cls.status)
            self.end_headers()
            return
        data = json.dumps(cls.reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server(monkeypatch):
    for name in ("after", "failures", "status", "reply"):  # restored after the test
        monkeypatch.setattr(_FlakyHandler, name, getattr(_FlakyHandler, name))
    _FlakyHandler.seen = 0
    _FlakyHandler.payloads = []
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def drain(queue, backend, **options):
    """Drain *queue* at the default max_attempts with an injected sleep;
    return the completed count and the sleeps."""
    sleeps = []
    done = worker_loop(queue, backend, "w1", ttl=60, poll_interval=0.01,
                       sleep=sleeps.append, **options)
    return done, sleeps


def test_http_retries_until_success(tmp_path, flaky_server):
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server,
                                model="test-model")
    with pytest.raises(BackendError):  # one POST, one transient error
        translate_chunk(backend, unit("hello"))
    assert _FlakyHandler.seen == 1
    _FlakyHandler.seen = 0
    enqueue(tmp_path, [unit("hello")], "m", batch_size=1)
    prompt = "To {target_language}: {source}"
    # Three 500s then a 200; each retry waits twice as long as the last.
    assert drain(tmp_path, backend, prompt_template=prompt) == (1, [0.25, 0.5, 1.0])
    assert _FlakyHandler.seen == 4
    (done,) = (tmp_path / "done").iterdir()
    record = json.loads(done.read_text(encoding="utf-8"))
    assert record["attempt"] == 3 and record["units"][0]["translated_text"] == "مرحبا"
    sent = _FlakyHandler.payloads[-1]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == pytest.approx(0.2)
    assert sent["messages"][0]["content"] == "To Arabic: hello"


def test_http_transient_error_costs_one_post_per_attempt(tmp_path, flaky_server):
    _FlakyHandler.failures, _FlakyHandler.status = 99, 503
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server)
    enqueue(tmp_path, [unit("hello")], "m", batch_size=1)
    done, sleeps = drain(tmp_path, backend)
    assert done == 0
    assert _FlakyHandler.seen == 6  # DEFAULT_MAX_ATTEMPTS, one POST each
    assert sleeps == [0.25, 0.5, 1.0, 2.0, 4.0]
    (failed,) = (tmp_path / "failed").iterdir()
    record = json.loads(failed.read_text(encoding="utf-8"))
    assert record["attempt"] == 6 and "answered HTTP 503" in record["reason"]


@pytest.mark.parametrize("status", [408, 429])
def test_http_retries_timeouts_and_rate_limits(tmp_path, flaky_server, status):
    _FlakyHandler.status = status
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server)
    enqueue(tmp_path, [unit("hello")], "m", batch_size=1)
    assert drain(tmp_path, backend) == (1, [0.25, 0.5, 1.0])
    assert _FlakyHandler.seen == 4


def test_http_connection_error_is_transient():
    backend = TranslatorBackend(id="m", kind="http-endpoint",
                                endpoint="http://127.0.0.1:1/v1", timeout=5)
    with pytest.raises(BackendError, match="failed") as err:
        translate_chunk(backend, unit("hello"))
    assert not isinstance(err.value, PermanentBackendError)


def test_pipeline_against_a_flaky_endpoint_resends_only_untranslated_units(
        tmp_path, flaky_server, rng):
    # Two 503s in mid-task: the retried task keeps its first translations.
    _FlakyHandler.after, _FlakyHandler.failures, _FlakyHandler.status = 2, 2, 503
    conversations = random_corpus(rng, 6, think_prob=0.5)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(corpus_jsonl(conversations), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(corpus), "--out", str(out),
                 "--endpoint", flaky_server,
                 "--manifest", str(tmp_path / "runs.jsonl")]) == 0
    lines = (out / "translated_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == [c.id for c in conversations]
    rows = [json.loads(line) for line in
            (out / "translated_units.jsonl").read_text(encoding="utf-8").splitlines()]
    assert rows and all(row["translated_text"] == "مرحبا" for row in rows)
    assert _FlakyHandler.seen == len(rows) + 2


@pytest.mark.parametrize("failures, status, reply, reason", [
    (99, 400, None, "answered HTTP 400"),
    (0, 500, {"choices": []}, "answered HTTP 200 without choices[0].message.content"),
], ids=["http-400", "no-choices"])
def test_permanent_http_error_costs_one_post_and_fails_its_task(
        tmp_path, flaky_server, failures, status, reply, reason):
    _FlakyHandler.failures, _FlakyHandler.status = failures, status
    if reply is not None:
        _FlakyHandler.reply = reply
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server)
    with pytest.raises(PermanentBackendError, match=re.escape(reason)):
        translate_chunk(backend, unit("hello"))
    assert _FlakyHandler.seen == 1
    enqueue(tmp_path, [unit("hello")], "m", batch_size=1)
    assert worker_loop(tmp_path, backend, "w1", ttl=60, max_attempts=3,
                       poll_interval=0.01) == 0
    assert _FlakyHandler.seen == 2  # one more POST for the task, not max_attempts
    (failed,) = (tmp_path / "failed").iterdir()
    record = json.loads(failed.read_text(encoding="utf-8"))
    assert record["attempt"] == 0 and reason in record["reason"]


class _RewardHandler(BaseHTTPRequestHandler):
    score = 0.8

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert "source" in body and "candidate" in body
        data = json.dumps({"score": type(self).score}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_http_reward_scorer():
    server = HTTPServer(("127.0.0.1", 0), _RewardHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        scorer = HttpRewardScorer(f"http://127.0.0.1:{server.server_port}")
        conv = make_conversation("c")
        assert scorer(conv, conv) == pytest.approx(0.8)
        _RewardHandler.score = 1.7
        with pytest.raises(BackendError, match="invalid score"):
            scorer(conv, conv)
    finally:
        _RewardHandler.score = 0.8
        server.shutdown()
        server.server_close()
