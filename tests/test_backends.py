import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import tarjama
from tarjama.backends import (BackendError, BudgetExceededError,
                              HttpRewardScorer, TranslatorBackend,
                              translate_chunk)
from tarjama.corpus import TranslationUnit
from tarjama.tokenizers import TokenizerSpec

from conftest import make_conversation


def unit(text="hi"):
    return TranslationUnit(conversation_id="c", message_index=0,
                           part_type="visible", part_index=0, chunk_index=0,
                           chunk_count=1, role="user", source_text=text)


def test_importing_cli_does_not_load_requests():
    # requests costs most of the start-up time of every tarjama process,
    # so only HTTP backends load it.
    src = os.path.dirname(os.path.dirname(tarjama.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tarjama.cli; print(sorted(m for m in sys.modules if m.startswith('requests')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


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
    failures = 3
    seen = 0
    payloads = []

    def do_POST(self):
        cls = type(self)
        cls.seen += 1
        body = self.rfile.read(int(self.headers["Content-Length"]))
        cls.payloads.append(json.loads(body))
        if cls.seen <= cls.failures:
            self.send_response(500)
            self.end_headers()
            return
        reply = {"choices": [{"message": {"content": "مرحبا"}}]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.seen = 0
    _FlakyHandler.payloads = []
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_http_retries_until_success(flaky_server):
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server,
                                model="test-model", backoff_base=0.001)
    result = translate_chunk(backend, unit("hello"),
                             prompt_template="To {target_language}: {source}")
    assert result == "مرحبا"
    assert _FlakyHandler.seen == 4  # three 500s then a 200
    sent = _FlakyHandler.payloads[-1]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == pytest.approx(0.2)
    assert sent["messages"][0]["content"] == "To Arabic: hello"


def test_http_gives_up_after_max_retries(flaky_server):
    _FlakyHandler.failures = 99
    backend = TranslatorBackend(id="m", kind="http-endpoint", endpoint=flaky_server,
                                max_retries=2, backoff_base=0.001)
    with pytest.raises(BackendError, match="after 3 attempts"):
        translate_chunk(backend, unit("hello"))
    _FlakyHandler.failures = 3


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
