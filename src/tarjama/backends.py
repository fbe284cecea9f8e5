"""Translator backend clients.

Real translation goes through an HTTP endpoint speaking a
chat-completions-style JSON POST; the two mock kinds keep the pipeline
testable without any model: ``mock-identity`` echoes the source and
``mock-table`` answers from a configured lookup table.
"""

from __future__ import annotations

import os
from typing import Optional

from .corpus import Conversation, TranslationUnit, _has_surrogates, conversation_to_dict
from .tokenizers import TokenizerSpec, count_tokens

BACKEND_KINDS = ("http-endpoint", "mock-identity", "mock-table")

DEFAULT_TEMPERATURE = 0.2  # moderate sampling ranks best in ablations
DEFAULT_MAX_INPUT_TOKENS = 512


class BackendError(Exception):
    pass


class PermanentBackendError(BackendError):
    """An error that no retry can mend; its task fails at once."""


class BudgetExceededError(PermanentBackendError):
    """Prompt plus source exceeds the backend's input window; this means
    the chunker produced an oversized chunk."""


class TranslatorBackend:
    __slots__ = ("id", "kind", "endpoint", "model", "temperature", "max_input_tokens",
                 "api_key_env", "table", "timeout")

    def __init__(self, id: str, kind: str, endpoint: Optional[str] = None,
                 model: Optional[str] = None,
                 temperature: float = DEFAULT_TEMPERATURE,
                 max_input_tokens: int = DEFAULT_MAX_INPUT_TOKENS,
                 api_key_env: Optional[str] = None,
                 table: Optional[dict[str, str]] = None,
                 timeout: float = 120.0) -> None:
        if kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind: {kind!r}")
        if kind == "http-endpoint" and not endpoint:
            raise ValueError("http-endpoint backend requires an endpoint URL")
        if not 0.0 <= temperature <= 0.7:
            raise ValueError("temperature must be within [0.0, 0.7]")
        self.id = id
        self.kind = kind
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.max_input_tokens = max_input_tokens
        self.api_key_env = api_key_env
        self.table = {} if table is None else table
        self.timeout = timeout


def _post_chat(backend: TranslatorBackend, prompt: str) -> str:
    """Make one POST.  A connection error, a timeout, a 5xx, a 408 or a 429 is
    a ``BackendError``, which ``worker_loop`` retries as a task attempt; any
    other reply without ``choices[0].message.content`` is permanent."""
    import requests  # loaded only when an HTTP backend is used

    headers = {"Content-Type": "application/json"}
    if backend.api_key_env:
        key = os.environ.get(backend.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": backend.model or backend.id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": backend.temperature,
    }
    try:
        resp = requests.post(backend.endpoint, json=payload, headers=headers,
                             timeout=backend.timeout)
    except requests.RequestException as exc:
        raise BackendError(f"backend {backend.id!r} failed: {exc}") from exc
    if resp.status_code >= 500 or resp.status_code in (408, 429):
        raise BackendError(f"backend {backend.id!r} answered HTTP {resp.status_code}")
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):
        content = None
    if resp.ok and isinstance(content, str):
        return content
    raise PermanentBackendError(
        f"backend {backend.id!r} answered HTTP {resp.status_code} without "
        f"choices[0].message.content: {resp.text[:200]}")


def translate_chunk(backend: TranslatorBackend, unit: TranslationUnit,
                    prompt_template: str = "{source}",
                    target_language: str = "Arabic",
                    tokenizer: Optional[TokenizerSpec] = None) -> str:
    """Translate one unit's text through the backend.

    When a tokenizer is supplied the full prompt is checked against the
    backend's input window first; exceeding it is a chunker bug, not a
    retryable condition.  A translation holding unpaired surrogates cannot
    be written as UTF-8, and a retry of the same prompt is no more likely
    to mend it, so it is a ``PermanentBackendError`` too."""
    prompt = prompt_template.format(source=unit.source_text,
                                    target_language=target_language)
    if tokenizer is not None:
        used = count_tokens(prompt, tokenizer)
        if used > backend.max_input_tokens:
            raise BudgetExceededError(
                f"prompt for unit {unit.key} is {used} tokens; "
                f"backend {backend.id!r} allows {backend.max_input_tokens}")
    if backend.kind == "mock-identity":
        return unit.source_text
    if backend.kind == "mock-table":
        text = backend.table.get(unit.source_text, unit.source_text)
    else:
        text = _post_chat(backend, prompt)
    if _has_surrogates(text):
        raise PermanentBackendError(f"backend {backend.id!r} returned unpaired "
                                    f"surrogates for unit {unit.key}")
    return text


class HttpRewardScorer:
    """Client for an external reward model endpoint.

    Contract: POST ``{"source": ..., "candidate": ...}`` (conversation
    JSON objects) and receive ``{"score": s}`` with s in [0, 1]."""

    def __init__(self, endpoint: str, timeout: float = 60.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def __call__(self, source: Conversation, candidate: Conversation) -> float:
        import requests  # loaded only when an HTTP endpoint is used

        resp = requests.post(self.endpoint, json={
            "source": conversation_to_dict(source),
            "candidate": conversation_to_dict(candidate),
        }, timeout=self.timeout)
        resp.raise_for_status()
        score = resp.json()["score"]
        if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
            raise BackendError(f"reward endpoint returned invalid score: {score!r}")
        return float(score)
