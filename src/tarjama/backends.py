"""Translator backend clients.

Real translation goes through an HTTP endpoint speaking a
chat-completions-style JSON POST; the two mock kinds keep the pipeline
testable without any model: ``mock-identity`` echoes the source and
``mock-table`` answers from a configured lookup table.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from .corpus import Conversation, TranslationUnit, conversation_to_dict
from .tokenizers import TokenizerSpec, count_tokens

logger = logging.getLogger(__name__)

BACKEND_KINDS = ("http-endpoint", "mock-identity", "mock-table")

DEFAULT_TEMPERATURE = 0.2  # moderate sampling ranks best in ablations
DEFAULT_MAX_INPUT_TOKENS = 512


class BackendError(Exception):
    pass


class BudgetExceededError(BackendError):
    """Prompt plus source exceeds the backend's input window; this means
    the chunker produced an oversized chunk."""


@dataclass
class TranslatorBackend:
    id: str
    kind: str
    endpoint: Optional[str] = None
    model: Optional[str] = None
    temperature: float = DEFAULT_TEMPERATURE
    max_input_tokens: int = DEFAULT_MAX_INPUT_TOKENS
    api_key_env: Optional[str] = None
    table: dict[str, str] = field(default_factory=dict)
    max_retries: int = 5
    backoff_base: float = 0.25
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "http-endpoint" and not self.endpoint:
            raise ValueError("http-endpoint backend requires an endpoint URL")
        if not 0.0 <= self.temperature <= 0.7:
            raise ValueError("temperature must be within [0.0, 0.7]")


def _post_chat(backend: TranslatorBackend, prompt: str,
               sleep=time.sleep) -> str:
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
    last_error: Optional[Exception] = None
    for attempt in range(backend.max_retries + 1):
        if attempt:
            delay = backend.backoff_base * (2 ** (attempt - 1))
            logger.info("retrying %s (attempt %d) after %.2fs",
                        backend.id, attempt + 1, delay)
            sleep(delay)
        try:
            resp = requests.post(backend.endpoint, json=payload,
                                 headers=headers, timeout=backend.timeout)
            resp.raise_for_status()
            body = resp.json()
            return body["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            last_error = exc
    raise BackendError(
        f"backend {backend.id!r} failed after {backend.max_retries + 1} attempts: "
        f"{last_error}")


def translate_chunk(backend: TranslatorBackend, unit: TranslationUnit,
                    prompt_template: str = "{source}",
                    target_language: str = "Arabic",
                    tokenizer: Optional[TokenizerSpec] = None,
                    sleep=time.sleep) -> str:
    """Translate one unit's text through the backend.

    When a tokenizer is supplied the full prompt is checked against the
    backend's input window first; exceeding it is a chunker bug, not a
    retryable condition."""
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
        return backend.table.get(unit.source_text, unit.source_text)
    return _post_chat(backend, prompt, sleep=sleep)


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
