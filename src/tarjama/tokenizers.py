"""Tokenizer abstraction for chunk budgeting and statistics.

Two kinds are supported:

* ``builtin-regex`` -- a frozen, dependency-free rule: each maximal run of
  Unicode whitespace is one token, each maximal run of letters/digits is
  one token, and every other codepoint is a single token.  Whitespace runs
  count toward token totals; "a b" is 3 tokens.
* ``external-vocab`` -- a subword tokenizer loaded from a tokenizer
  definition JSON file (vocab + BPE merges).  Encoding is deterministic
  and offset-preserving; exact agreement with the originating model's
  tokenizer is not guaranteed.

Both kinds return the exclusive end offset of each token, in order.
Tokens tile the input exactly, so token ``i`` spans
``text[ends[i - 1]:ends[i]]`` (from 0 for the first) and the last end is
``len(text)``.  Offsets are Unicode code-point indices into the text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


class ConfigurationError(Exception):
    """Tokenizer definition file is missing, unreadable, or malformed."""


# Order matters: whitespace runs, then alphanumeric runs (underscore is
# excluded, so it tokenizes as a single "other" codepoint), then any
# single remaining codepoint.
_TOKEN_RE = re.compile(r"\s+|[^\W_]+|.", re.DOTALL)

TOKENIZER_KINDS = ("builtin-regex", "external-vocab")


@dataclass(frozen=True)
class TokenizerSpec:
    name: str
    kind: str
    vocab_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in TOKENIZER_KINDS:
            raise ConfigurationError(f"unknown tokenizer kind: {self.kind!r}")
        if self.kind == "external-vocab" and not self.vocab_path:
            raise ConfigurationError("external-vocab tokenizer requires vocab_path")

    @classmethod
    def builtin(cls, name: str = "builtin-ws") -> "TokenizerSpec":
        return cls(name=name, kind="builtin-regex")

    @classmethod
    def external(cls, vocab_path: str, name: Optional[str] = None) -> "TokenizerSpec":
        return cls(name=name or Path(vocab_path).stem, kind="external-vocab",
                   vocab_path=vocab_path)


class _BpeEncoder:
    """Greedy BPE over pre-tokenized segments.

    Loads vocab/merges from either a HuggingFace-style tokenizer.json
    (``{"model": {"vocab": ..., "merges": ...}}``) or a flat
    ``{"vocab": ..., "merges": ...}`` object.  Whitespace runs stay
    single tokens; merges apply within non-whitespace segments only.
    Symbols absent from the vocab are kept as single characters, which
    keeps encoding total and offset-preserving.
    """

    def __init__(self, vocab_path: str):
        try:
            raw = json.loads(Path(vocab_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read vocab file {vocab_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON in vocab file {vocab_path}: {exc}") from exc
        model = raw.get("model", raw)
        if not isinstance(model, dict) or "vocab" not in model:
            raise ConfigurationError(f"vocab file {vocab_path} has no 'vocab' entry")
        merges = model.get("merges", [])
        self.ranks: dict[tuple[str, str], int] = {}
        for i, merge in enumerate(merges):
            if isinstance(merge, str):
                left, _, right = merge.partition(" ")
            else:
                left, right = merge
            self.ranks[(left, right)] = i

    def encode_segment(self, segment: str) -> list[int]:
        """Return the lengths of the BPE symbols covering *segment*."""
        symbols = list(segment)
        if not self.ranks:
            return [1] * len(symbols)
        while len(symbols) > 1:
            best = None
            best_rank = None
            for i in range(len(symbols) - 1):
                rank = self.ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best, best_rank = i, rank
            if best is None:
                break
            symbols[best:best + 2] = [symbols[best] + symbols[best + 1]]
        return [len(s) for s in symbols]


_ENCODER_CACHE: dict[str, _BpeEncoder] = {}


def _encoder_for(spec: TokenizerSpec) -> _BpeEncoder:
    assert spec.vocab_path is not None
    enc = _ENCODER_CACHE.get(spec.vocab_path)
    if enc is None:
        enc = _BpeEncoder(spec.vocab_path)
        _ENCODER_CACHE[spec.vocab_path] = enc
    return enc


def tokenize(text: str, spec: TokenizerSpec) -> list[int]:
    """End offsets of the tokens of *text*, ascending."""
    if spec.kind == "builtin-regex":
        return [m.end() for m in _TOKEN_RE.finditer(text)]
    encoder = _encoder_for(spec)
    ends: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        segment = m.group()
        if segment.isspace():
            ends.append(m.end())
            continue
        pos = m.start()
        for length in encoder.encode_segment(segment):
            pos += length
            ends.append(pos)
    return ends


def count_tokens(text: str, spec: TokenizerSpec) -> int:
    if spec.kind == "builtin-regex":
        return len(_TOKEN_RE.findall(text))
    return len(tokenize(text, spec))
