"""Token-budgeted text chunking that prefers sentence boundaries.

The planner walks the token stream left to right.  While more than
``hard_cap_tokens`` remain, it aims a cut at ``target_tokens`` and looks
for boundary candidates whose relative token offset falls inside
``[target - window, min(target + window, hard_cap)]``:

* tier 1: offsets just after sentence punctuation (``. ? ! ؟ ۔``) or a
  paragraph break (``\\n\\n``),
* tier 2: offsets just after any whitespace,
* tier 3: a hard cut exactly at the target.

Within a tier the candidate closest to the target wins; ties go to the
smaller offset.  Candidates are searched per cut, in the characters of
that cut's window only, and the whitespace tier only when the sentence
tier has none.  Whatever remains once the tail fits under the hard cap
is emitted as a single final chunk; a part of at most ``hard_cap_tokens``
characters is only counted, since every token covers at least one code
point.  Chunk texts always concatenate back to the input exactly.
"""

from __future__ import annotations

import bisect
import re
from typing import Callable, NamedTuple

from .tokenizers import TokenizerSpec, count_tokens, tokenize

_SENTENCE_RE = re.compile(r"[.?!؟۔]|\n\n")
_WHITESPACE_RE = re.compile(r"\s+")

BOUNDARY_SENTENCE = "sentence"
BOUNDARY_WHITESPACE = "whitespace"
BOUNDARY_HARD = "hard"
BOUNDARY_END = "end-of-text"


class ChunkPolicy:
    __slots__ = ("target_tokens", "window_tokens", "hard_cap_tokens")

    def __init__(self, target_tokens: int = 490, window_tokens: int = 50,
                 hard_cap_tokens: int = 506) -> None:
        # The default hard cap is 512 minus a small prompt reserve.
        if target_tokens <= 0:
            raise ValueError("target_tokens must be positive")
        if hard_cap_tokens < target_tokens:
            raise ValueError("target_tokens must not exceed hard_cap_tokens")
        if not 0 <= window_tokens < target_tokens:
            raise ValueError("window_tokens must be in [0, target_tokens)")
        self.target_tokens = target_tokens
        self.window_tokens = window_tokens
        self.hard_cap_tokens = hard_cap_tokens


class Chunk(NamedTuple):
    text: str
    token_count: int
    boundary_kind: str


def _best_in_window(pattern: re.Pattern, text: str, ends: list[int],
                    start: int, end: int, t_star: int) -> int | None:
    """Cut offset closest to t_star (ties toward smaller) just after a
    token that holds the start of a *pattern* match in text[start:end]."""
    return min((bisect.bisect_right(ends, m.start()) + 1
                for m in pattern.finditer(text, start, end)),
               key=lambda c: (abs(c - t_star), c), default=None)


def fits_one_chunk(text: str, policy: ChunkPolicy) -> bool:
    """True when *text* is short enough to be one chunk whatever the
    tokenizer: a token covers at least one code point."""
    return len(text) <= policy.hard_cap_tokens


def chunker(spec: TokenizerSpec, policy: ChunkPolicy) -> Callable[[str], list[str]]:
    """The function from a part's text to its chunk texts under *policy*:
    a part that fits one chunk is its own chunk, without a token count."""
    def chunk_texts(text: str) -> list[str]:
        if fits_one_chunk(text, policy):
            return [text]
        return [c.text for c in plan_chunks(text, spec, policy)]
    return chunk_texts


def plan_chunks(text: str, spec: TokenizerSpec, policy: ChunkPolicy) -> list[Chunk]:
    # Empty parts still get one (empty) chunk so decomposition and
    # reconstruction stay total.
    if fits_one_chunk(text, policy):
        return [Chunk(text=text, token_count=count_tokens(text, spec),
                      boundary_kind=BOUNDARY_END)]
    ends = tokenize(text, spec)
    n = len(ends)
    chunks: list[Chunk] = []
    cur = pos = 0
    while n - cur > policy.hard_cap_tokens:
        t_star = cur + policy.target_tokens
        lo = t_star - policy.window_tokens
        hi = cur + min(policy.target_tokens + policy.window_tokens,
                       policy.hard_cap_tokens)
        # Characters of tokens lo-1 .. hi-1: a match starting there gives
        # a cut offset in [lo, hi].  Whitespace runs and "\n\n" never
        # cross a token boundary, so the window cuts no match short.
        start = ends[lo - 2] if lo > 1 else 0
        for kind, pattern in ((BOUNDARY_SENTENCE, _SENTENCE_RE),
                              (BOUNDARY_WHITESPACE, _WHITESPACE_RE)):
            cut = _best_in_window(pattern, text, ends, start, ends[hi - 1], t_star)
            if cut is not None:
                break
        else:
            cut, kind = t_star, BOUNDARY_HARD
        end = ends[cut - 1]
        chunks.append(Chunk(text=text[pos:end], token_count=cut - cur,
                            boundary_kind=kind))
        cur, pos = cut, end
    chunks.append(Chunk(text=text[pos:], token_count=n - cur,
                        boundary_kind=BOUNDARY_END))
    return chunks
