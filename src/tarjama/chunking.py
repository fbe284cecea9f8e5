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
smaller offset.  Whatever remains once the tail fits under the hard cap
is emitted as a single final chunk.  Chunk texts always concatenate back
to the input exactly.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass

from .tokenizers import TokenizerSpec, tokenize

_SENTENCE_RE = re.compile(r"[.?!؟۔]|\n\n")
_WHITESPACE_RE = re.compile(r"\s+")

BOUNDARY_SENTENCE = "sentence"
BOUNDARY_WHITESPACE = "whitespace"
BOUNDARY_HARD = "hard"
BOUNDARY_END = "end-of-text"


@dataclass(frozen=True)
class ChunkPolicy:
    target_tokens: int = 490
    window_tokens: int = 50
    hard_cap_tokens: int = 506  # 512 minus a small prompt reserve

    def __post_init__(self) -> None:
        if self.target_tokens <= 0:
            raise ValueError("target_tokens must be positive")
        if self.hard_cap_tokens < self.target_tokens:
            raise ValueError("target_tokens must not exceed hard_cap_tokens")
        if not 0 <= self.window_tokens < self.target_tokens:
            raise ValueError("window_tokens must be in [0, target_tokens)")


@dataclass(frozen=True)
class Chunk:
    text: str
    token_count: int
    boundary_kind: str


def _cut_offsets(pattern: re.Pattern, text: str, ends: list[int]) -> list[int]:
    """Ascending, distinct cut offsets just after each token that holds the
    start of a *pattern* match."""
    return list(dict.fromkeys(bisect.bisect_right(ends, m.start()) + 1
                              for m in pattern.finditer(text)))


def _best_in_window(cands: list[int], lo: int, hi: int, t_star: int) -> int | None:
    """Closest candidate to t_star within [lo, hi]; ties toward smaller."""
    left = bisect.bisect_left(cands, lo)
    right = bisect.bisect_right(cands, hi)
    best = None
    for c in cands[left:right]:
        if best is None or abs(c - t_star) < abs(best - t_star):
            best = c
    return best


def plan_chunks(text: str, spec: TokenizerSpec, policy: ChunkPolicy) -> list[Chunk]:
    ends = tokenize(text, spec)
    n = len(ends)
    if n == 0:
        # Empty parts still need one (empty) chunk so decomposition and
        # reconstruction stay total.
        return [Chunk(text="", token_count=0, boundary_kind=BOUNDARY_END)]
    if n <= policy.hard_cap_tokens:
        return [Chunk(text=text, token_count=n, boundary_kind=BOUNDARY_END)]

    sentence = _cut_offsets(_SENTENCE_RE, text, ends)
    whitespace = _cut_offsets(_WHITESPACE_RE, text, ends)
    chunks: list[Chunk] = []
    cur = pos = 0
    while n - cur > policy.hard_cap_tokens:
        t_star = cur + policy.target_tokens
        lo = cur + policy.target_tokens - policy.window_tokens
        hi = cur + min(policy.target_tokens + policy.window_tokens,
                       policy.hard_cap_tokens)
        cut = _best_in_window(sentence, lo, hi, t_star)
        kind = BOUNDARY_SENTENCE
        if cut is None:
            cut = _best_in_window(whitespace, lo, hi, t_star)
            kind = BOUNDARY_WHITESPACE
        if cut is None:
            cut = t_star
            kind = BOUNDARY_HARD
        end = ends[cut - 1]
        chunks.append(Chunk(text=text[pos:end], token_count=cut - cur,
                            boundary_kind=kind))
        cur, pos = cut, end
    chunks.append(Chunk(text=text[pos:], token_count=n - cur,
                        boundary_kind=BOUNDARY_END))
    return chunks
