import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tarjama.chunking import (_SENTENCE_RE, _WHITESPACE_RE, BOUNDARY_END,
                              BOUNDARY_HARD, BOUNDARY_SENTENCE,
                              BOUNDARY_WHITESPACE, Chunk, ChunkPolicy,
                              _cut_offsets, plan_chunks)
from tarjama.tokenizers import TokenizerSpec, tokenize

BUILTIN = TokenizerSpec.builtin()
SENT = ".?!؟۔"


def reference_plan(text, spec, policy):
    """Brute-force re-implementation: per cut, enumerate every offset in
    the window and test it directly against the tier definitions."""
    ends = tokenize(text, spec)
    spans = list(zip([0] + ends, ends))
    n = len(spans)
    if n == 0:
        return [Chunk("", 0, BOUNDARY_END)]
    out = []
    cur = 0
    while n - cur > policy.hard_cap_tokens:
        t_star = cur + policy.target_tokens
        lo = cur + policy.target_tokens - policy.window_tokens
        hi = cur + min(policy.target_tokens + policy.window_tokens,
                       policy.hard_cap_tokens)
        cut = kind = None
        for tier, test in ((BOUNDARY_SENTENCE,
                            lambda tok: any(c in SENT for c in tok) or "\n\n" in tok),
                           (BOUNDARY_WHITESPACE,
                            lambda tok: any(c.isspace() for c in tok))):
            best = None
            for c in range(lo, hi + 1):
                if c <= cur or c > n:
                    continue
                tok = text[spans[c - 1][0]:spans[c - 1][1]]
                if test(tok) and (best is None or
                                  abs(c - t_star) < abs(best - t_star)):
                    best = c
            if best is not None:
                cut, kind = best, tier
                break
        if cut is None:
            cut, kind = t_star, BOUNDARY_HARD
        out.append(Chunk(text[spans[cur][0]:spans[cut - 1][1]], cut - cur, kind))
        cur = cut
    out.append(Chunk(text[spans[cur][0]:spans[n - 1][1]], n - cur, BOUNDARY_END))
    return out


def reference_candidate_offsets(text, ends):
    """Per token: cut offset after each token holding a sentence char or a
    paragraph break, and after each token holding any whitespace."""
    sentence, whitespace = [], []
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        tok = text[start:end]
        if any(ch in SENT for ch in tok) or "\n\n" in tok:
            sentence.append(i + 1)
        if any(ch.isspace() for ch in tok):
            whitespace.append(i + 1)
    return sentence, whitespace


@pytest.fixture(scope="module")
def bpe_spec(tmp_path_factory):
    definition = {"vocab": {"a": 0, "b": 1, "ab": 2, "نص": 3},
                  "merges": [["a", "b"], ["ن", "ص"]]}
    path = tmp_path_factory.mktemp("vocab") / "tiny.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    return TokenizerSpec.external(str(path))


CHUNK_CHARS = list("ab نص.?!؟۔\n\n\t#_٣") + ["\u00a0", "\u2028", "\u3000",
                                                 "\u1680", "\x85", "\u200b"]


@given(st.text(alphabet=st.sampled_from(CHUNK_CHARS) | st.characters(
    blacklist_categories=("Cs",)), max_size=300))
@settings(max_examples=300)
def test_cut_offsets_match_reference(bpe_spec, text):
    for spec in (BUILTIN, bpe_spec):
        ends = tokenize(text, spec)
        assert (_cut_offsets(_SENTENCE_RE, text, ends),
                _cut_offsets(_WHITESPACE_RE, text, ends)) == \
            reference_candidate_offsets(text, ends)


def synthetic_text(rng: random.Random, approx_tokens: int) -> str:
    """Random word/punctuation soup with planted sentence boundaries."""
    pieces = []
    budget = approx_tokens
    while budget > 0:
        roll = rng.random()
        if roll < 0.55:
            pieces.append(rng.choice(["ab", "xyz", "نص", "q7", "لم", "data"]))
            budget -= 1
        elif roll < 0.75:
            pieces.append(rng.choice([" ", "  ", "\n", "\t"]))
            budget -= 1
        elif roll < 0.85:
            pieces.append(rng.choice(list(SENT)))
            budget -= 1
        elif roll < 0.92:
            pieces.append("\n\n")
            budget -= 1
        else:
            pieces.append(rng.choice(["#", "-", "", "؛"]))
            budget -= 1
    return "".join(pieces)


def test_under_budget_single_chunk():
    text = " ".join(["word"] * 50)  # 99 tokens, far under target
    chunks = plan_chunks(text, BUILTIN, ChunkPolicy())
    assert len(chunks) == 1
    assert chunks[0].boundary_kind == BOUNDARY_END
    assert chunks[0].text == text


def test_sentence_boundary_minimizes_distance_to_target():
    # Sentence-final cut offsets at 455 and 480; 480 is closer to 490.
    text = "#" * 454 + "." + "#" * 24 + "." + "#" * 500
    chunks = plan_chunks(text, BUILTIN, ChunkPolicy(490, 50, 506))
    assert [c.token_count for c in chunks] == [480, 500]
    assert [c.boundary_kind for c in chunks] == [BOUNDARY_SENTENCE, BOUNDARY_END]
    assert "".join(c.text for c in chunks) == text


def test_tie_breaks_toward_smaller_offset():
    # Candidates at 480 and 500 are both 10 tokens from the 490 target.
    text = "#" * 479 + "." + "#" * 19 + "." + "#" * 600
    chunks = plan_chunks(text, BUILTIN, ChunkPolicy(490, 50, 506))
    assert chunks[0].token_count == 480


def test_unbreakable_text_hard_splits_at_target():
    text = "#" * 1000  # single "other" codepoints: no whitespace, no sentences
    chunks = plan_chunks(text, BUILTIN, ChunkPolicy(490, 50, 506))
    assert [c.token_count for c in chunks] == [490, 490, 20]
    assert [c.boundary_kind for c in chunks] == [BOUNDARY_HARD, BOUNDARY_HARD,
                                                 BOUNDARY_END]


def test_paragraph_break_is_tier_one():
    # 600 '#' tokens with a "\n\n" token at cut offset 9 (policy target 8).
    text = "#" * 8 + "\n\n" + "#" * 600
    policy = ChunkPolicy(target_tokens=8, window_tokens=3, hard_cap_tokens=10)
    chunks = plan_chunks(text, BUILTIN, policy)
    assert chunks[0].boundary_kind == BOUNDARY_SENTENCE
    assert chunks[0].text == "#" * 8 + "\n\n"


def test_whitespace_is_tier_two():
    text = "#" * 7 + " " + "#" * 600
    policy = ChunkPolicy(target_tokens=8, window_tokens=3, hard_cap_tokens=10)
    chunks = plan_chunks(text, BUILTIN, policy)
    assert chunks[0].boundary_kind == BOUNDARY_WHITESPACE
    assert chunks[0].token_count == 8


def test_empty_text_single_empty_chunk():
    chunks = plan_chunks("", BUILTIN, ChunkPolicy())
    assert chunks == [Chunk("", 0, BOUNDARY_END)]


def test_oracle_equivalence_on_random_texts(rng):
    policies = [ChunkPolicy(490, 50, 506),
                ChunkPolicy(37, 9, 41),
                ChunkPolicy(12, 4, 13)]
    for i in range(40):
        text = synthetic_text(rng, rng.randint(50, 1200))
        policy = policies[i % len(policies)]
        assert plan_chunks(text, BUILTIN, policy) == reference_plan(text, BUILTIN, policy)


@given(st.text(max_size=400))
@settings(max_examples=200)
def test_concatenation_identity_and_budget(text):
    policy = ChunkPolicy(target_tokens=8, window_tokens=3, hard_cap_tokens=9)
    chunks = plan_chunks(text, BUILTIN, policy)
    assert "".join(c.text for c in chunks) == text
    assert all(c.token_count <= policy.hard_cap_tokens for c in chunks)
    if text:
        assert all(c.token_count >= 1 for c in chunks)


def test_policy_validation():
    with pytest.raises(ValueError):
        ChunkPolicy(target_tokens=0)
    with pytest.raises(ValueError):
        ChunkPolicy(target_tokens=100, window_tokens=100, hard_cap_tokens=120)
    with pytest.raises(ValueError):
        ChunkPolicy(target_tokens=100, window_tokens=10, hard_cap_tokens=90)


def test_window_never_exceeds_hard_cap():
    # Sentence boundary just past the cap must be ignored.
    text = "#" * 509 + "." + "#" * 600
    chunks = plan_chunks(text, BUILTIN, ChunkPolicy(490, 50, 506))
    assert chunks[0].boundary_kind == BOUNDARY_HARD
    assert chunks[0].token_count == 490
