"""Seeded workload generator for the benchmark.

Every workload is a pure function of ``(workload, seed)``: the shape
(conversation count, words per message, segment layout) is fixed per
workload so that the amount of work barely moves between seeds, and the
seed only picks the content.  The text is built to reach every branch the
pipeline has for it:

* chunk tiers -- sentence-punctuated runs, long unpunctuated runs (the
  window holds only whitespace candidates) and long space-free runs
  (the window holds no candidate at all, forcing a hard cut);
* script purity -- Arabic letters and Arabic-Indic digits, Arabic-script
  marks, Script=Inherited harakat after Arabic and Latin bases and at the
  very start of a conversation, marks of other scripts, other letters
  (Latin, Greek, CJK), other numbers, ASCII digits and punctuation;
* whitelist stripping -- URLs, ``www.`` hosts, emails, inline code,
  closed and unterminated code fences, ``$..$``, ``$$..$$``, ``\\(..\\)``
  and ``\\[..\\]`` math.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

ARABIC = ["مرحبا", "بالعالم", "كتاب", "جميل", "ترجمة", "نص", "سؤال", "جواب",
          "فكرة", "مثال", "علم", "رياضيات", "برنامج", "بيانات", "نموذج", "دالة"]
# Harakat (U+064B..U+0652, Script=Inherited) and an Arabic-script Quranic
# mark (U+0610) on Arabic bases.
ARABIC_MARKED = ["كَتَبَ", "عِلْمٌ", "مُحَمَّدٌ", "السَّلَامُ", "قُرْآنٌ", "صؐلاة", "مَدْرَسَةٌ"]
LATIN = ["explain", "the", "result", "compute", "value", "function", "data",
         "model", "prove", "lemma", "sort", "array", "graph", "cache", "queue",
         "token", "vector", "matrix", "proof", "step"]
# Other letters, other numbers, foreign marks and inherited marks on Latin.
OTHER = ["λ", "λόγος", "Ⅻ", "x²", "क़", "café", "٣٤٥", "2025", "42", "#", "%", "(ok)"]
SPECIALS = ["https://example.org/docs/{n}", "www.example.com/p{n}", "user{n}@example.com",
            "`x = {n}`", "$a_{n}^2$", "$$\\sum_i x_{n}$$", "\\(a+{n}\\)", "\\[E={n}\\]"]
FENCE = "```python\nvalue = {n}\nprint(value)\n```"
OPEN_FENCE = "```\ntrailing code {n} without a closing fence"
SPLITS = ["everyday_convs", "reasoning_think", "toolcalls_no_think"]
CATEGORIES = ["code", "science", "math"]
SYSTEM = "You are a careful assistant."
CJK = "中文"  # a CJK ideograph run, added to a fixed share of conversations

_LATIN_WORD = re.compile(r"[A-Za-z]+")


def _word(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.45:
        return rng.choice(LATIN)
    if r < 0.75:
        return rng.choice(ARABIC)
    if r < 0.88:
        return rng.choice(ARABIC_MARKED)
    if r < 0.96:
        return rng.choice(OTHER)
    return rng.choice(SPECIALS).format(n=rng.randrange(1000))


def sentences(rng: random.Random, n_words: int) -> str:
    """Words with sentence punctuation every few words."""
    out = []
    for _ in range(n_words):
        out.append(_word(rng))
        if rng.random() < 0.12:
            out[-1] += rng.choice([".", "?", "!", "؟", "۔"])
    return " ".join(out)


def unpunctuated(rng: random.Random, n_words: int) -> str:
    """A run with whitespace but no sentence character or paragraph break."""
    vocab = LATIN + ARABIC + ARABIC_MARKED
    return " ".join(rng.choice(vocab) for _ in range(n_words))


def space_free(rng: random.Random, n_pieces: int) -> str:
    """A run without whitespace or sentence characters (identifiers, paths)."""
    vocab = LATIN + ARABIC + [str(d) for d in range(10)]
    return "".join(rng.choice(vocab) + rng.choice("-_/") for _ in range(n_pieces))


def _cycle(i: int, lo: int, hi: int, step: int) -> int:
    """A word count in [lo, hi] that follows the index, not the seed."""
    return lo + (i * step) % (hi - lo + 1)


def _conversation(cid: str, rng: random.Random, contents: list[tuple[str, str]]) -> dict:
    return {
        "id": cid,
        "split": rng.choice(SPLITS),
        "messages": [{"role": r, "content": c} for r, c in contents],
        "category": rng.choices(CATEGORIES, weights=[1, 1, 2])[0],
    }


def many_short(rng: random.Random, n: int) -> list[dict]:
    """Chat-like conversations whose messages hold at most 12 words."""
    corpus = []
    for i in range(n):
        # The layout follows the index, so every seed yields the same number
        # of parts, units and queue tasks.
        contents = []
        if i % 10 < 3:
            contents.append(("system", SYSTEM))
        for turn in range(i % 3 + 1):
            contents.append(("user", sentences(rng, _cycle(i + turn, 3, 12, 7))))
            reply = sentences(rng, _cycle(i + turn, 3, 12, 3))
            if (i + turn) % 3 == 0:
                reply = f"<think>{sentences(rng, _cycle(i, 3, 12, 1))}</think>{reply}"
            contents.append(("assistant", reply))
        if i % 10 == 0:
            contents[-1] = ("assistant", f"{contents[-1][1]} {CJK}")
        corpus.append(_conversation(f"short-{i:06d}", rng, contents))
    return corpus


def _long_think(rng: random.Random) -> str:
    """About 2,300 words of reasoning with one run of each chunk tier's kind."""
    n = rng.randrange(1000)
    return "\n\n".join([
        sentences(rng, 700),
        unpunctuated(rng, 320),
        sentences(rng, 400),
        space_free(rng, 330),
        FENCE.format(n=n),
        sentences(rng, 500),
        unpunctuated(rng, 280),
        sentences(rng, 150) + f" {CJK}",
    ])


def long_think(rng: random.Random, n: int) -> list[dict]:
    """Few conversations with thousands of words in <think> and the reply."""
    corpus = []
    for i in range(n):
        user = sentences(rng, 120)
        if i % 10 == 0:
            # An inherited mark with no base before it (ignored by SCR).
            user = "́" + user
        reply = "\n\n".join([sentences(rng, 500), unpunctuated(rng, 260),
                             OPEN_FENCE.format(n=i)])
        contents = [("user", user),
                    ("assistant", f"<think>{_long_think(rng)}</think>{reply}")]
        corpus.append(_conversation(f"long-{i:05d}", rng, contents))
    return corpus


def staged(rng: random.Random, n: int) -> list[dict]:
    """Medium conversations whose every part fits one chunk."""
    corpus = []
    for i in range(n):
        contents = []
        if i % 4 == 0:
            contents.append(("system", SYSTEM))
        for turn in range(2):
            contents.append(("user", sentences(rng, _cycle(i + turn, 10, 60, 7))))
            reply = sentences(rng, _cycle(i + turn, 20, 90, 11))
            if i % 2 == 0:
                reply = f"<think>{sentences(rng, _cycle(i, 40, 120, 3))}</think>{reply}"
            contents.append(("assistant", reply))
        if i % 10 == 0:
            contents[-1] = ("assistant", f"{contents[-1][1]} {CJK}")
        corpus.append(_conversation(f"staged-{i:05d}", rng, contents))
    return corpus


def _translator(rng: random.Random, keep_latin: float, drop: float,
                cjk: float):
    """A deterministic part-text translation of a given quality."""
    mapping = {w: rng.choice(ARABIC) for w in LATIN}

    def translate(text: str) -> str:
        prng = random.Random(text)  # same part text, same translation
        words = []
        for word in text.split(" "):
            if words and prng.random() < drop:
                continue
            if prng.random() >= keep_latin:
                word = _LATIN_WORD.sub(lambda m: mapping.get(m.group(0).lower(),
                                                             ARABIC[0]), word)
            words.append(word)
        out = " ".join(words)
        if text and prng.random() < cjk:
            out += f" {CJK}"
        return out or text
    return translate


TABLES = {
    # translator id -> (share of Latin words kept, share of words dropped,
    #                   share of parts that gain a CJK word)
    "table-good": (0.05, 0.0, 0.0),
    "table-rough": (0.5, 0.2, 0.08),
}


def split_parts(content: str) -> list[tuple[str, str]]:
    """(kind, text) parts of a message, as the pipeline splits them.

    Mirrors the corpus module for the well-formed content this generator
    writes, so that the benchmark can build part-keyed tables and expected
    outputs without importing the program under test."""
    parts = []
    pos = 0
    while True:
        start = content.find("<think>", pos)
        if start == -1:
            break
        if start > pos:
            parts.append(("visible", content[pos:start]))
        end = content.index("</think>", start)
        parts.append(("think", content[start + len("<think>"):end]))
        pos = end + len("</think>")
    if pos < len(content):
        parts.append(("visible", content[pos:]))
    return parts or [("visible", "")]


def translate_conversation(conv: dict, translate) -> dict:
    messages = []
    for msg in conv["messages"]:
        content = "".join(f"<think>{translate(t)}</think>" if kind == "think"
                          else translate(t)
                          for kind, t in split_parts(msg["content"]))
        messages.append({"role": msg["role"], "content": content})
    return dict(conv, messages=messages)


def write_jsonl(rows, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def source_chars(corpus: list[dict]) -> int:
    return sum(len(m["content"]) for conv in corpus for m in conv["messages"])


def build_tables(corpus: list[dict], seed: int) -> dict[str, dict[str, str]]:
    """One part-keyed mock-table per translator id in TABLES."""
    tables = {}
    for offset, (tid, quality) in enumerate(sorted(TABLES.items())):
        translate = _translator(random.Random(seed * 1000 + offset), *quality)
        table = {}
        for conv in corpus:
            for msg in conv["messages"]:
                for _, text in split_parts(msg["content"]):
                    table[text] = translate(text)
        tables[tid] = table
    return tables


# workload -> (generator, conversations), sized so that one iteration of the
# workload takes seconds and the many-short queue holds over 1,000 tasks.
WORKLOADS = {"many-short": (many_short, 1800), "long-think": (long_think, 30),
             "ensemble-staged": (staged, 200)}


def generate(workload: str, seed: int) -> list[dict]:
    build, size = WORKLOADS[workload]
    return build(random.Random(f"{workload}:{seed}"), size)
