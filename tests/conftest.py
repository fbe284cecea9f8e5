import json
import math
import random
import re
from pathlib import Path

import pytest

from tarjama.corpus import Conversation, Message, TranslationUnit, unit_to_dict
from tarjama.tokenizers import TokenizerSpec

ARABIC_WORDS = ["مرحبا", "بالعالم", "كتاب", "جميل", "ترجمة", "نص", "سؤال",
                "جواب", "فكرة", "مثال"]
LATIN_WORDS = ["alpha", "beta", "gamma", "delta", "text", "sample", "chunk",
               "token", "queue", "rank"]

# The sample configuration that README.md documents.
README_INI = re.search(
    r"```ini\n(.*?)```",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8"),
    re.DOTALL).group(1)


def make_conversation(conv_id: str, split: str = "dev",
                      contents: list[tuple[str, str]] = None,
                      category: str = None) -> Conversation:
    contents = contents or [("user", "hello"), ("assistant", "world")]
    messages = [Message(role=role, content=text, index=i)
                for i, (role, text) in enumerate(contents)]
    return Conversation(id=conv_id, split=split, messages=messages,
                        category=category)


def random_text(rng: random.Random, words: list[str], n_words: int,
                sentence_prob: float = 0.2) -> str:
    out = []
    for _ in range(n_words):
        out.append(rng.choice(words))
        if rng.random() < sentence_prob:
            out[-1] += rng.choice(".!?")
    return " ".join(out)


def random_corpus(rng: random.Random, n: int, think_prob: float = 0.3,
                  max_words: int = 30) -> list[Conversation]:
    conversations = []
    for i in range(n):
        contents = [("user", random_text(rng, LATIN_WORDS, rng.randint(1, max_words)))]
        reply = random_text(rng, ARABIC_WORDS, rng.randint(1, max_words))
        if rng.random() < think_prob:
            thought = random_text(rng, LATIN_WORDS, rng.randint(1, max_words))
            reply = f"<think>{thought}</think>{reply}"
        contents.append(("assistant", reply))
        if rng.random() < 0.2:
            contents.insert(0, ("system", "Be helpful."))
        conversations.append(make_conversation(
            f"conv-{i:05d}", split=rng.choice(["train", "dev"]), contents=contents))
    return conversations


def single_chunk(text: str) -> list[str]:
    """One chunk per part."""
    return [text]


def identity_translate(unit: TranslationUnit, translator_id: str = "identity") -> dict:
    """The translated unit record of *unit* under the identity translation."""
    return dict(unit_to_dict(unit), translated_text=unit.source_text,
                translator_id=translator_id)


def bt_prob(s_i: float, s_j: float) -> float:
    """P(i beats j) under Bradley-Terry, computed overflow-safely."""
    diff = s_j - s_i
    if diff >= 0:
        z = math.exp(-diff)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(diff))


def corpus_jsonl(conversations) -> str:
    from tarjama.corpus import conversation_to_dict
    return "".join(json.dumps(conversation_to_dict(c), ensure_ascii=False) + "\n"
                   for c in conversations)


@pytest.fixture(scope="module")
def bpe_spec(tmp_path_factory):
    """A tiny external BPE tokenizer: "ab" and "نص" merge into one token."""
    definition = {"vocab": {"a": 0, "b": 1, "ab": 2, "نص": 3},
                  "merges": [["a", "b"], ["ن", "ص"]]}
    path = tmp_path_factory.mktemp("vocab") / "tiny.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    return TokenizerSpec.external(str(path))


@pytest.fixture
def rng():
    return random.Random(20240817)
