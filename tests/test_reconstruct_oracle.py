"""``corpus.reconstruct`` against the per-part reference it replaced.

``reconstruct_reference`` is the earlier implementation: it files units
into per-part dicts, checks each part, then scans every part once per
message.  The randomized test feeds both functions complete, shuffled,
missing-chunk, duplicate, conflicting, misplaced and mixed-conversation
unit sets; they must return equal conversations or raise the same
exception type with the same message."""

import random
from typing import Optional, Sequence

import pytest

from tarjama.chunking import ChunkPolicy, chunker
from tarjama.corpus import (Conversation, CorpusError, IncompleteUnitSetError,
                            Message, Part, UnitConsistencyError, decompose,
                            join_parts, reconstruct)
from tarjama.tokenizers import TokenizerSpec

from conftest import (ARABIC_WORDS, LATIN_WORDS, identity_translate, make_conversation,
                      random_text)


def reconstruct_reference(units: Sequence[dict], split: str = "",
                          category: Optional[str] = None) -> Conversation:
    if not units:
        raise IncompleteUnitSetError([("<no units>",)])
    conv_ids = {u["conversation_id"] for u in units}
    if len(conv_ids) > 1:
        raise UnitConsistencyError(f"units span multiple conversations: {sorted(conv_ids)}")
    conv_id = units[0]["conversation_id"]

    by_part: dict[tuple[int, int], dict[int, dict]] = {}
    for unit in units:
        chunks = by_part.setdefault((unit["message_index"], unit["part_index"]), {})
        if unit["chunk_index"] in chunks:
            key = tuple(unit[name] for name in ("conversation_id", "message_index",
                                                "part_index", "chunk_index"))
            raise UnitConsistencyError(f"duplicate chunk {key} in conversation {conv_id!r}")
        chunks[unit["chunk_index"]] = unit

    missing: list[tuple] = []
    parts: dict[tuple[int, int], tuple[str, str, str]] = {}
    for (msg_idx, part_idx), chunks in sorted(by_part.items()):
        some = next(iter(chunks.values()))
        counts = {u["chunk_count"] for u in chunks.values()}
        if len(counts) > 1:
            raise UnitConsistencyError(
                f"conflicting chunk_count for part ({msg_idx}, {part_idx}): {sorted(counts)}")
        if {u["part_type"] for u in chunks.values()} != {some["part_type"]}:
            raise UnitConsistencyError(
                f"conflicting part_type for part ({msg_idx}, {part_idx})")
        if {u["role"] for u in chunks.values()} != {some["role"]}:
            raise UnitConsistencyError(f"conflicting role in message {msg_idx}")
        count = counts.pop()
        absent = [i for i in range(count) if i not in chunks]
        if absent:
            missing.extend((msg_idx, part_idx, i) for i in absent)
            continue
        text = "".join(chunks[i]["translated_text"] for i in range(count))
        parts[(msg_idx, part_idx)] = (some["part_type"], text, some["role"])
    if missing:
        raise IncompleteUnitSetError(missing)

    message_indices = sorted({m for m, _ in parts})
    if message_indices != list(range(len(message_indices))):
        absent_msgs = sorted(set(range(max(message_indices) + 1)) - set(message_indices))
        raise IncompleteUnitSetError([(m, "*", "*") for m in absent_msgs])

    messages: list[Message] = []
    for msg_idx in message_indices:
        part_indices = sorted(p for m, p in parts if m == msg_idx)
        if part_indices != list(range(len(part_indices))):
            absent_parts = sorted(set(range(max(part_indices) + 1)) - set(part_indices))
            raise IncompleteUnitSetError([(msg_idx, p, "*") for p in absent_parts])
        roles = {parts[(msg_idx, p)][2] for p in part_indices}
        if len(roles) > 1:
            raise UnitConsistencyError(f"conflicting role in message {msg_idx}")
        content = join_parts([
            Part(parts[(msg_idx, p)][0], parts[(msg_idx, p)][1]) for p in part_indices
        ])
        messages.append(Message(role=roles.pop(), content=content, index=msg_idx))
    return Conversation(id=conv_id, split=split, messages=messages,
                        category=category)


_POLICY = ChunkPolicy(target_tokens=6, window_tokens=2, hard_cap_tokens=7)


def _random_units(rng: random.Random) -> list[dict]:
    contents = []
    for _ in range(rng.randint(1, 5)):
        role = rng.choice(["system", "user", "assistant", "tool"])
        body = random_text(rng, rng.choice([LATIN_WORDS, ARABIC_WORDS]), rng.randint(0, 12))
        if rng.random() < 0.4:
            body = f"<think>{random_text(rng, LATIN_WORDS, rng.randint(0, 12))}</think>{body}"
        if rng.random() < 0.2:
            body += f"<think>{random_text(rng, LATIN_WORDS, rng.randint(1, 6))}</think>"
        contents.append((role, body))
    conv = make_conversation(f"c{rng.randrange(3)}", contents=contents)
    return [identity_translate(u, "t")
            for u in decompose(conv, chunker(TokenizerSpec.builtin(), _POLICY))]


def _with(unit: dict, **changes) -> dict:
    """A copy of the record *unit* with some fields changed."""
    return dict(unit, **changes)


def _mutate(rng: random.Random, units: list[dict], kind: str) -> None:
    pick = rng.randrange(len(units))
    unit = units[pick]
    if kind == "missing":
        for _ in range(rng.randint(1, min(3, len(units)))):
            del units[rng.randrange(len(units))]
    elif kind == "duplicate":
        for _ in range(rng.randint(1, 2)):
            twin = units[rng.randrange(len(units))]
            units.insert(rng.randrange(len(units) + 1),
                         _with(twin, translated_text=rng.choice([twin["translated_text"], "x"])))
    elif kind == "chunk_count":
        units[pick] = _with(unit, chunk_count=unit["chunk_count"] + rng.randint(1, 2))
    elif kind == "part_type":
        units[pick] = _with(unit, part_type="think" if unit["part_type"] == "visible"
                            else "visible")
    elif kind == "role":
        units[pick] = _with(unit, role=rng.choice(["system", "user", "assistant", "tool"]))
    elif kind == "misplaced":
        units[pick] = _with(unit, **{rng.choice(["message_index", "part_index"]):
                                     rng.choice([-1, 1, 2, 7])})
    elif kind == "conversation":
        units[pick] = _with(unit, conversation_id="other")


def _outcome(fn, units):
    try:
        conv = fn(units, "dev", "cat")
    except CorpusError as exc:
        return type(exc), str(exc), getattr(exc, "missing", None)
    return conv


@pytest.mark.parametrize("kind", ["complete", "missing", "duplicate", "chunk_count",
                                  "part_type", "role", "misplaced", "conversation",
                                  "mixed"])
def test_reconstruct_matches_reference(kind):
    rng = random.Random(f"reconstruct-{kind}")
    errors = 0
    for _ in range(150):
        units = _random_units(rng)
        kinds = ([rng.choice(["missing", "duplicate", "chunk_count", "part_type", "role",
                              "misplaced"]) for _ in range(rng.randint(2, 3))]
                 if kind == "mixed" else [kind])
        for k in kinds:
            if units:
                _mutate(rng, units, k)
        rng.shuffle(units)
        expected = _outcome(reconstruct_reference, units)
        assert _outcome(reconstruct, units) == expected
        errors += isinstance(expected, tuple)
    if kind == "complete":
        assert errors == 0
    elif kind in ("duplicate", "chunk_count", "conversation", "mixed"):
        assert errors > 100  # the sets really are faulty


def test_reconstruct_of_no_units_matches_reference():
    assert _outcome(reconstruct, []) == _outcome(reconstruct_reference, [])
