"""Conversation corpus model.

Covers JSONL ingestion/emission, think-span splitting, decomposition of
conversations into translation units, and deterministic reconstruction.
The reconstruction contract is byte-exact: decomposing a conversation,
translating every unit with the identity function, and reconstructing
yields the original conversation.
"""

from __future__ import annotations

import json
import logging
import re
from itertools import groupby
from json.encoder import c_make_encoder, encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence, Union)

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant", "tool")
PART_THINK = "think"
PART_VISIBLE = "visible"

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"


class CorpusError(Exception):
    """Corpus-level violation (e.g. duplicate conversation ids)."""


class LineError(CorpusError):
    """A single JSONL line failed to parse or validate."""

    def __init__(self, name: str, line_no: int, message: str):
        super().__init__(f"{name} line {line_no}: {message}")
        self.line_no = line_no


class ThinkSpanError(CorpusError):
    """Unbalanced or nested <think> markers."""


class UnitConsistencyError(CorpusError):
    """Translation units disagree on shared metadata."""


class IncompleteUnitSetError(CorpusError):
    """A reconstruction input is missing chunks or parts."""

    def __init__(self, missing: Sequence[tuple]):
        self.missing = list(missing)
        listed = ", ".join(str(t) for t in self.missing[:20])
        more = "" if len(self.missing) <= 20 else f" (+{len(self.missing) - 20} more)"
        super().__init__(f"missing units: {listed}{more}")


class StructureMismatchError(CorpusError):
    """A candidate's structure does not match its source conversation."""


class Message:
    __slots__ = ("role", "content", "index")

    def __init__(self, role: str, content: str, index: int) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown role: {role!r}")
        if index < 0:
            raise ValueError("message index must be non-negative")
        self.role = role
        self.content = content
        self.index = index

    def __eq__(self, other):
        if other.__class__ is not Message:
            return NotImplemented
        return (self.role, self.content, self.index) == (other.role, other.content,
                                                          other.index)


class Conversation:
    __slots__ = ("id", "split", "messages", "category")

    def __init__(self, id: str, split: str, messages: list[Message],
                 category: Optional[str] = None) -> None:
        if not messages:
            raise ValueError(f"conversation {id!r} has no messages")
        for pos, msg in enumerate(messages):
            if msg.index != pos:
                raise ValueError(
                    f"conversation {id!r}: message index {msg.index} at position {pos}")
        self.id = id
        self.split = split
        self.messages = messages
        self.category = category  # stratification label, when present

    def __eq__(self, other):
        if other.__class__ is not Conversation:
            return NotImplemented
        return (self.id, self.split, self.messages, self.category) == (
            other.id, other.split, other.messages, other.category)


class Part(NamedTuple):
    kind: str
    text: str


# A unit record is a unit's JSON object: these fields, and once translated,
# ``translated_text`` and ``translator_id``.  A translated unit is only this.
UNIT_FIELDS = ("conversation_id", "message_index", "part_type", "part_index",
               "chunk_index", "chunk_count", "role", "source_text")


def check_chunk_range(chunk_index: int, chunk_count: int) -> None:
    if not 0 <= chunk_index < chunk_count:
        raise ValueError(f"chunk_index must be in [0, chunk_count), not {chunk_index} "
                         f"of {chunk_count}")


class TranslationUnit:
    __slots__ = UNIT_FIELDS

    def __init__(self, conversation_id: str, message_index: int, part_type: str,
                 part_index: int, chunk_index: int, chunk_count: int, role: str,
                 source_text: str) -> None:
        check_chunk_range(chunk_index, chunk_count)
        self.conversation_id = conversation_id
        self.message_index = message_index
        self.part_type = part_type
        self.part_index = part_index
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        self.role = role
        self.source_text = source_text

    @property
    def key(self) -> tuple[str, int, int, int]:
        return (self.conversation_id, self.message_index, self.part_index,
                self.chunk_index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return unit_to_dict(self) == unit_to_dict(other)


class Candidate(NamedTuple):
    conversation_id: str
    translator_id: str
    conversation: Conversation


_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


def _has_surrogates(text: str) -> bool:
    return _SURROGATE_RE.search(text) is not None


def message_from_dict(obj: Mapping, index: int) -> Message:
    for key in ("role", "content"):
        if key not in obj:
            raise ValueError(f"message missing required field {key!r}")
    role, content = obj["role"], obj["content"]
    if not isinstance(content, str):
        raise ValueError("message content must be a string")
    if _has_surrogates(content):
        raise ValueError("message content contains unpaired surrogates")
    return Message(role=role, content=content, index=index)


def conversation_from_dict(obj: Mapping) -> Conversation:
    for key in ("id", "split", "messages"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r}")
    if not isinstance(obj["messages"], list) or not obj["messages"]:
        raise ValueError("messages must be a non-empty list")
    messages = [message_from_dict(m, i) for i, m in enumerate(obj["messages"])]
    return Conversation(id=str(obj["id"]), split=str(obj["split"]),
                        messages=messages, category=obj.get("category"))


def conversation_to_dict(conv: Conversation) -> dict:
    obj: dict = {
        "id": conv.id,
        "split": conv.split,
        "messages": [{"role": m.role, "content": m.content} for m in conv.messages],
    }
    if conv.category is not None:
        obj["category"] = conv.category
    return obj


def parse_corpus(stream: Union[str, Iterable[str]], strict: bool = True,
                 name: str = "corpus") -> list[Conversation]:
    """Parse JSONL conversations, one object per line.

    In strict mode any malformed line (or duplicate id) raises; in
    lenient mode offending lines are skipped with a logged report.  Both
    cite the lines as ``<name> line N: …``.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    conversations: list[Conversation] = []
    seen: dict[str, int] = {}
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            conv = conversation_from_dict(obj)
        except (json.JSONDecodeError, ValueError) as exc:
            err = LineError(name, line_no, str(exc))
            if strict:
                raise err from exc
            logger.warning("skipping %s", err)
            continue
        if conv.id in seen:
            err = CorpusError(f"{name} lines {seen[conv.id]} and {line_no}: "
                              f"duplicate conversation id {conv.id!r}")
            if strict:
                raise err
            logger.warning("skipping %s", err)
            continue
        seen[conv.id] = line_no
        conversations.append(conv)
    return conversations


def load_corpus(path: Union[str, Path], strict: bool = True) -> list[Conversation]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh, strict=strict, name=str(path))


# One encoder for the process: ``json.dumps(obj, ensure_ascii=False)`` builds
# a new JSONEncoder on every call, and ``JSONEncoder.encode`` a new C encoder
# on every call; both write the same text as this one.  Records are trees of
# str, int, float, list and dict, never cyclic, so the encoder skips the
# cycle check.
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)
if c_make_encoder is None:  # an interpreter without the C accelerator
    json_text = _ENCODER.encode
else:
    _encode = c_make_encoder(None, _ENCODER.default, encode_basestring, None,
                             _ENCODER.key_separator, _ENCODER.item_separator,
                             False, False, True)  # sort_keys, skipkeys, allow_nan

    def json_text(obj) -> str:
        return "".join(_encode(obj, 0))


def jsonl_line(obj: Mapping) -> str:
    return json_text(obj) + "\n"


def write_jsonl(objs: Iterable[Mapping], path: Union[str, Path]) -> None:
    """Write one compact UTF-8 JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map(jsonl_line, objs))


def write_corpus(conversations: Iterable[Conversation], path: Union[str, Path]) -> None:
    write_jsonl(map(conversation_to_dict, conversations), path)


def split_parts(content: str) -> list[Part]:
    """Split message content into visible text and <think> interiors.

    Nested spans are rejected; a single message may carry several
    sequential spans.  Empty visible gaps between spans are dropped, but
    fully empty content yields one empty visible part so every message
    decomposes to at least one unit.
    """
    if "think>" not in content:  # neither marker: one visible part
        return [Part(PART_VISIBLE, content)]
    parts: list[Part] = []
    pos = 0
    inside_since: Optional[int] = None
    i = 0
    while i < len(content):
        open_at = content.find(THINK_OPEN, i)
        close_at = content.find(THINK_CLOSE, i)
        if open_at == -1 and close_at == -1:
            break
        if close_at == -1 or (open_at != -1 and open_at < close_at):
            if inside_since is not None:
                raise ThinkSpanError("nested <think> span")
            if open_at > pos:
                parts.append(Part(PART_VISIBLE, content[pos:open_at]))
            inside_since = open_at + len(THINK_OPEN)
            i = inside_since
        else:
            if inside_since is None:
                raise ThinkSpanError("</think> without matching <think>")
            parts.append(Part(PART_THINK, content[inside_since:close_at]))
            inside_since = None
            pos = close_at + len(THINK_CLOSE)
            i = pos
    if inside_since is not None:
        raise ThinkSpanError("<think> without matching </think>")
    if pos < len(content):
        parts.append(Part(PART_VISIBLE, content[pos:]))
    if not parts:
        parts.append(Part(PART_VISIBLE, ""))
    return parts


def join_parts(parts: Iterable[tuple[str, str]]) -> str:
    """Message content from its ``(kind, text)`` parts, such as ``Part``s."""
    return "".join(THINK_OPEN + text + THINK_CLOSE if kind == PART_THINK else text
                   for kind, text in parts)


def translates(role: str, translate_system: bool) -> bool:
    """Whether a message of *role* is translated: a system message only with
    *translate_system*.  One that is not has no units and rebuilds as is."""
    return translate_system or role != "system"


def decompose(conversation: Conversation, chunk: Callable[[str], Sequence[str]],
              translate_system: bool = True) -> list[TranslationUnit]:
    """Flatten a conversation's translated messages into translation units.

    ``chunk`` maps a part's text to its chunk texts, which must
    concatenate back to the part.
    """
    units: list[TranslationUnit] = []
    for msg in conversation.messages:
        if not translates(msg.role, translate_system):
            continue
        for part_index, part in enumerate(split_parts(msg.content)):
            chunk_texts = chunk(part.text)
            if "".join(chunk_texts) != part.text:
                raise UnitConsistencyError(
                    f"chunks of part {(msg.index, part_index)} do not concatenate "
                    "to the part text")
            for chunk_index, chunk_text in enumerate(chunk_texts):
                units.append(TranslationUnit(
                    conversation_id=conversation.id,
                    message_index=msg.index,
                    part_type=part.kind,
                    part_index=part_index,
                    chunk_index=chunk_index,
                    chunk_count=len(chunk_texts),
                    role=msg.role,
                    source_text=chunk_text,
                ))
    return units


_CHUNK_ORDER = itemgetter("message_index", "part_index", "chunk_index")
_PART_OF = itemgetter("message_index", "part_index")
_UNIT_KEY = itemgetter("conversation_id", "message_index", "part_index", "chunk_index")
_TRANSLATED_TEXT = itemgetter("translated_text")
_KIND_TEXT = itemgetter(3, 4)


def _part_conflict(msg_idx: int, part_idx: int,
                   chunks: Sequence[Mapping]) -> Optional[UnitConsistencyError]:
    """The error for chunks of one part that disagree, or None."""
    counts = {u["chunk_count"] for u in chunks}
    if len(counts) > 1:
        return UnitConsistencyError(
            f"conflicting chunk_count for part ({msg_idx}, {part_idx}): {sorted(counts)}")
    if len({u["part_type"] for u in chunks}) > 1:
        return UnitConsistencyError(f"conflicting part_type for part ({msg_idx}, {part_idx})")
    if len({u["role"] for u in chunks}) > 1:
        return UnitConsistencyError(f"conflicting role in message {msg_idx}")
    return None


def _first_duplicate(units: Sequence[Mapping]) -> tuple:
    seen = set()
    for key in map(_UNIT_KEY, units):
        if key in seen:
            return key
        seen.add(key)


def reconstruct(units: Sequence[Mapping], split: str = "",
                category: Optional[str] = None, kept: Sequence[Message] = ()) -> Conversation:
    """Rebuild one conversation from the records of a complete set of
    translated units, splicing in the untranslated source messages *kept*.

    Insensitive to input order: one pass over the units sorted by
    (message, part, chunk) index.  Raises IncompleteUnitSetError when
    chunks or parts are missing and UnitConsistencyError when units
    repeat a chunk, disagree on chunk_count, part type, or role, or name
    a kept message.  Of several faults it reports the first repeated
    chunk in input order, else the first part whose chunks disagree, else
    every missing chunk, else a kept message's units, else the missing
    messages, else the first message that misses a part or mixes roles.
    """
    if not units:
        raise IncompleteUnitSetError([("<no units>",)])
    conv_ids = set(map(itemgetter("conversation_id"), units))
    if len(conv_ids) > 1:
        raise UnitConsistencyError(f"units span multiple conversations: {sorted(conv_ids)}")
    conv_id = units[0]["conversation_id"]

    conflict: Optional[UnitConsistencyError] = None
    missing: list[tuple] = []
    parts: list[tuple[int, int, str, str, str]] = []  # message, part, role, kind, text
    for (msg_idx, part_idx), group in groupby(sorted(units, key=_CHUNK_ORDER), _PART_OF):
        chunks = list(group)
        if len(chunks) > 1:
            if len({u["chunk_index"] for u in chunks}) < len(chunks):
                raise UnitConsistencyError(
                    f"duplicate chunk {_first_duplicate(units)} in conversation {conv_id!r}")
            conflict = conflict or _part_conflict(msg_idx, part_idx, chunks)
        if conflict is not None:
            continue  # only a repeated chunk can still outrank it
        first = chunks[0]
        if len(chunks) != first["chunk_count"]:
            present = {u["chunk_index"] for u in chunks}
            missing.extend((msg_idx, part_idx, i)
                           for i in range(first["chunk_count"]) if i not in present)
            continue
        parts.append((msg_idx, part_idx, first["role"], first["part_type"],
                      "".join(map(_TRANSLATED_TEXT, chunks))))
    if conflict is not None:
        raise conflict
    if missing:
        raise IncompleteUnitSetError(missing)
    if kept:  # each one visible part of the whole content, so <think> stays as is
        if clash := {m.index for m in kept}.intersection(map(itemgetter(0), parts)):
            raise UnitConsistencyError(f"units for untranslated message {min(clash)}")
        parts.extend((m.index, 0, m.role, PART_VISIBLE, m.content) for m in kept)
        parts.sort()

    by_message = [(m, list(group)) for m, group in groupby(parts, itemgetter(0))]
    message_indices = [m for m, _ in by_message]
    if message_indices != list(range(len(message_indices))):
        raise IncompleteUnitSetError([(m, "*", "*") for m in range(message_indices[-1] + 1)
                                      if m not in message_indices])
    messages: list[Message] = []
    for msg_idx, msg_parts in by_message:
        part_indices = [p[1] for p in msg_parts]
        if part_indices != list(range(len(part_indices))):
            raise IncompleteUnitSetError([(msg_idx, p, "*") for p in range(part_indices[-1] + 1)
                                          if p not in part_indices])
        role = msg_parts[0][2]
        if len(msg_parts) > 1 and len({p[2] for p in msg_parts}) > 1:
            raise UnitConsistencyError(f"conflicting role in message {msg_idx}")
        messages.append(Message(role, join_parts(map(_KIND_TEXT, msg_parts)), msg_idx))
    return Conversation(id=conv_id, split=split, messages=messages,
                        category=category)


def rebuild_conversations(
        sources: Iterable[Conversation], unit_dicts: Iterable[Mapping],
        translate_system: bool = True) -> Iterator[tuple[list[Mapping], Conversation]]:
    """Per source conversation, its translated unit records in ``units.jsonl``
    order and its rebuild, which keeps the untranslated messages (see
    ``translates``).  *unit_dicts* hold each source's records together, in
    source order; CorpusError names a source with translated messages but
    no units, and IncompleteUnitSetError the trailing messages a rebuild lacks."""
    groups = groupby(unit_dicts, itemgetter("conversation_id"))
    group_id, group = next(groups, (None, ()))
    for source in sources:
        kept = [m for m in source.messages if not translates(m.role, translate_system)]
        if group_id != source.id:
            if len(kept) == len(source.messages):
                yield [], source
                continue
            raise CorpusError(f"no translated units for conversation {source.id!r}")
        objs = sorted(group, key=_CHUNK_ORDER)
        group_id, group = next(groups, (None, ()))
        rebuilt = reconstruct(objs, source.split, source.category, kept)
        if len(rebuilt.messages) < len(source.messages):
            raise IncompleteUnitSetError([(m, "*", "*") for m in range(
                len(rebuilt.messages), len(source.messages))])
        yield objs, rebuilt


def validate_candidate_structure(source: Conversation, candidate: Candidate) -> None:
    """Candidates must preserve message count, roles, and part structure."""
    translated = candidate.conversation
    if len(translated.messages) != len(source.messages):
        raise StructureMismatchError(
            f"candidate {candidate.translator_id!r} for {source.id!r}: "
            f"{len(translated.messages)} messages vs {len(source.messages)} in source")
    for src_msg, cand_msg in zip(source.messages, translated.messages):
        if cand_msg.role != src_msg.role:
            raise StructureMismatchError(
                f"message {src_msg.index}: role {cand_msg.role!r} vs {src_msg.role!r}")
        src_kinds = [p.kind for p in split_parts(src_msg.content)]
        cand_kinds = [p.kind for p in split_parts(cand_msg.content)]
        if src_kinds != cand_kinds:
            raise StructureMismatchError(
                f"message {src_msg.index}: part structure {cand_kinds} vs {src_kinds}")


# -- unit file I/O -----------------------------------------------------------


_RECORD_TYPES = dict(zip(UNIT_FIELDS, (str, int, str, int, int, int, str, str)),
                     translated_text=str)


def check_unit_record(obj: Mapping) -> None:
    """ValueError unless *obj* holds every ``UNIT_FIELDS`` field, each field
    and a ``translated_text`` it may have with its JSON type, and a chunk
    index within its chunk count."""
    for name in UNIT_FIELDS:
        if name not in obj:
            raise ValueError(f"unit row has no {name!r} field")
    for name, kind in _RECORD_TYPES.items():
        if name in obj and type(obj[name]) is not kind:  # JSON booleans are no integers
            raise ValueError(f"unit row field {name!r} must be {kind.__name__}, "
                             f"not {obj[name]!r}")
    check_chunk_range(obj["chunk_index"], obj["chunk_count"])


def check_translated_record(obj: Mapping) -> None:
    """``check_unit_record`` for a row that must hold a ``translated_text``."""
    if "translated_text" not in obj:
        raise ValueError("unit row has no 'translated_text' field")
    check_unit_record(obj)


def unit_to_dict(unit: TranslationUnit) -> dict:
    return {name: getattr(unit, name) for name in UNIT_FIELDS}


_UNIT_VALUES = itemgetter(*UNIT_FIELDS)  # in constructor order


def unit_from_dict(obj: Mapping) -> TranslationUnit:
    return TranslationUnit(*_UNIT_VALUES(obj))


def write_units(units: Iterable[TranslationUnit], path: Union[str, Path]) -> None:
    write_jsonl(map(unit_to_dict, units), path)


def read_units(path: Union[str, Path]) -> Iterator[TranslationUnit]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield unit_from_dict(json.loads(line))
