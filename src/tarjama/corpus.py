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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
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


@dataclass
class Message:
    role: str
    content: str
    index: int

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role: {self.role!r}")
        if self.index < 0:
            raise ValueError("message index must be non-negative")


@dataclass
class Conversation:
    id: str
    split: str
    messages: list[Message]
    category: Optional[str] = None  # stratification label, when present

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError(f"conversation {self.id!r} has no messages")
        for pos, msg in enumerate(self.messages):
            if msg.index != pos:
                raise ValueError(
                    f"conversation {self.id!r}: message index {msg.index} at position {pos}")


@dataclass(frozen=True)
class Part:
    kind: str
    text: str


@dataclass
class TranslationUnit:
    conversation_id: str
    message_index: int
    part_type: str
    part_index: int
    chunk_index: int
    chunk_count: int
    role: str
    source_text: str

    def __post_init__(self) -> None:
        if self.chunk_count <= 0:
            raise ValueError("chunk_count must be positive")
        if not 0 <= self.chunk_index < self.chunk_count:
            raise ValueError("chunk_index must be in [0, chunk_count)")

    @property
    def key(self) -> tuple[str, int, int, int]:
        return (self.conversation_id, self.message_index, self.part_index,
                self.chunk_index)


@dataclass
class TranslatedUnit(TranslationUnit):
    translated_text: str = ""
    translator_id: str = ""


@dataclass
class Candidate:
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


def parse_corpus(stream: Union[str, Iterable[str]], strict: bool = True) -> list[Conversation]:
    """Parse JSONL conversations, one object per line.

    In strict mode any malformed line (or duplicate id) raises; in
    lenient mode offending lines are skipped with a logged report.
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
            err = LineError(line_no, str(exc))
            if strict:
                raise err from exc
            logger.warning("skipping corpus %s", err)
            continue
        if conv.id in seen:
            err = CorpusError(
                f"duplicate conversation id {conv.id!r} on lines {seen[conv.id]} and {line_no}")
            if strict:
                raise err
            logger.warning("skipping corpus %s", err)
            continue
        seen[conv.id] = line_no
        conversations.append(conv)
    return conversations


def load_corpus(path: Union[str, Path], strict: bool = True) -> list[Conversation]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh, strict=strict)


def write_corpus(conversations: Iterable[Conversation], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for conv in conversations:
            fh.write(json.dumps(conversation_to_dict(conv), ensure_ascii=False) + "\n")


def split_parts(content: str) -> list[Part]:
    """Split message content into visible text and <think> interiors.

    Nested spans are rejected; a single message may carry several
    sequential spans.  Empty visible gaps between spans are dropped, but
    fully empty content yields one empty visible part so every message
    decomposes to at least one unit.
    """
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


def join_parts(parts: Sequence[Part]) -> str:
    pieces = []
    for part in parts:
        if part.kind == PART_THINK:
            pieces.append(THINK_OPEN + part.text + THINK_CLOSE)
        else:
            pieces.append(part.text)
    return "".join(pieces)


ChunkPlan = Mapping[tuple[int, int], Sequence[str]]


def decompose(conversation: Conversation, chunk_plan: ChunkPlan) -> list[TranslationUnit]:
    """Flatten a conversation into translation units.

    ``chunk_plan`` maps (message_index, part_index) to the list of chunk
    texts for that part; chunk texts must concatenate back to the part.
    """
    units: list[TranslationUnit] = []
    for msg in conversation.messages:
        for part_index, part in enumerate(split_parts(msg.content)):
            key = (msg.index, part_index)
            if key not in chunk_plan:
                raise UnitConsistencyError(
                    f"chunk plan missing part {key} of conversation {conversation.id!r}")
            chunk_texts = list(chunk_plan[key])
            if not chunk_texts:
                raise UnitConsistencyError(f"chunk plan for part {key} is empty")
            if "".join(chunk_texts) != part.text:
                raise UnitConsistencyError(
                    f"chunk plan for part {key} does not concatenate to the part text")
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


def single_chunk_plan(conversation: Conversation) -> dict[tuple[int, int], list[str]]:
    """One chunk per part; handy default for short conversations."""
    plan: dict[tuple[int, int], list[str]] = {}
    for msg in conversation.messages:
        for part_index, part in enumerate(split_parts(msg.content)):
            plan[(msg.index, part_index)] = [part.text]
    return plan


def reconstruct(units: Sequence[TranslatedUnit], split: str = "") -> Conversation:
    """Rebuild one conversation from a complete set of translated units.

    Insensitive to input order.  Raises IncompleteUnitSetError when
    chunks or parts are missing and UnitConsistencyError when units
    disagree on chunk_count, part type, or role.
    """
    if not units:
        raise IncompleteUnitSetError([("<no units>",)])
    conv_ids = {u.conversation_id for u in units}
    if len(conv_ids) > 1:
        raise UnitConsistencyError(f"units span multiple conversations: {sorted(conv_ids)}")
    conv_id = units[0].conversation_id

    by_part: dict[tuple[int, int], dict[int, TranslatedUnit]] = {}
    for unit in units:
        chunks = by_part.setdefault((unit.message_index, unit.part_index), {})
        if unit.chunk_index in chunks:
            raise UnitConsistencyError(
                f"duplicate chunk {unit.key} in conversation {conv_id!r}")
        chunks[unit.chunk_index] = unit

    missing: list[tuple] = []
    parts: dict[tuple[int, int], tuple[str, str, str]] = {}
    for (msg_idx, part_idx), chunks in sorted(by_part.items()):
        some = next(iter(chunks.values()))
        counts = {u.chunk_count for u in chunks.values()}
        if len(counts) > 1:
            raise UnitConsistencyError(
                f"conflicting chunk_count for part ({msg_idx}, {part_idx}): {sorted(counts)}")
        if {u.part_type for u in chunks.values()} != {some.part_type}:
            raise UnitConsistencyError(
                f"conflicting part_type for part ({msg_idx}, {part_idx})")
        if {u.role for u in chunks.values()} != {some.role}:
            raise UnitConsistencyError(f"conflicting role in message {msg_idx}")
        count = counts.pop()
        absent = [i for i in range(count) if i not in chunks]
        if absent:
            missing.extend((msg_idx, part_idx, i) for i in absent)
            continue
        text = "".join(chunks[i].translated_text for i in range(count))
        parts[(msg_idx, part_idx)] = (some.part_type, text, some.role)
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
    return Conversation(id=conv_id, split=split, messages=messages)


def group_units_by_conversation(
        units: Iterable[TranslatedUnit]) -> dict[str, list[TranslatedUnit]]:
    """Group units by conversation id, preserving first-seen order."""
    grouped: dict[str, list[TranslatedUnit]] = {}
    for unit in units:
        grouped.setdefault(unit.conversation_id, []).append(unit)
    return grouped


def identity_translate(unit: TranslationUnit,
                       translator_id: str = "identity") -> TranslatedUnit:
    fields = {name: getattr(unit, name) for name in _UNIT_FIELDS}
    return TranslatedUnit(**fields, translated_text=unit.source_text,
                          translator_id=translator_id)


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

_UNIT_FIELDS = ("conversation_id", "message_index", "part_type", "part_index",
                "chunk_index", "chunk_count", "role", "source_text")


def unit_to_dict(unit: TranslationUnit) -> dict:
    obj = {name: getattr(unit, name) for name in _UNIT_FIELDS}
    if isinstance(unit, TranslatedUnit):
        obj["translated_text"] = unit.translated_text
        obj["translator_id"] = unit.translator_id
    return obj


def unit_from_dict(obj: Mapping) -> TranslationUnit:
    kwargs = {name: obj[name] for name in _UNIT_FIELDS}
    if "translated_text" in obj:
        return TranslatedUnit(**kwargs, translated_text=obj["translated_text"],
                              translator_id=obj.get("translator_id", ""))
    return TranslationUnit(**kwargs)


def write_units(units: Iterable[TranslationUnit], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for unit in units:
            fh.write(json.dumps(unit_to_dict(unit), ensure_ascii=False) + "\n")


def read_units(path: Union[str, Path]) -> Iterator[TranslationUnit]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield unit_from_dict(json.loads(line))
