import json
import random

import pytest
from hypothesis import given, strategies as st

from tarjama.chunking import ChunkPolicy, chunker
from tarjama.corpus import (Candidate, Conversation, CorpusError,
                            IncompleteUnitSetError, LineError, Message, Part,
                            StructureMismatchError, ThinkSpanError,
                            UnitConsistencyError,
                            decompose, join_parts, json_text, parse_corpus,
                            rebuild_conversations, reconstruct, split_parts,
                            unit_from_dict, unit_to_dict,
                            validate_candidate_structure)
from tarjama.tokenizers import TokenizerSpec

from conftest import (corpus_jsonl, identity_translate, make_conversation, random_corpus,
                      single_chunk)


def test_parse_minimal_line():
    line = json.dumps({"id": "c1", "split": "dev", "messages": [
        {"role": "user", "content": "hi"}, {"role": "assistant", "content": "ahlan"}]})
    convs = parse_corpus(line)
    assert len(convs) == 1
    assert [m.index for m in convs[0].messages] == [0, 1]
    assert convs[0].messages[1].content == "ahlan"


def test_parse_duplicate_id_cites_both_lines():
    rows = []
    for i in range(8):
        rows.append(json.dumps({"id": f"c{i}", "split": "s", "messages": [
            {"role": "user", "content": "x"}]}))
    rows[2] = json.dumps({"id": "dup", "split": "s", "messages": [
        {"role": "user", "content": "x"}]})
    rows[6] = json.dumps({"id": "dup", "split": "s", "messages": [
        {"role": "user", "content": "y"}]})
    with pytest.raises(CorpusError, match=r"lines 3 and 7"):
        parse_corpus("\n".join(rows))


def test_parse_thousand_lines_order_preserved(rng):
    conversations = random_corpus(rng, 1000)
    parsed = parse_corpus(corpus_jsonl(conversations))
    assert len(parsed) == 1000
    assert [c.id for c in parsed] == [c.id for c in conversations]


def test_parse_missing_field_is_line_scoped():
    bad = json.dumps({"id": "c1", "messages": [{"role": "user", "content": "x"}]})
    with pytest.raises(LineError, match="line 1"):
        parse_corpus(bad)


def test_parse_empty_messages_rejected():
    bad = json.dumps({"id": "c1", "split": "s", "messages": []})
    with pytest.raises(LineError):
        parse_corpus(bad)


def test_parse_unpaired_surrogate_rejected():
    bad = '{"id": "c1", "split": "s", "messages": [{"role": "user", "content": "\\ud800"}]}'
    with pytest.raises(LineError, match="surrogate"):
        parse_corpus(bad)


def test_parse_lenient_skips_and_logs(caplog):
    good = json.dumps({"id": "ok", "split": "s",
                       "messages": [{"role": "user", "content": "x"}]})
    with caplog.at_level("WARNING"):
        convs = parse_corpus("not json\n" + good, strict=False)
    assert [c.id for c in convs] == ["ok"]
    assert any("line 1" in r.message for r in caplog.records)


def test_split_parts_plain():
    assert split_parts("hello") == [Part("visible", "hello")]


def test_split_parts_one_span():
    assert split_parts("<think>A</think>B") == [Part("think", "A"), Part("visible", "B")]


def test_split_parts_roundtrip_trailing_think():
    content = "X<think>Y</think>"
    parts = split_parts(content)
    assert parts == [Part("visible", "X"), Part("think", "Y")]
    assert join_parts(parts) == content


@pytest.mark.parametrize("content", ["I think> so", "<think", "think>think>", "</thin k>"])
def test_split_parts_near_markers_stay_one_visible_part(content):
    assert split_parts(content) == [Part("visible", content)]


def test_split_parts_empty_content_yields_one_part():
    assert split_parts("") == [Part("visible", "")]


@pytest.mark.parametrize("content", ["<think>a", "a</think>", "<think>a</think></think>"])
def test_split_parts_unbalanced(content):
    with pytest.raises(ThinkSpanError):
        split_parts(content)


def test_split_parts_nested_rejected():
    with pytest.raises(ThinkSpanError, match="nested"):
        split_parts("<think>a<think>b</think></think>")


@st.composite
def balanced_content(draw):
    plain = st.text(max_size=40).map(
        lambda s: s.replace("<think>", " ").replace("</think>", " "))
    pieces = draw(st.lists(st.tuples(st.sampled_from(["think", "visible"]), plain),
                           max_size=6))
    return join_parts([Part(kind, text) for kind, text in pieces])


@given(balanced_content())
def test_split_join_roundtrip(content):
    assert join_parts(split_parts(content)) == content


def test_decompose_two_messages_single_chunks():
    conv = make_conversation("c", contents=[("user", "hi"), ("assistant", "ok")])
    units = decompose(conv, single_chunk)
    assert len(units) == 2
    assert all(u.chunk_count == 1 for u in units)
    assert [u.message_index for u in units] == [0, 1]


def test_decompose_think_then_visible():
    conv = make_conversation("c", contents=[("assistant", "<think>T</think>R")])
    units = decompose(conv, single_chunk)
    assert [(u.part_type, u.source_text) for u in units] == [("think", "T"), ("visible", "R")]
    assert [u.part_index for u in units] == [0, 1]


def test_decompose_three_chunks():
    conv = make_conversation("c", contents=[("user", "abcdef")])
    units = decompose(conv, {"abcdef": ["ab", "cd", "ef"]}.get)
    assert [u.chunk_index for u in units] == [0, 1, 2]
    assert all(u.chunk_count == 3 for u in units)


def test_decompose_plan_must_concatenate():
    conv = make_conversation("c", contents=[("user", "abc")])
    with pytest.raises(UnitConsistencyError, match="concatenate"):
        decompose(conv, {"abc": ["ab", "x"]}.get)


def test_reconstruct_identity_roundtrip():
    conv = make_conversation("c", contents=[
        ("system", "Be brief."),
        ("user", "hello there"),
        ("assistant", "<think>plan</think>answer"),
    ])
    units = [identity_translate(u) for u in decompose(conv, single_chunk)]
    rebuilt = reconstruct(units, split=conv.split)
    assert rebuilt == conv


def test_reconstruct_order_independent():
    conv = make_conversation("c", contents=[("user", "abcdef"), ("assistant", "xyz")])
    units = [identity_translate(u)
             for u in decompose(conv, {"abcdef": ["ab", "cd", "ef"], "xyz": ["xyz"]}.get)]
    shuffled = units[:]
    random.Random(7).shuffle(shuffled)
    assert reconstruct(shuffled, split=conv.split) == reconstruct(units, split=conv.split)


def test_reconstruct_missing_chunk_names_tuple():
    conv = make_conversation("c", contents=[("user", "abcdef")])
    units = [identity_translate(u) for u in decompose(conv, {"abcdef": ["ab", "cd", "ef"]}.get)]
    del units[1]
    with pytest.raises(IncompleteUnitSetError) as err:
        reconstruct(units)
    assert (0, 0, 1) in err.value.missing


def test_reconstruct_conflicting_chunk_count():
    conv = make_conversation("c", contents=[("user", "abcd")])
    units = [identity_translate(u) for u in decompose(conv, {"abcd": ["ab", "cd"]}.get)]
    units[1]["chunk_count"] = 3
    with pytest.raises(UnitConsistencyError, match="chunk_count"):
        reconstruct(units)


def test_rebuild_keeps_the_messages_it_does_not_translate_byte_for_byte():
    conv = make_conversation("c", category="math", contents=[
        ("system", "<think>plan</think>rules"), ("user", "hi"), ("system", "last")])
    units = [dict(identity_translate(u), translated_text=u.source_text.upper())
             for u in decompose(conv, single_chunk, translate_system=False)]
    assert [u["role"] for u in units] == ["user"]
    ((objs, rebuilt),) = rebuild_conversations([conv], units, translate_system=False)
    assert objs == units
    assert rebuilt == make_conversation("c", category="math", contents=[
        ("system", "<think>plan</think>rules"), ("user", "HI"), ("system", "last")])


def test_rebuild_needs_no_units_for_a_conversation_it_does_not_translate():
    note = make_conversation("note", contents=[("system", "be brief")])
    chat = make_conversation("chat")
    assert decompose(note, single_chunk, translate_system=False) == []
    units = [identity_translate(u) for u in decompose(chat, single_chunk)]
    rebuilt = rebuild_conversations([note, chat, note], units, translate_system=False)
    assert [conv for _, conv in rebuilt] == [note, chat, note]
    with pytest.raises(CorpusError, match="no translated units for conversation 'note'"):
        list(rebuild_conversations([note, chat], units))


def test_rebuild_from_a_source_never_drops_a_trailing_message():
    conv = make_conversation("c", contents=[("user", "hi"), ("assistant", "ok"),
                                            ("system", "last")])
    units = [identity_translate(u) for u in decompose(conv, single_chunk)][:2]
    assert [conv for _, conv in rebuild_conversations([conv], units, False)] == [conv]
    with pytest.raises(IncompleteUnitSetError) as err:
        list(rebuild_conversations([conv], units))
    assert err.value.missing == [(2, "*", "*")]


def test_reconstruct_rejects_units_of_a_kept_message():
    conv = make_conversation("c", contents=[("system", "note"), ("user", "hi")])
    units = [identity_translate(u) for u in decompose(conv, single_chunk)]
    with pytest.raises(UnitConsistencyError, match="units for untranslated message 0"):
        reconstruct(units, kept=conv.messages[:1])


@given(st.data())
def test_roundtrip_property_with_chunked_plans(data):
    plain = st.text(max_size=60).map(
        lambda s: s.replace("<think>", " ").replace("</think>", " "))
    n_msgs = data.draw(st.integers(1, 4))
    contents = []
    for i in range(n_msgs):
        role = data.draw(st.sampled_from(["system", "user", "assistant", "tool"]))
        body = data.draw(plain)
        if data.draw(st.booleans()):
            body = f"<think>{data.draw(plain)}</think>{body}"
        contents.append((role, body))
    conv = make_conversation("prop", contents=contents)
    policy = ChunkPolicy(target_tokens=6, window_tokens=2, hard_cap_tokens=7)
    units = [identity_translate(u)
             for u in decompose(conv, chunker(TokenizerSpec.builtin(), policy))]
    assert reconstruct(units, split=conv.split) == conv


def test_unit_dict_roundtrip():
    conv = make_conversation("c")
    unit = decompose(conv, single_chunk)[0]
    assert unit_from_dict(unit_to_dict(unit)) == unit
    # a translated unit is its record; read as a unit, it is its source unit
    assert unit_from_dict(identity_translate(unit, "mock")) == unit


def test_candidate_structure_validation():
    source = make_conversation("c", contents=[("user", "q"), ("assistant", "<think>t</think>a")])
    good = Candidate("c", "m", make_conversation(
        "c", contents=[("user", "س"), ("assistant", "<think>ف</think>ج")]))
    validate_candidate_structure(source, good)
    wrong_parts = Candidate("c", "m", make_conversation(
        "c", contents=[("user", "س"), ("assistant", "ج")]))
    with pytest.raises(StructureMismatchError):
        validate_candidate_structure(source, wrong_parts)
    wrong_role = Candidate("c", "m", make_conversation(
        "c", contents=[("user", "س"), ("user", "<think>ف</think>ج")]))
    with pytest.raises(StructureMismatchError):
        validate_candidate_structure(source, wrong_role)


def test_conversation_requires_contiguous_indices():
    with pytest.raises(ValueError):
        Conversation(id="x", split="s", messages=[
            Message(role="user", content="a", index=1)])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner,
                                                                max_size=4),
    max_leaves=20)


@given(json_values)
def test_json_text_writes_what_json_dumps_writes(value):
    assert json_text(value) == json.dumps(value, ensure_ascii=False)
