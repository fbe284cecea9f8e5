import json

import pytest
from hypothesis import given, strategies as st

from tarjama.tokenizers import (_TOKEN_RE, ConfigurationError, TokenizerSpec,
                                count_tokens, tokenize)

BUILTIN = TokenizerSpec.builtin()


def spans_text(text, ends):
    return [text[start:end] for start, end in zip([0] + ends, ends)]


def test_empty_text():
    assert tokenize("", BUILTIN) == []
    assert count_tokens("", BUILTIN) == 0


def test_documented_rule_on_a_space_b():
    # Frozen builtin rule: whitespace runs are tokens too.
    spans = tokenize("a b", BUILTIN)
    assert spans_text("a b", spans) == ["a", " ", "b"]
    assert count_tokens("a b", BUILTIN) == 3


def test_alnum_runs_and_single_others():
    text = "abc12 ,de_f"
    assert spans_text(text, tokenize(text, BUILTIN)) == [
        "abc12", " ", ",", "de", "_", "f"]


def test_arabic_text_tokenizes_as_runs():
    text = "مرحبا بالعالم"
    assert spans_text(text, tokenize(text, BUILTIN)) == ["مرحبا", " ", "بالعالم"]


@given(st.text(max_size=200))
def test_full_coverage_property(text):
    ends = tokenize(text, BUILTIN)
    assert "".join(spans_text(text, ends)) == text
    pos = 0
    for end in ends:
        assert end > pos
        pos = end
    assert pos == len(text)


@given(st.text(max_size=200) | st.text(alphabet=" \t\n\u00a0\u3000_.,aZ9٣مرحبا\u064e",
                                     max_size=200))
def test_builtin_tokenize_matches_match_ends(text):
    assert tokenize(text, BUILTIN) == [m.end() for m in _TOKEN_RE.finditer(text)]


@given(st.text(max_size=200) | st.text(alphabet=" \t\n\u00a0\u3000_.,aZ9٣مرحبا\u064e",
                                     max_size=200))
def test_builtin_count_tokens_counts_the_tokens(text):
    assert count_tokens(text, BUILTIN) == len(tokenize(text, BUILTIN))


@given(st.text(max_size=100))
def test_determinism(text):
    assert tokenize(text, BUILTIN) == tokenize(text, BUILTIN)


@given(st.text(max_size=80), st.text(max_size=80))
def test_concatenation_monotonicity(a, b):
    assert count_tokens(a + b, BUILTIN) <= count_tokens(a, BUILTIN) + count_tokens(b, BUILTIN) + 1


# -- external vocab ----------------------------------------------------------


@pytest.fixture
def vocab_file(tmp_path):
    definition = {
        "model": {
            "type": "BPE",
            "vocab": {"a": 0, "b": 1, "c": 2, "ab": 3, "abc": 4, "سل": 5},
            "merges": ["a b", "ab c", "س ل"],
        }
    }
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    return str(path)


def test_external_vocab_merges(vocab_file):
    spec = TokenizerSpec.external(vocab_file)
    text = "abc ab salam"
    pieces = spans_text(text, tokenize(text, spec))
    assert pieces[0] == "abc"          # a+b -> ab, ab+c -> abc
    assert pieces[2] == "ab"
    assert "".join(pieces) == text


def test_external_vocab_unknown_chars_stay_single(vocab_file):
    spec = TokenizerSpec.external(vocab_file)
    pieces = spans_text("xyz", tokenize("xyz", spec))
    assert pieces == ["x", "y", "z"]


def test_external_vocab_arabic_merge(vocab_file):
    spec = TokenizerSpec.external(vocab_file)
    pieces = spans_text("سلم", tokenize("سلم", spec))
    assert pieces == ["سل", "م"]


@pytest.fixture(scope="module")
def tiny_spec(tmp_path_factory):
    definition = {"vocab": {"a": 0, "b": 1, "ab": 2}, "merges": [["a", "b"]]}
    path = tmp_path_factory.mktemp("vocab") / "tiny.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    return TokenizerSpec.external(str(path))


@given(st.text(max_size=120))
def test_external_vocab_coverage_and_determinism(tiny_spec, text):
    ends = tokenize(text, tiny_spec)
    assert "".join(spans_text(text, ends)) == text
    assert ends == tokenize(text, tiny_spec)


def test_missing_vocab_file_is_config_error(tmp_path):
    spec = TokenizerSpec.external(str(tmp_path / "absent.json"))
    with pytest.raises(ConfigurationError):
        tokenize("x", spec)


def test_invalid_vocab_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        tokenize("x", TokenizerSpec.external(str(path)))


def test_vocab_without_vocab_key_is_config_error(tmp_path):
    path = tmp_path / "novocab.json"
    path.write_text(json.dumps({"model": {"merges": []}}), encoding="utf-8")
    with pytest.raises(ConfigurationError):
        tokenize("x", TokenizerSpec.external(str(path)))


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        TokenizerSpec(name="x", kind="magic")


def test_external_vocab_without_path_rejected():
    with pytest.raises(ConfigurationError):
        TokenizerSpec(name="x", kind="external-vocab")
