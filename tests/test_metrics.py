import itertools
import math
import re
import time
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from tarjama import metrics, uniscript
from tarjama.corpus import Candidate
from tarjama.metrics import (CLASS_ARABIC, CLASS_ASCII_DIGIT,
                             CLASS_IGNORE, CLASS_OTHER_LETTER, LrInputs, ScrParams,
                             ScriptTally, arabic_script_ratio, classify_char,
                             contains_cjk, language_ratio, lr_score,
                             score_example, script_purity, strip_whitelisted,
                             tally_scripts, text_counts)

from conftest import make_conversation

# Hand-evaluated exp(-alpha * |ln ratio|) for count pairs (target, source):
# frozen before implementation.
LR_TABLE = [
    (500, 1000, 1.0, 0.5),
    (2000, 1000, 1.0, 0.5),
    (2000, 1000, 1.5, 0.35355339059327379),
    (500, 1000, 1.5, 0.35355339059327379),
    (4000, 1000, 1.0, 0.25),
    (250, 1000, 1.0, 0.25),
    (1500, 1000, 1.0, 0.66666666666666663),
    (3000, 1000, 1.2, 0.26758052058674353),
    (100, 1000, 1.25, 0.056234132519034932),
    (10000, 1000, 1.25, 0.056234132519034884),
    (1000, 1000, 1.3, 1.0),
]


@pytest.mark.parametrize("target,source,alpha,expected", LR_TABLE)
def test_lr_hand_table(target, source, alpha, expected):
    inputs = LrInputs(source_whitespace=source, target_whitespace=target,
                      source_chars=1000, target_chars=1000, alpha=alpha)
    assert lr_score(inputs) == pytest.approx(expected, abs=1e-9)


def test_lr_identity_is_one():
    text = "مرحبا بالعالم hello"
    assert language_ratio(text, text, alpha=1.25) == 1.0


def test_lr_word_ratio_half():
    # W: 2 vs 1, C: 3 vs 3 -> min(exp(-|ln 0.5|), 1) = 0.5
    assert language_ratio("a b c", "ab c", alpha=1.0) == pytest.approx(0.5, abs=1e-12)


def test_lr_zero_conventions():
    assert lr_score(LrInputs(0, 0, 0, 0, 1.0)) == 1.0
    assert lr_score(LrInputs(0, 5, 10, 10, 1.0)) == 0.0
    assert lr_score(LrInputs(5, 0, 10, 10, 1.0)) == 0.0
    assert language_ratio("", "", 1.0) == 1.0
    assert language_ratio("abc", "", 1.0) == 0.0


@given(st.floats(0.01, 100.0), st.floats(1.0, 1.5))
def test_lr_symmetry(ratio, alpha):
    a = math.exp(-alpha * abs(math.log(ratio)))
    b = math.exp(-alpha * abs(math.log(1.0 / ratio)))
    assert a == pytest.approx(b, abs=1e-9)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
def test_lr_monotone_in_log_ratio(base, r1, r2):
    # Larger |log ratio| never increases the factor.
    f = lambda t: lr_score(LrInputs(base, t, 1, 1, alpha=1.25))
    ratios = sorted([r1, r2], key=lambda t: abs(math.log(t / base)))
    assert f(ratios[0]) >= f(ratios[1]) - 1e-12


@given(st.floats(1.0, 1.5), st.floats(1.0, 1.5))
def test_lr_monotone_in_alpha(a1, a2):
    lo, hi = sorted([a1, a2])
    assert lr_score(LrInputs(2, 1, 1, 1, hi)) <= lr_score(LrInputs(2, 1, 1, 1, lo)) + 1e-12


def test_text_counts_unicode_whitespace():
    assert text_counts("ab cd \n") == (3, 4)


# -- whitelist stripping -----------------------------------------------------


def test_strip_url_keeps_surrounding_spaces():
    assert strip_whitelisted("زر https://a.b الآن") == "زر  الآن"


def test_strip_fixpoint_on_plain_text():
    assert strip_whitelisted("no specials") == "no specials"


def test_strip_inline_code():
    assert strip_whitelisted("x `code` y") == "x  y"


def test_strip_fenced_code_block():
    assert strip_whitelisted("a ```py\ncode()\n``` b") == "a  b"


def test_strip_unterminated_fence_extends_to_end():
    assert strip_whitelisted("keep ```lost forever") == "keep "


def test_strip_math_spans():
    assert strip_whitelisted("x $a+b$ y $$c$$ z \\(d\\) w \\[e\\] v") == "x  y  z  w  v"


def test_currency_dollar_without_closer_survives():
    text = "price $5 only"
    assert strip_whitelisted(text) == text


def test_strip_email():
    assert strip_whitelisted("contact a.b@example.com now") == "contact  now"


def test_strip_www_url():
    assert strip_whitelisted("see www.example.org/page here") == "see  here"


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_strip_idempotent(text):
    once = strip_whitelisted(text)
    assert strip_whitelisted(once) == once


# strip_whitelisted as it was before URL and email spans were found from
# their literals, the oracle of the function that replaced it: each pattern
# runs on a text that holds one of its literals and tries every position.
REFERENCE_STRIP_PATTERNS = (
    (("```",), re.compile(r"```.*?(?:```|\Z)", re.DOTALL)),
    (("`",), re.compile(r"`[^`]*`")),
    (("$$",), re.compile(r"\$\$.{0,200}?\$\$", re.DOTALL)),
    (("$",), re.compile(r"\$.{0,200}?\$", re.DOTALL)),
    (("\\(",), re.compile(r"\\\(.*?(?:\\\)|\Z)", re.DOTALL)),
    (("\\[",), re.compile(r"\\\[.*?(?:\\\]|\Z)", re.DOTALL)),
    (("://", "www."), re.compile(r"(?:[A-Za-z][A-Za-z0-9+.-]*://|www\.)\S+")),
    (("@",), re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")),
)


def reference_strip(text):
    while True:
        stripped = text
        for literals, pattern in REFERENCE_STRIP_PATTERNS:
            for literal in literals:
                if literal in stripped:
                    stripped = pattern.sub("", stripped)
                    break
        if stripped == text:
            return stripped
        text = stripped


def unguarded_strip(text):
    """Every pattern on every round, whether or not its literal occurs."""
    while True:
        stripped = text
        for _, pattern in REFERENCE_STRIP_PATTERNS:
            stripped = pattern.sub("", stripped)
        if stripped == text:
            return stripped
        text = stripped


# Fragments dense in the literals that gate the strip patterns.
STRIP_PIECES = ["`", "```", "$", "$$", "\\(", "\\)", "\\[", "\\]", "://",
                "www.", "@", "http", "a", "x.co", "b.c", "9", "-", " ", "\n",
                "نص"]


@given(st.lists(st.sampled_from(STRIP_PIECES), max_size=60).map("".join))
@example("see www.a.b now")
@example("$$ `$` www.q@x.co \\(\\[")
@settings(max_examples=500)
def test_strip_matches_unguarded_passes(text):
    assert strip_whitelisted(text) == unguarded_strip(text)


# Fragments dense in the characters of URL schemes and email addresses.
URL_EMAIL_PIECES = ["://", "www.", "w", "@", ".", "a", "Z", "1", "+", "-", "_", "%",
                    "/", ":", "x.co", "ab", " ", "\n", "\x1c", "نص", "`", "$"]


@given(st.lists(st.sampled_from(URL_EMAIL_PIECES), max_size=80).map("".join))
@example("1www.x://")
@example("a@b.cc-x@d.ee")
@example("a@b.cc.dd@e.ff www. www.a 9+x://y")
@settings(max_examples=1000)
def test_strip_matches_reference(text):
    assert strip_whitelisted(text) == reference_strip(text)


def test_strip_is_linear_in_a_long_run_next_to_a_url_or_email():
    run = "a" * 200_000
    text = f"{run} https://example.org/x {run} me@example.org"
    start = time.perf_counter()
    stripped = strip_whitelisted(text)
    assert time.perf_counter() - start < 1.0
    assert stripped == f"{run}  {run} "


# -- script classification ---------------------------------------------------


def test_classify_basic_examples():
    assert classify_char("ب") == CLASS_ARABIC
    assert classify_char("7") == CLASS_ASCII_DIGIT
    assert classify_char("٧") == CLASS_ARABIC  # Arabic-Indic seven
    assert classify_char("۳") == CLASS_ARABIC  # extended Arabic-Indic three
    assert classify_char("x") == CLASS_OTHER_LETTER
    assert classify_char("ﭐ") == CLASS_ARABIC  # presentation form letter
    assert classify_char(" ") == CLASS_IGNORE
    assert classify_char(".") == CLASS_IGNORE
    assert classify_char("ـ") == CLASS_ARABIC  # tatweel


def test_inherited_mark_takes_base_class():
    fatha = "َ"
    assert classify_char(fatha, CLASS_ARABIC) == CLASS_ARABIC
    assert classify_char(fatha, CLASS_OTHER_LETTER) == CLASS_OTHER_LETTER
    assert classify_char(fatha, None) == CLASS_IGNORE


def test_tally_tracks_base_through_marks():
    # beh + fatha + beh: marks inherit from the preceding base letter.
    tally = tally_scripts("بَب")
    assert tally == ScriptTally(arabic=3, other_letters=0, ascii_digits=0)
    # mark directly after a space inherits "ignore"
    tally = tally_scripts(" َ")
    assert tally == ScriptTally(0, 0, 0)


# Independently-typed reference data: Script=Inherited blocks (UCD 13.0),
# one per line, parsed rather than shared with the implementation.
_REF_INHERITED_LINES = """
0300-036F combining diacritical marks
0485-0486 combining cyrillic dasia and psili
064B-0655 arabic tanwin, shadda, sukun and vowel signs
0670      arabic letter superscript alef
0951-0954 devanagari stress signs
1AB0-1ACE combining diacritical marks extended
1CD0-1CD2 vedic tone marks
1CD4-1CE0 vedic sign group
1CE2-1CE8 vedic sign group
1CED      vedic sign tiryak
1CF4      vedic tone candra above
1CF8-1CF9 vedic tone rings
1DC0-1DFF combining diacritical marks supplement
200C-200D zero width joiners
20D0-20F0 combining marks for symbols
302A-302D ideographic tone marks
3099-309A kana voicing marks
FE00-FE0F variation selectors
FE20-FE2D combining half marks
"""


def _ref_inherited() -> set[int]:
    cps: set[int] = set()
    for line in _REF_INHERITED_LINES.strip().splitlines():
        span = line.split()[0]
        lo, _, hi = span.partition("-")
        cps.update(range(int(lo, 16), int(hi or lo, 16) + 1))
    return cps


REF_INHERITED = _ref_inherited()


def reference_classify(cp: int, prev):
    """Dense-table reference: category plus character-name heuristics."""
    ch = chr(cp)
    if "0" <= ch <= "9":
        return CLASS_ASCII_DIGIT
    category = unicodedata.category(ch)
    name = unicodedata.name(ch, "")
    if category in ("Mn", "Mc", "Me"):
        if cp in REF_INHERITED:
            return prev if prev is not None else CLASS_IGNORE
        return CLASS_ARABIC if name.startswith("ARABIC") else CLASS_IGNORE
    if category.startswith("L"):
        return CLASS_ARABIC if name.startswith("ARABIC") else CLASS_OTHER_LETTER
    if category.startswith("N"):
        if name.startswith(("ARABIC", "EXTENDED ARABIC", "RUMI")):
            return CLASS_ARABIC
        return CLASS_IGNORE
    return CLASS_IGNORE


def test_classify_matches_reference_on_sample():
    for cp in range(0, 0x10000, 7):  # full sweep lives in the acceptance suite
        for prev in (None, CLASS_ARABIC):
            assert classify_char(chr(cp), prev) == reference_classify(cp, prev), hex(cp)


# -- script purity -----------------------------------------------------------


def test_scr_pure_arabic_is_one():
    assert script_purity("مرحبا بالعالم") == 1.0


def test_scr_latin_digits_zero():
    assert script_purity("abc123") == 0.0


def test_scr_counts_nine_eight_three():
    # 9 Arabic letters, 8 Latin letters, 3 ASCII digits -> ASR 0.45.
    text = "ابتثجحخدذ abcdefgh 123"
    tally = tally_scripts(text)
    assert tally == ScriptTally(9, 8, 3)
    assert arabic_script_ratio(tally) == pytest.approx(0.45)
    assert script_purity(text, ScrParams(tau=0.9)) == pytest.approx(0.5)


def test_scr_tau_saturation_exact():
    # ASR exactly 0.9 and above saturate to exactly 1.0.
    assert script_purity("ابتثجحخدذa", ScrParams(tau=0.9)) == 1.0
    assert script_purity("ابتثجحخدذو", ScrParams(tau=0.9)) == 1.0


def test_scr_empty_after_stripping_is_one():
    assert script_purity("https://a.example/x 123@b.co") == 1.0
    assert script_purity("") == 1.0


def test_scr_whitelisting_protects_code():
    impure = "کد `print('hello world')` جید"
    assert script_purity(impure) == script_purity("کد  جید")


def test_scr_params_validation():
    with pytest.raises(ValueError):
        ScrParams(tau=0.0)
    with pytest.raises(ValueError):
        ScrParams(tau=1.5)


# -- CJK ---------------------------------------------------------------------


def test_cjk_detection():
    assert not contains_cjk("hello")
    assert contains_cjk("漢")
    assert not contains_cjk("مرحبا hello مرة")
    assert contains_cjk("ok 㐀 ok")  # extension A
    assert contains_cjk("\U00020000")    # extension B
    assert not contains_cjk("カタカナ")   # kana is not an ideograph block


# -- table and regex kernels against per-character references ----------------


def reference_text_counts(text):
    ws = sum(1 for ch in text if ch.isspace())
    return ws, len(text) - ws


def reference_tally_scripts(text):
    """One codepoint at a time: an inherited mark takes the class of the
    last non-mark before it."""
    arabic = other = digits = 0
    prev_base = None
    for ch in text:
        cls = classify_char(ch, prev_base)
        if unicodedata.category(ch) not in ("Mn", "Mc", "Me"):
            prev_base = cls
        if cls == CLASS_ARABIC:
            arabic += 1
        elif cls == CLASS_OTHER_LETTER:
            other += 1
        elif cls == CLASS_ASCII_DIGIT:
            digits += 1
    return ScriptTally(arabic, other, digits)


def reference_contains_cjk(text):
    return any(lo <= ord(ch) <= hi for ch in text for lo, hi in uniscript.CJK_RANGES)


STRESS_CHARS = (
    list("ابتثجحخدذرسشعغفقكلمنهوي")           # Arabic bases
    + list("\u064b\u064c\u064e\u064f\u0650\u0651\u0652\u0655")  # harakat
    + ["\u0670"]                                # superscript alef
    + ["\u200c", "\u200d"]                     # ZWNJ, ZWJ
    + ["\ufe00", "\ufe0f", "\U000e0100"]      # variation selectors
    + ["\u0301", "\u0485", "\u20dd"]          # other Script=Inherited marks
    + ["\u0610", "\u06d6", "\u06ed", "\u08d3"]   # Arabic non-inherited marks
    + ["\u0903", "\u0e31", "\u0488", "\u093c"]   # other non-inherited marks
    + ["\U0001d400", "\U00010400", "\U0001ee00", "\U00010e60"]  # astral
    + ["漢", "\u3400", "\u9fff", "\uf900", "\U00020000", "\U0002f800",
       "\U000323af", "カ", "\u3007"]              # CJK and near misses
    + ["\u00a0", "\u2028", "\u2029", "\u3000", "\u1680", "\x85", "\x1c",
       "\u180e", "\u200b", "\ufeff"]            # exotic (non-)whitespace
    + list("aZ09٣۳ .?!؟۔\n\t_#")
)
stress_text = st.text(
    alphabet=st.sampled_from(STRESS_CHARS) | st.characters(blacklist_categories=("Cs",)),
    max_size=200)


@given(stress_text)
@settings(max_examples=500)
def test_tally_scripts_matches_reference(text):
    metrics._SCRIPT_CLASSES.clear()  # fill the class table from empty
    assert tally_scripts(text) == reference_tally_scripts(text)
    assert tally_scripts(text) == reference_tally_scripts(text)  # and from full


@given(stress_text)
@settings(max_examples=300)
def test_text_counts_matches_reference(text):
    assert text_counts(text) == reference_text_counts(text)


@given(stress_text)
@settings(max_examples=300)
def test_contains_cjk_matches_reference(text):
    assert contains_cjk(text) == reference_contains_cjk(text)


def test_text_counts_on_every_codepoint():
    text = "".join(map(chr, itertools.chain(range(0xD800), range(0xE000, 0x110000))))
    assert text_counts(text) == reference_text_counts(text)
    assert text_counts(text)[0] == len(re.findall(r"\s", text))  # \s is str.isspace


def test_tally_scripts_on_every_bmp_codepoint_before_a_mark():
    # Each codepoint is the base (or not) of the inherited fatha after it.
    text = "".join(chr(cp) + "\u064e" for cp in
                   itertools.chain(range(0xD800), range(0xE000, 0x10000)))
    assert tally_scripts(text) == reference_tally_scripts(text)


# -- score_example -----------------------------------------------------------


def test_score_identity_arabic_candidate():
    conv = make_conversation("c", contents=[("user", "مرحبا"), ("assistant", "بالعالم")])
    score = score_example(conv, Candidate("c", "m", conv))
    assert score.lr == 1.0
    assert score.scr == 1.0
    assert score.turns == 2


def test_score_turns_counts_messages():
    conv = make_conversation("c", contents=[("user", "a"), ("assistant", "b")])
    assert score_example(conv, Candidate("c", "m", conv)).turns == 2


def test_score_empty_candidate_side_zeroes_lr():
    source = make_conversation("c", contents=[("assistant", "some words here")])
    empty = make_conversation("c", contents=[("assistant", "")])
    score = score_example(source, Candidate("c", "m", empty))
    assert score.lr == 0.0


def test_score_structure_mismatch_raises():
    from tarjama.corpus import StructureMismatchError
    source = make_conversation("c", contents=[("user", "a"), ("assistant", "b")])
    other = make_conversation("c", contents=[("user", "a")])
    with pytest.raises(StructureMismatchError):
        score_example(source, Candidate("c", "m", other))


def test_score_tokens_sum_over_messages():
    conv = make_conversation("c", contents=[("user", "a b"), ("assistant", "c d")])
    assert score_example(conv, Candidate("c", "m", conv)).tokens == 6
