"""Intrinsic translation quality metrics.

Language Ratio (LR) softly penalizes source/target length drift: with
whitespace counts W and non-whitespace character counts C,

    LR = min(exp(-alpha * |log(W_y / W_x)|), exp(-alpha * |log(C_y / C_x)|))

where a 0/0 count pair contributes factor 1 and an asymmetric zero
contributes factor 0.  Script Purity (SCR) measures the share of
Arabic-script letters/digits among scored characters after whitelisted
spans (URLs, emails, code, math) are removed, divided by a leeway
threshold tau and capped at 1.  A Script=Inherited mark counts in the
class of the base character before it.
"""

from __future__ import annotations

import heapq
import math
import re
import string
import unicodedata
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional

from . import uniscript
from .corpus import Candidate, Conversation, validate_candidate_structure
from .tokenizers import TokenizerSpec, count_tokens

DEFAULT_ALPHA = 1.25
DEFAULT_TAU = 0.90

CLASS_ARABIC = "arabic"
CLASS_OTHER_LETTER = "other_letter"
CLASS_ASCII_DIGIT = "ascii_digit"
CLASS_IGNORE = "ignore"

_MARK_CATEGORIES = ("Mn", "Mc", "Me")


class LrInputs:
    __slots__ = ("source_whitespace", "target_whitespace", "source_chars",
                 "target_chars", "alpha")

    def __init__(self, source_whitespace: int, target_whitespace: int,
                 source_chars: int, target_chars: int,
                 alpha: float = DEFAULT_ALPHA) -> None:
        if min(source_whitespace, target_whitespace, source_chars, target_chars) < 0:
            raise ValueError("counts must be non-negative")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.source_whitespace = source_whitespace
        self.target_whitespace = target_whitespace
        self.source_chars = source_chars
        self.target_chars = target_chars
        self.alpha = alpha


class ScrParams:
    __slots__ = ("tau",)

    def __init__(self, tau: float = DEFAULT_TAU) -> None:
        if not 0 < tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        self.tau = tau


class ScriptTally(NamedTuple):
    arabic: int
    other_letters: int
    ascii_digits: int


class QualityScore(NamedTuple):
    lr: float
    scr: float
    tokens: int
    turns: int


def _ratio_factor(target: int, source: int, alpha: float) -> float:
    if source == 0 and target == 0:
        return 1.0
    if source == 0 or target == 0:
        return 0.0
    return math.exp(-alpha * abs(math.log(target / source)))


def lr_score(inputs: LrInputs) -> float:
    return min(
        _ratio_factor(inputs.target_whitespace, inputs.source_whitespace, inputs.alpha),
        _ratio_factor(inputs.target_chars, inputs.source_chars, inputs.alpha),
    )


def text_counts(text: str) -> tuple[int, int]:
    """(whitespace codepoints, non-whitespace codepoints).

    ``str.split`` cuts at exactly the code points ``str.isspace`` accepts,
    the ones ``re``'s ``\\s`` matches."""
    chars = sum(map(len, text.split()))
    return len(text) - chars, chars


def language_ratio(source: str, target: str, alpha: float = DEFAULT_ALPHA) -> float:
    ws_x, ch_x = text_counts(source)
    ws_y, ch_y = text_counts(target)
    return lr_score(LrInputs(ws_x, ws_y, ch_x, ch_y, alpha))


# -- whitelist stripping -----------------------------------------------------

_URL_RE = re.compile(r"(?:[A-Za-z][A-Za-z0-9+.-]*://|www\.)\S+")
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_LETTER_RE = re.compile("[A-Za-z]")
_SCHEME_CHARS = frozenset(string.ascii_letters + string.digits + "+.-")
_LOCAL_PART_CHARS = frozenset(string.ascii_letters + string.digits + "._%+-")


def _find_all(text: str, literal: str) -> Iterator[int]:
    at = text.find(literal)
    while at != -1:
        yield at
        at = text.find(literal, at + 1)


def _run_start(text: str, end: int, chars: frozenset) -> int:
    """Where the run of *chars* that ends at *end* starts."""
    start = end
    while start and text[start - 1] in chars:
        start -= 1
    return start


def _strip_from(pattern: re.Pattern, starts: Iterable[int], text: str) -> str:
    """``pattern.sub("", text)`` for a pattern whose leftmost match at or
    after any position ``pos`` starts at ``max(s, pos)`` for one of the
    ascending *starts* ``s``.  Only those positions are tried; ``sub``
    tries every one, and each failed try can scan the rest of a word, which
    is quadratic in a long run of letters."""
    kept, pos = [], 0
    for start in starts:
        match = pattern.match(text, max(start, pos))
        if match is not None:
            kept.append(text[pos:match.start()])
            pos = match.end()
    kept.append(text[pos:])
    return "".join(kept)


def _scheme_starts(text: str) -> Iterator[int]:
    """The first letter of the scheme characters before each ``://``."""
    for at in _find_all(text, "://"):
        letter = _LETTER_RE.search(text, _run_start(text, at, _SCHEME_CHARS), at)
        if letter is not None:
            yield letter.start()


# A URL match runs from its start to the next whitespace, so the next
# match starts past whitespace, where no scheme run reaches back.  An email
# match holds one "@" and starts where the local-part run before it does,
# or at the end of the match before it.
def _strip_urls(text: str) -> str:
    return _strip_from(_URL_RE, heapq.merge(_scheme_starts(text), _find_all(text, "www.")),
                       text)


def _strip_emails(text: str) -> str:
    return _strip_from(_EMAIL_RE, (_run_start(text, at, _LOCAL_PART_CHARS)
                                   for at in _find_all(text, "@")), text)


# Fenced code and \(..\)/\[..\] math extend to end of text when
# unterminated; inline code requires a closing backtick; dollar math
# requires a closer within 200 characters so currency amounts survive.
# Each strip runs only when the text holds one of its literals, which
# every span it removes contains; URL and email spans are found from
# their literals.
_STRIPS = (
    (("```",), partial(re.compile(r"```.*?(?:```|\Z)", re.DOTALL).sub, "")),
    (("`",), partial(re.compile(r"`[^`]*`").sub, "")),
    (("$$",), partial(re.compile(r"\$\$.{0,200}?\$\$", re.DOTALL).sub, "")),
    (("$",), partial(re.compile(r"\$.{0,200}?\$", re.DOTALL).sub, "")),
    (("\\(",), partial(re.compile(r"\\\(.*?(?:\\\)|\Z)", re.DOTALL).sub, "")),
    (("\\[",), partial(re.compile(r"\\\[.*?(?:\\\]|\Z)", re.DOTALL).sub, "")),
    (("://", "www."), _strip_urls),
    (("@",), _strip_emails),
)


def strip_whitelisted(text: str) -> str:
    """Remove URL/email/code/math spans; repeats until stable so the
    operation is idempotent even when a removal juxtaposes new spans."""
    while True:
        stripped = text
        for literals, strip in _STRIPS:
            for literal in literals:
                if literal in stripped:
                    stripped = strip(stripped)
                    break
        if stripped == text:
            return stripped
        text = stripped


def classify_char(ch: str, prev_base_class: Optional[str] = None) -> str:
    """Script class of one codepoint given the preceding base's class."""
    if "0" <= ch <= "9":
        return CLASS_ASCII_DIGIT
    cp = ord(ch)
    category = unicodedata.category(ch)
    if category in _MARK_CATEGORIES:
        if uniscript.is_inherited(cp):
            return prev_base_class if prev_base_class is not None else CLASS_IGNORE
        if uniscript.is_arabic_script(cp):
            return CLASS_ARABIC
        return CLASS_IGNORE
    if category.startswith("L"):
        return CLASS_ARABIC if uniscript.is_arabic_script(cp) else CLASS_OTHER_LETTER
    if category.startswith("N"):
        return CLASS_ARABIC if uniscript.is_arabic_script(cp) else CLASS_IGNORE
    return CLASS_IGNORE


# SCR tallies a text by translating it to one letter per codepoint.
# Bases -- every codepoint that is not a mark -- map to the letter of
# their class.  Marks outside Script=Inherited have a class of their own
# (Arabic or ignored) but do not change the base, so they get letters of
# their own.  Script=Inherited marks (UAX #24) map to "m" and take the
# class of the nearest base before them.
_BASE_LETTERS = {CLASS_ARABIC: "a", CLASS_OTHER_LETTER: "o",
                 CLASS_ASCII_DIGIT: "d", CLASS_IGNORE: "i"}
_OWN_CLASS_MARK_LETTERS = {CLASS_ARABIC: "A", CLASS_IGNORE: "I"}
_INHERITED_LETTER = "m"
_DROP_OWN_CLASS_MARKS = str.maketrans("", "", "".join(_OWN_CLASS_MARK_LETTERS.values()))
_ARABIC_MARK_RUN = re.compile("a(m+)")
_OTHER_LETTER_MARK_RUN = re.compile("o(m+)")
_DIGIT_MARK_RUN = re.compile("d(m+)")


def _class_letter(ch: str) -> str:
    """The SCR class letter of one codepoint, from classify_char."""
    # Only an inherited mark's class depends on the base before it.
    if classify_char(ch, CLASS_ARABIC) != classify_char(ch, CLASS_OTHER_LETTER):
        return _INHERITED_LETTER
    if unicodedata.category(ch) in _MARK_CATEGORIES:
        return _OWN_CLASS_MARK_LETTERS[classify_char(ch)]
    return _BASE_LETTERS[classify_char(ch)]


# Codepoint -> class letter, filled on first use: all of ASCII at once, then
# each other codepoint when a text first holds it.  Every letter is ASCII,
# so a translation that is not ASCII still holds codepoints not yet seen.
_SCRIPT_CLASSES: dict[int, str] = {}


def _classify_new(chars: Iterable[str]) -> None:
    _SCRIPT_CLASSES.update((ord(ch), _class_letter(ch)) for ch in chars)


def _marks_after(run: re.Pattern, classes: str) -> int:
    return len("".join(run.findall(classes)))


def tally_scripts(text: str) -> ScriptTally:
    if not _SCRIPT_CLASSES:
        _classify_new(map(chr, range(128)))
    classes = text.translate(_SCRIPT_CLASSES)
    if not classes.isascii():
        _classify_new([ch for ch in set(classes) if not ch.isascii()])
        classes = text.translate(_SCRIPT_CLASSES)
    arabic = classes.count("a") + classes.count("A")
    other = classes.count("o")
    digits = classes.count("d")
    if _INHERITED_LETTER in classes:
        # Own-class marks sit inside a run of inherited marks without
        # breaking it, so drop them before matching base + run.
        classes = classes.translate(_DROP_OWN_CLASS_MARKS)
        arabic += _marks_after(_ARABIC_MARK_RUN, classes)
        other += _marks_after(_OTHER_LETTER_MARK_RUN, classes)
        digits += _marks_after(_DIGIT_MARK_RUN, classes)
    return ScriptTally(arabic, other, digits)


def arabic_script_ratio(tally: ScriptTally) -> float:
    denom = tally.arabic + tally.other_letters + tally.ascii_digits
    if denom == 0:
        return 1.0
    return tally.arabic / denom


def script_purity(target: str, params: ScrParams = ScrParams()) -> float:
    tally = tally_scripts(strip_whitelisted(target))
    return min(1.0, arabic_script_ratio(tally) / params.tau)


_CJK_RE: Optional[re.Pattern] = None


def contains_cjk(text: str) -> bool:
    global _CJK_RE
    if _CJK_RE is None:  # compiled on first use: only the filter needs it
        _CJK_RE = re.compile("[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}"
                                             for lo, hi in uniscript.CJK_RANGES) + "]")
    return _CJK_RE.search(text) is not None


def score_example(source: Conversation, candidate: Candidate,
                  alpha: float = DEFAULT_ALPHA, tau: float = DEFAULT_TAU,
                  tokenizer: Optional[TokenizerSpec] = None) -> QualityScore:
    """Per-example quality score for one translated candidate.

    LR compares the concatenated source contents against the concatenated
    translated contents; SCR scores the translated side only; tokens sum
    per-message token counts of the translation.
    """
    validate_candidate_structure(source, candidate)
    spec = tokenizer or TokenizerSpec.builtin()
    source_text = "".join(m.content for m in source.messages)
    target_text = "".join(m.content for m in candidate.conversation.messages)
    return QualityScore(
        lr=language_ratio(source_text, target_text, alpha),
        scr=script_purity(target_text, ScrParams(tau)),
        tokens=sum(count_tokens(m.content, spec) for m in candidate.conversation.messages),
        turns=len(candidate.conversation.messages),
    )
