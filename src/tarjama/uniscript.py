"""Unicode script property tables used by the quality metrics.

The ranges below are extracted from the Unicode Character Database
(Scripts.txt / ScriptExtensions.txt) and pinned to the version in
``TABLE_VERSION``.  Category lookups go through :mod:`unicodedata` at
runtime, so only script membership is frozen here.  Reports record both
versions so numbers stay attributable to a table revision.
"""

from __future__ import annotations

import bisect
import unicodedata

# Version of the UCD the ranges were curated against.
TABLE_VERSION = "13.0.0"


def runtime_unicodedata_version() -> str:
    return unicodedata.unidata_version


# Script=Arabic plus blocks whose Script_Extensions include Arabic
# (tatweel, Arabic-Indic digits, presentation forms).  Category checks
# gate usage, so whole blocks are safe to list.
ARABIC_RANGES: tuple[tuple[int, int], ...] = (
    (0x0600, 0x06FF),  # Arabic
    (0x0750, 0x077F),  # Arabic Supplement
    (0x0870, 0x089F),  # Arabic Extended-B
    (0x08A0, 0x08FF),  # Arabic Extended-A
    (0xFB50, 0xFDFF),  # Arabic Presentation Forms-A
    (0xFE70, 0xFEFF),  # Arabic Presentation Forms-B
    (0x10E60, 0x10E7E),  # Rumi Numeral Symbols
    (0x10EC0, 0x10EFF),  # Arabic Extended-C
    (0x1EE00, 0x1EEFF),  # Arabic Mathematical Alphabetic Symbols
)

# Script=Inherited: combining marks that take the script of their base.
# Within the Arabic block this covers the harakat (U+064B..U+0655) and
# the superscript alef (U+0670), which are shared with Syriac.
INHERITED_RANGES: tuple[tuple[int, int], ...] = (
    (0x0300, 0x036F),  # Combining Diacritical Marks
    (0x0485, 0x0486),  # combining Cyrillic dasia/psili
    (0x064B, 0x0655),  # Arabic tanwin, shadda, sukun, vowel signs
    (0x0670, 0x0670),  # Arabic letter superscript alef
    (0x0951, 0x0954),  # Devanagari stress signs
    (0x1AB0, 0x1ACE),  # Combining Diacritical Marks Extended
    (0x1CD0, 0x1CD2),  # Vedic tone marks
    (0x1CD4, 0x1CE0),
    (0x1CE2, 0x1CE8),
    (0x1CED, 0x1CED),
    (0x1CF4, 0x1CF4),
    (0x1CF8, 0x1CF9),
    (0x1DC0, 0x1DFF),  # Combining Diacritical Marks Supplement
    (0x200C, 0x200D),  # ZWNJ/ZWJ
    (0x20D0, 0x20F0),  # Combining Marks for Symbols
    (0x302A, 0x302D),  # ideographic tone marks
    (0x3099, 0x309A),  # kana voicing marks
    (0xFE00, 0xFE0F),  # variation selectors
    (0xFE20, 0xFE2D),  # combining half marks
    (0x101FD, 0x101FD),
    (0x102E0, 0x102E0),
    (0x1133B, 0x1133B),
    (0x1D167, 0x1D169),
    (0x1D17B, 0x1D182),
    (0x1D185, 0x1D18B),
    (0x1D1AA, 0x1D1AD),
    (0xE0100, 0xE01EF),
)

# CJK Unified Ideographs (all extensions) and Compatibility Ideographs.
CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x3400, 0x4DBF),  # Extension A
    (0x4E00, 0x9FFF),  # Unified Ideographs
    (0xF900, 0xFAFF),  # Compatibility Ideographs
    (0x20000, 0x2A6DF),  # Extension B
    (0x2A700, 0x2B73F),  # Extension C
    (0x2B740, 0x2B81F),  # Extension D
    (0x2B820, 0x2CEAF),  # Extension E
    (0x2CEB0, 0x2EBEF),  # Extension F
    (0x2EBF0, 0x2EE5F),  # Extension I
    (0x2F800, 0x2FA1F),  # Compatibility Supplement
    (0x30000, 0x3134F),  # Extension G
    (0x31350, 0x323AF),  # Extension H
)


def _starts(ranges: tuple[tuple[int, int], ...]) -> list[int]:
    return [lo for lo, _ in ranges]


_ARABIC_STARTS = _starts(ARABIC_RANGES)
_INHERITED_STARTS = _starts(INHERITED_RANGES)


def _in_ranges(cp: int, starts: list[int], ranges: tuple[tuple[int, int], ...]) -> bool:
    i = bisect.bisect_right(starts, cp) - 1
    return i >= 0 and cp <= ranges[i][1]


def is_arabic_script(cp: int) -> bool:
    return _in_ranges(cp, _ARABIC_STARTS, ARABIC_RANGES)


def is_inherited(cp: int) -> bool:
    return _in_ranges(cp, _INHERITED_STARTS, INHERITED_RANGES)
