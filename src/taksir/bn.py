"""Codec between Arabic script and the Latin transliteration used internally.

Every other module works on transliterated strings: one Latin character per
Arabic codepoint, upper/lower case distinguishing independent letters.  The
mapping lives in ``data/bn_table.txt`` so it can be audited line by line.
Whitespace and ASCII punctuation pass through both ways; anything else
(presentation forms, tatweel, digits) is rejected rather than normalized,
which keeps the codec bijective.  One ``str.translate`` pass decides: its
result is ASCII exactly when the codec knows every character.
"""

import functools
from collections import namedtuple

from .errors import DataError, InvalidBnChar, UnmappedCodepoint, data_rows, data_text

#: The silent diacritic (sukun): rules out a non-scripted short vowel.
SILENT = "o"

#: Gemination mark (shadda): doubles the preceding consonant.
SHADDA = "G"

#: Indefiniteness case endings (tanwin).
TANWIN = "FNK"

DIACRITICS = frozenset("auioFNKG")

#: Context-dependent spellings of the glottal stop.
HAMZA_LETTERS = frozenset("cCOWIe")

_PASSTHROUGH = frozenset(" \t\n.,;:!?()[]\"'-_/0123456789")


class _Codec(namedtuple("_Codec", "ar2bn bn2ar translation basic_letters alphabet")):
    """The codec table both ways; ``translation`` is ar2bn as a
    str.translate table that also sends each ASCII character outside the
    passthrough to a non-ASCII sentinel."""

    __slots__ = ()


@functools.lru_cache(maxsize=1)
def _codec() -> _Codec:
    """The codec table, read on first use: a refused row raises where the
    CLI reports it, not at import."""
    ar2bn: dict[str, str] = {}
    bn2ar: dict[str, str] = {}
    for lineno, (hexpoint, latin) in data_rows(data_text("bn_table.txt"), "codec table", 2):
        arabic = chr(int(hexpoint, 16))
        if arabic.isascii() or not (len(latin) == 1 and latin.isascii() and latin.isalpha()):
            raise DataError("codec table", lineno, "expected a non-ASCII code point and one ASCII letter")
        if arabic in ar2bn or latin in bn2ar:     # the codec must stay a bijection
            repeated = f"code point {hexpoint}" if arabic in ar2bn else f"letter {latin}"
            raise DataError("codec table", lineno, f"duplicate {repeated}")
        ar2bn[arabic] = latin
        bn2ar[latin] = arabic
    basic = frozenset(c for c in bn2ar if c not in DIACRITICS)
    unknown = dict.fromkeys((chr(i) for i in range(128) if chr(i) not in _PASSTHROUGH), "\ufffd")
    return _Codec(ar2bn, bn2ar, str.maketrans(ar2bn | unknown), basic, basic | DIACRITICS)


def __getattr__(name: str):
    # BASIC_LETTERS, ALPHABET and _AR2BN are fields of the codec, read on first use.
    if name in ("BASIC_LETTERS", "ALPHABET", "_AR2BN"):
        return getattr(_codec(), name.strip("_").lower())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def classify(c: str) -> str:
    """Classify a transliteration character as ``'basic'`` or ``'diacritic'``.

    The classification is total over the alphabet: diacritics are exactly
    a, u, i, o, F, N, K, G and every other alphabet character is basic.
    """
    if c in DIACRITICS:
        return "diacritic"
    if c in _codec().basic_letters:
        return "basic"
    raise InvalidBnChar(c, 0)


def is_diacritic(c: str) -> bool:
    return c in DIACRITICS


def to_bn(text: str) -> str:
    """Transliterate Arabic script, character by character."""
    latin = text.translate(_codec().translation)
    if latin.isascii():
        return latin
    ar2bn = _codec().ar2bn
    i, ch = next((i, ch) for i, ch in enumerate(text) if ch not in ar2bn and ch not in _PASSTHROUGH)
    raise UnmappedCodepoint(ch, i)


def to_bn_if_known(text: str) -> str:
    """``to_bn`` of a text whose every character the codec knows; any other
    text as written (no dictionary form can match it, so it is UNK)."""
    latin = text.translate(_codec().translation)
    return latin if latin.isascii() else text


def to_arabic(text: str) -> str:
    """Inverse transliteration; ``to_bn(to_arabic(s)) == s`` for valid input."""
    out, bn2ar = [], _codec().bn2ar
    for i, ch in enumerate(text):
        if ch in bn2ar:
            out.append(bn2ar[ch])
        elif ch in _PASSTHROUGH:
            out.append(ch)
        else:
            raise InvalidBnChar(ch, i)
    return "".join(out)


def looks_arabic(text: str) -> bool:
    """True if the string contains any codepoint from the Arabic table."""
    return not _codec().ar2bn.keys().isdisjoint(text)


def validate_bn(text: str) -> None:
    """Raise InvalidBnChar unless every character is in the alphabet
    (spaces, digits and punctuation are not)."""
    alphabet = _codec().alphabet
    for i, ch in enumerate(text):
        if ch not in alphabet:
            raise InvalidBnChar(ch, i)


def strip_diacritics(text: str) -> str:
    return "".join(c for c in text if c not in DIACRITICS)
