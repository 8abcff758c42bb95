"""Codec between Arabic script and the Latin transliteration used internally.

Every other module works on transliterated strings: one Latin character per
Arabic codepoint, upper/lower case distinguishing independent letters.  The
mapping lives in ``data/bn_table.txt`` so it can be audited line by line.
Whitespace and ASCII punctuation pass through both ways; anything else
(presentation forms, tatweel, digits) is rejected rather than normalized,
which keeps the codec bijective.
"""

from importlib import resources

from .errors import InvalidBnChar, UnmappedCodepoint, data_rows

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


def _load_table() -> tuple[dict[str, str], dict[str, str]]:
    ar2bn: dict[str, str] = {}
    bn2ar: dict[str, str] = {}
    text = resources.files(__package__).joinpath("data/bn_table.txt").read_text("utf-8")
    for _, (hexpoint, latin) in data_rows(text, "codec table", 2):
        arabic = chr(int(hexpoint, 16))
        ar2bn[arabic] = latin
        bn2ar[latin] = arabic
    return ar2bn, bn2ar


_AR2BN, _BN2AR = _load_table()

BASIC_LETTERS = frozenset(c for c in _BN2AR if c not in DIACRITICS)

ALPHABET = BASIC_LETTERS | DIACRITICS

_TO_BN = str.maketrans(_AR2BN)
_TO_BN_KNOWN = frozenset(_AR2BN) | _PASSTHROUGH


def classify(c: str) -> str:
    """Classify a transliteration character as ``'basic'`` or ``'diacritic'``.

    The classification is total over the alphabet: diacritics are exactly
    a, u, i, o, F, N, K, G and every other alphabet character is basic.
    """
    if c in DIACRITICS:
        return "diacritic"
    if c in BASIC_LETTERS:
        return "basic"
    raise InvalidBnChar(c, 0)


def is_diacritic(c: str) -> bool:
    return c in DIACRITICS


def to_bn(text: str) -> str:
    """Transliterate Arabic script, character by character."""
    if _TO_BN_KNOWN.issuperset(text):
        return text.translate(_TO_BN)
    i, ch = next((i, ch) for i, ch in enumerate(text) if ch not in _TO_BN_KNOWN)
    raise UnmappedCodepoint(ch, i)


def to_arabic(text: str) -> str:
    """Inverse transliteration; ``to_bn(to_arabic(s)) == s`` for valid input."""
    out = []
    for i, ch in enumerate(text):
        if ch in _BN2AR:
            out.append(_BN2AR[ch])
        elif ch in _PASSTHROUGH:
            out.append(ch)
        else:
            raise InvalidBnChar(ch, i)
    return "".join(out)


def looks_arabic(text: str) -> bool:
    """True if the string contains any codepoint from the Arabic table."""
    return not _AR2BN.keys().isdisjoint(text)


def validate_bn(text: str) -> None:
    """Raise InvalidBnChar unless every character is in the alphabet
    (spaces, digits and punctuation are not)."""
    for i, ch in enumerate(text):
        if ch not in ALPHABET:
            raise InvalidBnChar(ch, i)


def strip_diacritics(text: str) -> str:
    return "".join(c for c in text if c not in DIACRITICS)
