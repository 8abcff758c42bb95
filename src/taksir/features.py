"""Feature bundles: what the generator writes into each paradigm cell and the
reader takes back from a stored tag, importable without either side."""

import functools
from collections import namedtuple

NUMBERS = ("s", "d", "p", "q")
DEFINITENESS = ("D", "i", "a")
CASES = ("N", "A", "G")


class FeatureBundle(namedtuple("FeatureBundle", "gender number definiteness case pro_compat", defaults=(False,))):
    """The features of one paradigm cell: gender m, f or none, number s, d,
    p or q, definiteness D, i or a, and case N, A or G.  Paradigms and
    ``from_tag`` share one interned bundle per distinct feature set (see
    ``_bundle``).  Its instance dict keeps its tag, which equality and
    hashing ignore."""

    def __new__(cls, gender: str, number: str, definiteness: str, case: str, pro_compat: bool = False):
        if number == "q" and gender != "none":
            raise ValueError("broken plurals carry no gender")
        if pro_compat and definiteness != "a":
            raise ValueError("pronoun-compatible forms are construct-state")
        self = super().__new__(cls, gender, number, definiteness, case, pro_compat)
        g = "" if gender == "none" else gender
        self._tag = f"N:{g}{number}:{definiteness}:{case}" + (":+pro" if pro_compat else "")
        return self

    @classmethod
    def _make(cls, fields) -> "FeatureBundle":
        return cls(*fields)     # so that ``_replace`` checks and tags its bundle too

    def tag(self) -> str:
        return self._tag

    @classmethod
    @functools.lru_cache(maxsize=None)
    def from_tag(cls, tag: str) -> "FeatureBundle":
        parts = tag.split(":")
        if (len(parts) not in (4, 5) or parts[0] != "N" or parts[1][:-1] not in ("", "m", "f")
                or parts[1][-1:] not in NUMBERS or parts[2] not in DEFINITENESS or parts[3] not in CASES
                or parts[4:] not in ([], ["+pro"])):
            raise ValueError(f"malformed feature tag {tag!r}")
        gender = parts[1][0] if len(parts[1]) == 2 else "none"
        return _bundle(gender, parts[1][-1], parts[2], parts[3], len(parts) == 5)


#: The one FeatureBundle of a feature set (arguments positional).
_bundle = functools.lru_cache(maxsize=None)(FeatureBundle)
