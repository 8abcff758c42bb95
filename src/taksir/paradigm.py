"""Generation of full inflected paradigms.

Every entry yields singular, dual and broken-plural stems crossed with the
3x3 grid of definiteness (D definite, i indefinite, a construct) and case
(N/A/G).  Gender-inflecting entries double the singular and dual with a
feminine stem in -ap; the broken plural itself carries no gender.  Construct
cells additionally yield the variant that combines with an attached genitive
pronoun: -ap is realised as -at- and a stem-final glottal stop is re-seated
against the case vowel.
"""

import functools
from dataclasses import dataclass

from .classes import ClassRegistry, render_bp_stem, seat_hamzas, substitute_madda
from .codes import HAMZA, apply_root_code

DEFINITENESS = ("D", "i", "a")
CASES = ("N", "A", "G")

#: Glottal-stop spellings that can close a stem.
_FINAL_HAMZA = ("c", "O", "W", "e")


@dataclass(frozen=True)
class FeatureBundle:
    """The features of one paradigm cell.  Paradigms and ``from_tag`` share
    one interned bundle per distinct feature set (see ``_bundle``)."""

    gender: str          # m | f | none
    number: str          # s | d | p | q
    definiteness: str    # D | i | a
    case: str            # N | A | G
    pro_compat: bool = False

    def __post_init__(self):
        if self.number == "q" and self.gender != "none":
            raise ValueError("broken plurals carry no gender")
        if self.pro_compat and self.definiteness != "a":
            raise ValueError("pronoun-compatible forms are construct-state")
        g = "" if self.gender == "none" else self.gender
        tag = f"N:{g}{self.number}:{self.definiteness}:{self.case}" + (":+pro" if self.pro_compat else "")
        object.__setattr__(self, "_tag", tag)  # not a field: equality and hashing ignore it

    def tag(self) -> str:
        return self._tag

    @classmethod
    @functools.lru_cache(maxsize=None)
    def from_tag(cls, tag: str) -> "FeatureBundle":
        parts = tag.split(":")
        if not 4 <= len(parts) <= 5 or parts[0] != "N" or len(parts[1]) not in (1, 2):
            raise ValueError(f"malformed feature tag {tag!r}")
        gn = parts[1]
        gender = gn[0] if len(gn) == 2 else "none"
        number = gn[-1]
        return _bundle(gender, number, parts[2], parts[3], len(parts) > 4 and parts[4] == "+pro")


#: The one FeatureBundle of a feature set (arguments positional).
_bundle = functools.lru_cache(maxsize=None)(FeatureBundle)


@dataclass(frozen=True)
class InflectedForm:
    surface: str
    features: FeatureBundle
    standalone: bool = True     # False for bound pro-variants (-at-, re-seated hamza)


@dataclass(frozen=True)
class Cell:
    suffix: str
    transform: str = "none"     # none | drop-iy


#: (definiteness, case) -> Cell, per suffix paradigm.  Definite surfaces are
#: prefixed with Al- on top of these suffixes.
SUFFIX_PARADIGMS: dict[str, dict[tuple[str, str], Cell]] = {
    "triptote": {
        ("D", "N"): Cell("u"), ("D", "A"): Cell("a"), ("D", "G"): Cell("i"),
        ("i", "N"): Cell("N"), ("i", "A"): Cell("FA"), ("i", "G"): Cell("K"),
        ("a", "N"): Cell("u"), ("a", "A"): Cell("a"), ("a", "G"): Cell("i"),
    },
    # No nunation; indefinite genitive folds into the accusative -a.
    "diptote": {
        ("D", "N"): Cell("u"), ("D", "A"): Cell("a"), ("D", "G"): Cell("i"),
        ("i", "N"): Cell("u"), ("i", "A"): Cell("a"), ("i", "G"): Cell("a"),
        ("a", "N"): Cell("u"), ("a", "A"): Cell("a"), ("a", "G"): Cell("i"),
    },
    # Nunated like a triptote but the accusative tanwin takes no alif seat.
    "ap-final": {
        ("D", "N"): Cell("u"), ("D", "A"): Cell("a"), ("D", "G"): Cell("i"),
        ("i", "N"): Cell("N"), ("i", "A"): Cell("F"), ("i", "G"): Cell("K"),
        ("a", "N"): Cell("u"), ("a", "A"): Cell("a"), ("a", "G"): Cell("i"),
    },
    # The -iy tail is part of the stem; it detaches in the nunated N/G cells.
    # The indefinite accusative (tail kept, tanwin on the final y) is the one
    # cell without an attested exemplar; treat it as low-confidence.
    "defective-iy": {
        ("D", "N"): Cell(""), ("D", "A"): Cell("a"), ("D", "G"): Cell(""),
        ("i", "N"): Cell("K", "drop-iy"), ("i", "A"): Cell("FA"), ("i", "G"): Cell("K", "drop-iy"),
        ("a", "N"): Cell(""), ("a", "A"): Cell("a"), ("a", "G"): Cell(""),
    },
    # Bare stem in all nine cells: no case vowel ever lands on -aY or -aA.
    "invariable-aY": {
        (d, c): Cell("") for d in DEFINITENESS for c in CASES
    },
}

DUAL_SUFFIXES = {
    ("D", "N"): "aAni", ("D", "A"): "ayoni", ("D", "G"): "ayoni",
    ("i", "N"): "aAni", ("i", "A"): "ayoni", ("i", "G"): "ayoni",
    ("a", "N"): "aA", ("a", "A"): "ayo", ("a", "G"): "ayo",
}


def _apply_cell(stem: str, cell: Cell) -> str:
    base = stem
    if cell.transform == "drop-iy":
        base = stem[:-2]
    suffix = cell.suffix
    if suffix == "FA" and (base.endswith("Aoc") or base.endswith("O")):
        suffix = "F"  # no alif seat after -aA' or hamza-on-alif
    return substitute_madda(base + suffix)


def _pro_variant(stem: str, cell: Cell, paradigm: str) -> str:
    """Construct-cell surface used before an attached pronoun.  -ap is
    realised as -at-, and a stem-final glottal stop, word-medial once a
    pronoun attaches, is re-seated against the case vowel."""
    base = stem
    if paradigm == "ap-final":
        base = stem[:-1] + "t"
    if cell.suffix and base.endswith(_FINAL_HAMZA):
        return seat_hamzas([*base[:-1], HAMZA, cell.suffix])
    return substitute_madda(base + cell.suffix)


def dual_forms(stem: str, paradigm: str) -> dict[tuple[str, str], str]:
    """The nine dual cells of a singular stem."""
    base = stem
    if paradigm == "ap-final":
        base = stem[:-1] + "t"
    elif paradigm == "invariable-aY" and stem.endswith("Y"):
        base = stem[:-1] + "y"
    cells = {}
    for (d, c), suffix in DUAL_SUFFIXES.items():
        surface = substitute_madda(base + suffix)
        if d == "D":
            surface = "Al" + surface
        cells[(d, c)] = surface
    return cells


def _number_cells(stem: str, paradigm: str, gender: str, number: str) -> list[InflectedForm]:
    forms: list[InflectedForm] = []
    cells = SUFFIX_PARADIGMS[paradigm]
    for d in DEFINITENESS:
        for c in CASES:
            cell = cells[(d, c)]
            surface = _apply_cell(stem, cell)
            if d == "D":
                surface = "Al" + surface
            pro = _pro_variant(stem, cell, paradigm) if d == "a" else None
            forms.append(InflectedForm(surface, _bundle(gender, number, d, c, pro == surface)))
            if pro not in (None, surface):
                forms.append(InflectedForm(pro, _bundle(gender, number, d, c, True), standalone=False))
    return forms


def _dual_cells(stem: str, paradigm: str, gender: str) -> list[InflectedForm]:
    # Construct duals lose their -ni, so each one takes a pronoun as it stands.
    return [InflectedForm(surface, _bundle(gender, "d", d, c, d == "a"))
            for (d, c), surface in dual_forms(stem, paradigm).items()]


def inflect(entry, registry: ClassRegistry) -> list[InflectedForm]:
    """All inflected forms of a lexical entry, pro-variants included.

    Forms whose ``standalone`` flag is False only occur with an attached
    pronoun; everything else is a base form.  The base forms number 27 for a
    fixed-gender entry and 45 for a gender-inflecting one.
    """
    code = entry.code
    cls = registry.resolve(code)
    bp_stem = render_bp_stem(apply_root_code(entry.sg_root, code.root_code), cls)

    if code.gender_flag == "g":
        gender_stems = [("m", entry.lemma), ("f", entry.lemma + "ap")]
    else:
        gender_stems = [(code.gender_flag, entry.lemma)]

    forms: list[InflectedForm] = []
    for gender, stem in gender_stems:
        paradigm = "ap-final" if stem.endswith("ap") and not entry.lemma.endswith("ap") else cls.sg_paradigm
        forms.extend(_number_cells(stem, paradigm, gender, "s"))
        forms.extend(_dual_cells(stem, paradigm, gender))
    forms.extend(_number_cells(bp_stem, cls.bp_paradigm, "none", "q"))
    return forms


def form_count(entry) -> int:
    """Base paradigm size: 3 numbers x 3 definiteness x 3 cases, doubled for
    the singular and dual of gender-inflecting entries."""
    if entry.code.gender_flag == "g":
        return 2 * 9 + 2 * 9 + 9
    return 27
