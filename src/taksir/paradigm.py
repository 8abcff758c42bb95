"""Generation of full inflected paradigms.

Every entry yields singular, dual and broken-plural stems crossed with the
3x3 grid of definiteness (D definite, i indefinite, a construct) and case
(N/A/G).  Gender-inflecting entries double the singular and dual with a
feminine stem in -ap; the broken plural itself carries no gender.  Construct
cells additionally yield the variant that combines with an attached genitive
pronoun: -ap is realised as -at- and a stem-final glottal stop is re-seated
against the case vowel.

Each class's recipe is generated once per stem shape as a row table: a row
cuts a few letters off the stem and appends a tail, so filling an entry in
is one concatenation per form.
"""

import functools
from collections import namedtuple

from .classes import ClassRegistry, load_paradigms, render_bp_stem, seat_hamzas, substitute_madda
from .codes import HAMZA, apply_root_code
from .features import CASES, DEFINITENESS, FeatureBundle, _bundle  # FeatureBundle stays importable from here

#: Glottal-stop spellings that can close a stem.
_FINAL_HAMZA = ("c", "O", "W", "e")


class InflectedForm(namedtuple("InflectedForm", "surface features standalone", defaults=(True,))):
    """A generated form; ``standalone`` is False for bound pro-variants
    (-at-, re-seated hamza)."""

    __slots__ = ()


class RowTable:
    """The forms of one stem in one paradigm, gender and number, as rows
    ``(cut, tail, features, standalone)``: a row spells ``stem[:len(stem) -
    cut] + tail``, with the article Al- in front when its features are
    definite.  Most stems share the table of their last letter or last five
    letters; one that contracts into madda by itself spells its whole word
    (see ``_table``).  Tables compare and hash by identity."""

    __slots__ = ("rows", "cut")

    def __init__(self, rows: tuple):
        self.rows = rows
        self.cut = max(row[0] for row in rows)  # the largest cut of any row


def _pro_variant(stem: str, suffix: str, paradigm: str) -> tuple[int, str]:
    """Construct-cell row used before an attached pronoun.  -ap is realised
    as -at-, and a stem-final glottal stop, word-medial once a pronoun
    attaches, is re-seated against the case vowel."""
    if paradigm == "ap-final":
        return 1, "t" + suffix
    if suffix and stem.endswith(_FINAL_HAMZA):
        return len(stem), seat_hamzas([*stem[:-1], HAMZA, suffix])
    return 0, suffix


def _rows(stem: str, paradigm: str, gender: str, number: str) -> tuple:
    """The nine case cells of a stem, each construct cell followed by its
    pronoun variant when that is spelled differently, then for a singular
    stem its nine dual cells."""
    rows = []
    paradigms, dual = load_paradigms()
    cells = paradigms[paradigm]
    for d in DEFINITENESS:
        for c in CASES:
            cell = cells[(d, c)]
            cut = 2 if cell.transform == "drop-iy" else 0
            suffix = cell.suffix
            if suffix == "FA" and stem[: len(stem) - cut].endswith(("Aoc", "O")):
                suffix = "F"  # no alif seat after -aA' or hamza-on-alif
            if d != "a":
                rows.append((cut, suffix, _bundle(gender, number, d, c, False), True))
                continue
            pro_cut, pro_tail = _pro_variant(stem, cell.suffix, paradigm)
            same = (substitute_madda(stem[: len(stem) - pro_cut] + pro_tail)
                    == substitute_madda(stem[: len(stem) - cut] + suffix))
            rows.append((cut, suffix, _bundle(gender, number, d, c, same), True))
            if not same:
                rows.append((pro_cut, pro_tail, _bundle(gender, number, d, c, True), False))
    if number == "s":
        cut, head = 0, ""
        if paradigm == "ap-final":
            cut, head = 1, "t"
        elif paradigm == "invariable-aY" and stem.endswith("Y"):
            cut, head = 1, "y"
        # Construct duals lose their -ni, so each one takes a pronoun as it stands.
        rows += [(cut, head + suffix, _bundle(gender, "d", d, c, d == "a"), True)
                 for (d, c), suffix in dual.items()]
    return tuple(rows)


#: The one shared table of each distinct list of rows.
_shared_table = functools.lru_cache(maxsize=None)(RowTable)


@functools.lru_cache(maxsize=None)
def _ending_table(last: str, paradigm: str, gender: str, number: str) -> RowTable:
    """Cached per last letter: at most the alphabet per paradigm, gender
    and number."""
    return _shared_table(_rows(last, paradigm, gender, number))


def _table(stem: str, paradigm: str, gender: str, number: str, ends: dict) -> RowTable:
    """The row table of a stem.  A final glottal stop is re-seated before a
    pronoun from at most three letters back, and a hamza-on-alif O in the
    last five letters may contract with a suffix into madda (a madda spans
    at most four letters from its O, a row cuts at most two and no suffix
    holds an O): such a stem gets the table of its last five letters, kept
    in ``ends``, whose rows cut them and spell them again with the tail; one
    that contracts by itself gets one of its whole stem.  Any other stem's
    rows read only its last letter (drop-iy cuts two letters unread, and a
    pronoun variant, the one row compared with another, cuts at most one),
    so it shares the table of that letter."""
    if substitute_madda(stem) == stem:
        if "O" not in stem[-5:] and not stem.endswith(_FINAL_HAMZA):
            return _ending_table(stem[-1:], paradigm, gender, number)
        stem = stem[-5:]
    key = (stem, paradigm, gender, number)
    if key not in ends:
        ends[key] = RowTable(tuple((len(stem), substitute_madda(stem[: len(stem) - cut] + tail), *rest)
                                   for cut, tail, *rest in _rows(*key)))
    return ends[key]


def stem_tables(entry, registry: ClassRegistry, ends: dict):
    """``(singulars, (bp_stem, bp_table), cls)``: each singular stem (the
    lemma, then a gender-inflecting entry's feminine in -ap) with its row
    table from ``_table`` and ``ends``, the plural's and the entry's class."""
    code = entry.code
    cls = registry.resolve(code)
    bp_stem = render_bp_stem(apply_root_code(entry.sg_root, code.root_code), cls)

    lemma = entry.lemma
    if code.gender_flag == "g":
        gender_stems = [("m", lemma), ("f", lemma + "ap")]
    else:
        gender_stems = [(code.gender_flag, lemma)]

    singulars = []
    for gender, stem in gender_stems:
        paradigm = "ap-final" if stem.endswith("ap") and not lemma.endswith("ap") else cls.sg_paradigm
        singulars.append((stem, _table(stem, paradigm, gender, "s", ends)))
    return singulars, (bp_stem, _table(bp_stem, cls.bp_paradigm, "none", "q", ends)), cls


def _forms(stem: str, table: RowTable) -> list[InflectedForm]:
    return [InflectedForm(("Al" if features.definiteness == "D" else "") + stem[: len(stem) - cut] + tail,
                          features, standalone)
            for cut, tail, features, standalone in table.rows]


def dual_forms(stem: str, paradigm: str) -> dict[tuple[str, str], str]:
    """The nine dual cells of a singular stem."""
    return {(f.features.definiteness, f.features.case): f.surface
            for f in _forms(stem, _table(stem, paradigm, "m", "s", {})) if f.features.number == "d"}


def inflect(entry, registry: ClassRegistry) -> list[InflectedForm]:
    """All inflected forms of a lexical entry, pro-variants included.

    Forms whose ``standalone`` flag is False only occur with an attached
    pronoun; everything else is a base form.  The base forms number 27 for a
    fixed-gender entry and 45 for a gender-inflecting one.
    """
    singulars, plural, _ = stem_tables(entry, registry, {})
    return [form for stem, table in (*singulars, plural) for form in _forms(stem, table)]


def form_count(entry) -> int:
    """Base paradigm size: 3 numbers x 3 definiteness x 3 cases, doubled for
    the singular and dual of gender-inflecting entries."""
    if entry.code.gender_flag == "g":
        return 2 * 9 + 2 * 9 + 9
    return 27
