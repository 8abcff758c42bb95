"""Reference generator: the per-cell paradigm code that the row tables of
``taksir.paradigm`` replaced, kept as the oracle they are compared against.

The plural stem is read off its class's template string, and every cell is
built from scratch for every stem: the case or dual suffix is appended,
madda contraction runs over the whole string, and a pronoun variant is
spelled and compared with its base cell.  Glottal stops are seated by the
reference rules of ``classes_reference``.
"""

import re

from classes_reference import seat_hamzas, substitute_madda
from taksir import bn
from taksir.classes import CASES, DEFINITENESS, load_paradigms
from taksir.codes import HAMZA, apply_root_code
from taksir.errors import ArityMismatch
from taksir.paradigm import _FINAL_HAMZA, FeatureBundle

SUFFIX_PARADIGMS, DUAL_SUFFIXES = load_paradigms()


def render_bp_stem(root, cls):
    """The plural stem of ``cls.bp_template``: a digit k emits radical k,
    ``=k`` emits a shadda once radical k is seen to repeat the letter before
    it, and anything else is a literal; its glottal stops are then seated."""
    template = cls.bp_template
    arity = sum(c.isdigit() for c in template)
    if len(root) != arity:
        raise ArityMismatch(f"template {template} places {arity} radicals; root {root} has {len(root)}")
    chars = []
    for geminate, k, literal in re.findall(r"(=?)(\d)|(.)", template):
        if literal:
            chars.append(literal)
        elif not geminate:
            chars += root.radicals[int(k) - 1]
        elif root.radicals[int(k) - 1] != next((c for c in reversed(chars) if c not in bn.DIACRITICS), None):
            raise ArityMismatch(f"template {template} geminates radical {k}, which differs from its neighbour")
        else:
            chars.append(bn.SHADDA)
    return seat_hamzas(chars)


def _apply_cell(stem, cell):
    base = stem
    if cell.transform == "drop-iy":
        base = stem[:-2]
    suffix = cell.suffix
    if suffix == "FA" and (base.endswith("Aoc") or base.endswith("O")):
        suffix = "F"  # no alif seat after -aA' or hamza-on-alif
    return substitute_madda(base + suffix)


def _pro_variant(stem, cell, paradigm):
    base = stem
    if paradigm == "ap-final":
        base = stem[:-1] + "t"
    if cell.suffix and base.endswith(_FINAL_HAMZA):
        return seat_hamzas([*base[:-1], HAMZA, cell.suffix])
    return substitute_madda(base + cell.suffix)


def dual_forms(stem, paradigm):
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


def number_cells(stem, paradigm, gender, number):
    """(surface, tag, standalone) of the nine case cells of a stem, each
    construct cell followed by its pronoun variant when that differs."""
    forms = []
    cells = SUFFIX_PARADIGMS[paradigm]
    for d in DEFINITENESS:
        for c in CASES:
            cell = cells[(d, c)]
            surface = _apply_cell(stem, cell)
            if d == "D":
                surface = "Al" + surface
            pro = _pro_variant(stem, cell, paradigm) if d == "a" else None
            forms.append((surface, FeatureBundle(gender, number, d, c, pro == surface).tag(), True))
            if pro not in (None, surface):
                forms.append((pro, FeatureBundle(gender, number, d, c, True).tag(), False))
    return forms


def dual_cells(stem, paradigm, gender):
    return [(surface, FeatureBundle(gender, "d", d, c, d == "a").tag(), True)
            for (d, c), surface in dual_forms(stem, paradigm).items()]


def stem_cells(stem, paradigm, gender, number):
    """A singular stem's case cells and then its dual cells; a broken-plural
    stem's case cells."""
    forms = number_cells(stem, paradigm, gender, number)
    if number == "s":
        forms += dual_cells(stem, paradigm, gender)
    return forms


def inflect(entry, registry):
    """(surface, tag, standalone) of every form of an entry, in the order
    ``taksir.paradigm.inflect`` returns them."""
    code = entry.code
    cls = registry.resolve(code)
    bp_stem = render_bp_stem(apply_root_code(entry.sg_root, code.root_code), cls)
    if code.gender_flag == "g":
        gender_stems = [("m", entry.lemma), ("f", entry.lemma + "ap")]
    else:
        gender_stems = [(code.gender_flag, entry.lemma)]
    forms = []
    for gender, stem in gender_stems:
        paradigm = "ap-final" if stem.endswith("ap") and not entry.lemma.endswith("ap") else cls.sg_paradigm
        forms += stem_cells(stem, paradigm, gender, "s")
    forms += stem_cells(bp_stem, cls.bp_paradigm, "none", "q")
    return forms


def listing(lex, registry) -> list[str]:
    """The lines of ``dump_text()``, sorted: each form's key (without the
    article) with its own entry's lemma and code."""
    lines = []
    for e in lex.entries:
        for surface, tag, _ in inflect(e, registry):
            key = surface[2:] if tag.split(":")[2] == "D" else surface
            lines.append(f"{key}\t{e.lemma}\t{e.code.text}\t{tag}")
    return sorted(lines)
