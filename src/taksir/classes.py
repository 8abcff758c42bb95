"""Inflection-class registry: plural stem templates and suffix paradigms.

One registry row per class.  The row key is the inflectional code minus the
gender flag (tag-singular-plural-root), mirroring how each class gets its own
generation recipe; the row stores the concrete surface template for the
plural stem plus the suffix paradigms of the singular and the plural, whose
cells are read from ``data/paradigms.tsv``.

Template strings are written over the plural surface root: a digit emits
radical k, ``=k`` asserts radical k repeats the previous one and emits the
gemination mark instead, anything else is a literal.  Glottal-stop radicals
are seated from their orthographic context when the stem is rendered.
"""

import re
from collections import namedtuple
from functools import lru_cache

from . import bn
from .codes import HAMZA, InflectionalCode, code_tables, parse_root_code, parse_sg_code
from .errors import ArityMismatch, DataError, MalformedCode, UnknownClass, data_rows, data_text
from .features import CASES, DEFINITENESS


class Cell(namedtuple("Cell", "suffix transform")):
    """A paradigm cell: its suffix and its transform, none or drop-iy."""

    __slots__ = ()


@lru_cache(maxsize=1)
def load_paradigms() -> tuple[dict[str, dict[tuple[str, str], Cell]], dict[tuple[str, str], str]]:
    """The cells of each suffix paradigm, and the dual suffixes, each keyed
    by (definiteness, case); definite surfaces are prefixed with Al- on top
    of these suffixes."""
    # Safe to cache: nothing changes the tables after load.
    text = data_text("paradigms.tsv")
    paradigms: dict = {}
    for lineno, (kind, *cells) in data_rows(text, "paradigm table", {"case": 11, "dual": 10}):
        name = cells.pop(0) if kind == "case" else None     # the dual row is paradigm None
        if name in paradigms:
            raise DataError("paradigm table", lineno, f"a second row for {name or 'the dual'}")
        paradigms[name] = {}
        for key, cell in zip([(d, c) for d in DEFINITENESS for c in CASES], cells):
            suffix, _, transform = cell.partition("/")
            if not bn.ALPHABET.issuperset(suffix.strip("-")) or transform not in ("", "drop-iy") or (transform and not name):
                raise DataError("paradigm table", lineno, f"malformed cell {cell!r}")
            paradigms[name][key] = Cell(suffix.strip("-"), transform or "none")
    dual = paradigms.pop(None, None)
    if dual is None:
        raise DataError("paradigm table", len(text.splitlines()), "the table has no dual row")
    return paradigms, {key: cell.suffix for key, cell in dual.items()}


class InflectionClass(namedtuple("InflectionClass", "key bp_template sg_paradigm bp_paradigm steps arity "
                                                     "radical_copies")):
    """A registry row.  ``steps`` spell the plural template, each
    ("radical", k), ("geminate", k) or ("lit", text); ``arity`` counts the
    radicals of the plural surface root; ``radical_copies`` is ``(k, at)``
    per radical copied from singular radical k and written at stem index
    ``at``, with the stem's length before a madda contraction."""

    __slots__ = ()


class ClassRegistry:
    """Immutable after load; shared freely."""

    def __init__(self, rows: dict[str, InflectionClass]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows.values())

    def resolve(self, code: InflectionalCode) -> InflectionClass:
        key = code.class_key
        row = self._rows.get(key)
        if row is None:
            prefix = f"{code.class_tag}-{code.sg_code}-{code.bp_label}-"
            nearest = sorted(k for k in self._rows if k.startswith(prefix))[:3]
            if not nearest:
                nearest = sorted(k for k in self._rows if f"-{code.bp_label}-" in k)[:3]
            raise UnknownClass(key, nearest)
        return row


@lru_cache(maxsize=1)
def load_registry() -> ClassRegistry:
    # Safe to cache: a registry is immutable after load.
    return parse_registry(data_text("classes.tsv"))


def parse_registry(text: str) -> ClassRegistry:
    """Read each row once: its template becomes steps, and a row whose key
    names an undeclared tag, label or paradigm, or a singular code that is
    not canonical or has another slot count than its tag, or whose steps do
    not place each radical of its root code exactly once, is refused."""
    rows: dict[str, InflectionClass] = {}
    tables, (paradigms, _) = code_tables(), load_paradigms()
    for lineno, (key, template, sg_par, bp_par) in data_rows(text, "classes registry", 4):
        parts = key.split("-")
        if len(parts) != 4:
            reason = f"key {key} is not tag-singular-label-root"
        elif parts[0] not in tables.endings:
            reason = f"class tag {parts[0]} is not declared in codes.tsv"
        elif parts[2] not in tables.labels:
            reason = f"plural label {parts[2]} is not declared in codes.tsv"
        elif sg_par not in paradigms or bp_par not in paradigms:
            reason = "unknown paradigm id"
        elif key in rows:
            reason = f"duplicate key {key}"
        else:
            try:    # one radical per root-code token but G, which geminates the last
                radicals = [token for token in parse_root_code(parts[3]).tokens if token[0] != "gemfinal"]
                sg_code = parse_sg_code(parts[1])
                reason = None
                if sg_code.text != parts[1]:
                    reason = f"singular-pattern code {parts[1]} is not written as {sg_code.text}"
                elif sg_code.arity != int(parts[0][1]):
                    reason = f"class tag {parts[0]} expects {parts[0][1]} slots but {sg_code.text} has {sg_code.arity}"
            except MalformedCode as exc:
                reason = str(exc)
        if reason:
            raise DataError("classes registry", lineno, reason)
        arity = len(radicals)
        steps: list[tuple] = []
        slots: dict[int, int] = {}
        at = 0      # the stem index a step writes to
        for gem, k, lit in re.findall(r"(=?)(\d)|([^\d=]+|=)", template):
            if lit:
                steps.append(("lit", lit))
            elif gem:
                steps.append(("geminate", int(k)))
            else:
                steps.append(("radical", int(k)))
                slots[int(k)] = at
            at += len(lit) or 1
        if sorted(k for kind, k in steps if kind != "lit") != list(range(1, arity + 1)):
            raise DataError("classes registry", lineno, f"template {template} does not place each of the {arity} radicals of root code {parts[3]} once")
        copies = tuple((token[1], slots[k]) for k, token in enumerate(radicals, start=1)
                       if token[0] == "copy" and k in slots)
        rows[key] = InflectionClass(key, template, sg_par, bp_par, tuple(steps), arity, (copies, at))
    return ClassRegistry(rows)


_RANK = {"i": 3, "iy": 3, "u": 2, "uw": 2, "a": 1}


def resolve_hamza(left: str, right: str, position: str) -> str:
    """Pick the glottal-stop allograph for an orthographic context.

    ``left``/``right`` are the neighbouring vocalic contexts: a short vowel
    (a/u/i), a long vowel (aA/iy/uw), the silent mark o, or "" at a word
    boundary.  Total function; every seed stem that carries a glottal stop
    exercises it.
    """
    if position == "initial":
        return "I" if right.startswith("i") else "O"
    if position == "final":
        if left == "a":
            return "O"
        if left == "u":
            return "W"
        if left == "i":
            return "e"
        return "c"  # after a long vowel or silence
    # medial: the stronger neighbouring vowel picks the seat (i > u > a);
    # long alif on the left weakens to the line form unless i or u follows.
    lr = _RANK.get(left, 0)
    rr = _RANK.get(right, 0)
    top = max(lr, rr)
    if top == 3:
        return "e"
    if top == 2:
        return "W"
    if top == 1:
        if left == "aA":
            return "c"
        return "O"
    return "c"


def _left_context(chars: list[str], i: int) -> str:
    """Vocalic context immediately before position i."""
    if i == 0:
        return ""
    c = chars[i - 1]
    if c in "aui":
        return c
    if c == bn.SILENT:
        if i >= 2 and chars[i - 2] in "Ayw":
            if chars[i - 2] == "A":
                return "aA"
            if i >= 3 and chars[i - 3] == "i" and chars[i - 2] == "y":
                return "iy"
            if i >= 3 and chars[i - 3] == "u" and chars[i - 2] == "w":
                return "uw"
        return bn.SILENT
    if c == "A" or c == "C":
        return "aA"
    if c == "y" and i >= 2 and chars[i - 2] == "i":
        return "iy"
    if c == "w" and i >= 2 and chars[i - 2] == "u":
        return "uw"
    return bn.SILENT


def _right_context(chars: list[str], i: int) -> str:
    """Vocalic context immediately after position i."""
    if i + 1 >= len(chars):
        return ""
    c = chars[i + 1]
    if c in "aui":
        return c
    if c in bn.TANWIN:
        return {"F": "a", "N": "u", "K": "i"}[c]
    return bn.SILENT


def substitute_madda(text: str) -> str:
    """Mandatory contractions of glottal stop + long a spellings."""
    out = text.replace("OaOo", "C").replace("OaAo", "C")
    return out.replace("OaA", "C")


def seat_hamzas(chars: list[str]) -> str:
    """Replace abstract glottal stops with context-appropriate allographs."""
    if HAMZA not in chars:
        return substitute_madda("".join(chars))
    resolved = list(chars)
    for i, c in enumerate(resolved):
        if c != HAMZA:
            continue
        if i == 0:
            position = "initial"
        elif i == len(resolved) - 1:
            position = "final"
        else:
            position = "medial"
        resolved[i] = resolve_hamza(_left_context(resolved, i), _right_context(resolved, i), position)
    return substitute_madda("".join(resolved))


def render_bp_stem(root, cls: InflectionClass) -> str:
    """Interdigitate the plural surface root with the class template."""
    if len(root) != cls.arity:
        raise ArityMismatch(f"template {cls.bp_template} places {cls.arity} radicals; root {root} has {len(root)}")
    out: list[str] = []
    for kind, value in cls.steps:
        if kind == "lit":
            out.extend(value)
        elif kind == "radical":
            out.append(root.radicals[value - 1])
        else:
            prev = next((c for c in reversed(out) if c not in bn.DIACRITICS), None)
            if root.radicals[value - 1] != prev:
                raise ArityMismatch(f"template {cls.bp_template} geminates radical {value}, which differs from its neighbour")
            out.append(bn.SHADDA)
    return seat_hamzas(out)
