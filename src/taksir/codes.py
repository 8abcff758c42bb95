"""Inflectional codes and surface-root arithmetic.

A dictionary entry pairs a fully diacritized singular stem with a code of the
form ``$TAG-GENDER-SGCODE-BPLABEL-ROOTCODE[+Hum]``.  The singular-pattern code
(e.g. ``FvEvL``) records only slot positions, long-vowel positions (``vv``)
and pattern-owned geminations; matching it against the lemma yields the
singular surface root.  The root code (e.g. ``12y``) then maps that root onto
the plural surface root: digits copy singular radicals, letters insert
literals, a final ``G`` geminates the last radical.  The class tags, plural
labels and code respellings that codes are checked against live in
``data/codes.tsv``.
"""

import functools
import re
from collections import namedtuple

from . import bn
from .errors import (
    AmbiguousPatternMatch,
    ArityMismatch,
    DataError,
    MalformedCode,
    NotFullyDiacritized,
    UnknownBpLabel,
    data_rows,
    data_text,
)

#: Abstract glottal-stop radical.  Lemma letters c, C, O, W, I, e all map to
#: this marker during extraction, so root codes can reference the glottal stop
#: uniformly (as the letter ``h``); the concrete spelling is chosen only when
#: a stem is rendered.
HAMZA = "'"

SLOT_LETTERS = "FELBDJ"

#: Long-vowel letter expected after each short vowel in a ``vv`` position.
LONG_OF = {"a": "A", "i": "y", "u": "w"}


class CodeTables(namedtuple("CodeTables", "endings labels respellings")):
    """The inventories of ``data/codes.tsv`` that codes are checked against:
    per class tag the lemma ending it strips, the plural pattern labels, and
    per code spelling found in source material its fix."""

    __slots__ = ()


@functools.lru_cache(maxsize=1)
def code_tables() -> CodeTables:
    """Read and check each row once, on first use."""
    # Safe to cache: nothing changes the tables after load.
    text = data_text("codes.tsv")
    endings, labels, respellings = {}, {}, {}
    for lineno, (kind, name, *value) in data_rows(text, "code table", {"tag": 3, "label": 2, "respell": 3}):
        table = {"tag": endings, "label": labels, "respell": respellings}[kind]
        if name in table:
            reason = f"duplicate {kind} {name}"
        elif kind == "tag" and not re.fullmatch(r"N[2-6][0-9A-Za-z]*", name):
            reason = f"tag {name!r} is not N, a slot count of 2 to 6, then letters or digits"
        elif not re.fullmatch("[0-9A-Za-z]+", name) or not re.fullmatch("-|[A-Za-z]+", value[0] if value else "-"):
            reason = f"{kind} {name!r} is not written in letters"
        else:
            table[name] = value[0].strip("-") if value else None
            continue
        raise DataError("code table", lineno, reason)
    return CodeTables(endings, frozenset(labels), respellings)


class SingularPatternCode(namedtuple("SingularPatternCode", "text tokens")):
    """Parsed singular-pattern code, e.g. FvEvL or FvEEvvL; each token is
    ("slot", rank), ("gem_slot", rank), ("v",) or ("vv",)."""

    __slots__ = ()

    @property
    def arity(self) -> int:
        return sum(1 for t in self.tokens if t[0] in ("slot", "gem_slot"))

    def __str__(self) -> str:
        return self.text


class RootCode(namedtuple("RootCode", "text tokens")):
    """Parsed root code, e.g. 123, 12y, h234, 123G; each token is
    ("copy", k), ("lit", char) or ("gemfinal",)."""

    __slots__ = ()

    def __str__(self) -> str:
        return self.text


class InflectionalCode(namedtuple("InflectionalCode", "class_tag gender_flag sg_code bp_label root_code human",
                                  defaults=(False,))):
    """A parsed code; its gender flag is m, f or g.  Its instance dict keeps
    ``text`` and ``class_key``."""

    @functools.cached_property
    def text(self) -> str:
        tail = "+Hum" if self.human else ""
        return f"{self.class_tag}-{self.gender_flag}-{self.sg_code}-{self.bp_label}-{self.root_code}{tail}"

    @functools.cached_property
    def class_key(self) -> str:
        """Registry key: the code without the gender flag and +Hum."""
        return f"{self.class_tag}-{self.sg_code}-{self.bp_label}-{self.root_code}"

    def __str__(self) -> str:
        return self.text


class SurfaceRoot:
    """Ordered radicals of a stem; glottal stop stored abstractly.  ``len``
    counts the radicals, so this is no named tuple: roots compare and hash
    by their fields, which cannot be set."""

    __slots__ = ("radicals", "geminate_flags", "positions")   # positions: 1-based, into expand_madda(lemma)

    def __init__(self, radicals: tuple, geminate_flags: tuple = (), positions: tuple = ()):
        for name, value in zip(self.__slots__, (radicals, geminate_flags or (False,) * len(radicals), positions)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a surface root is immutable")

    def _key(self) -> tuple:
        return self.radicals, self.geminate_flags, self.positions

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SurfaceRoot else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SurfaceRoot{self._key()!r}"

    def __len__(self) -> int:
        return len(self.radicals)

    def __str__(self) -> str:
        return "".join("h" if r == HAMZA else r for r in self.radicals)


def parse_sg_code(text: str) -> SingularPatternCode:
    """Parse a singular-pattern code, tolerating case noise (FvEvVl -> FvEvvL).

    Slot letters are position-determined (F,E,L,B,D,J in rank order), so a
    case-insensitive structural parse recovers the canonical spelling.
    """
    raw = code_tables().respellings.get(text, text)
    tokens: list = []
    next_rank = 1
    for ch in raw:
        if ch in ("v", "V"):
            tokens.append(("v",))
            continue
        upper = ch.upper()
        if upper not in SLOT_LETTERS:
            raise MalformedCode(f"bad character {ch!r} in singular-pattern code {text!r}")
        rank = SLOT_LETTERS.index(upper) + 1
        if rank == next_rank - 1 and tokens and tokens[-1] == ("slot", rank):
            tokens[-1] = ("gem_slot", rank)
        elif rank == next_rank:
            tokens.append(("slot", rank))
            next_rank += 1
        else:
            raise MalformedCode(f"slot letters out of order in {text!r}")
    # vv: collapse adjacent v marks
    merged: list = []
    for tok in tokens:
        if tok == ("v",) and merged and merged[-1] == ("v",):
            merged[-1] = ("vv",)
        elif tok == ("v",) and merged and merged[-1] == ("vv",):
            raise MalformedCode(f"more than two vowel marks in a row in {text!r}")
        else:
            merged.append(tok)
    arity = sum(1 for t in merged if t[0] in ("slot", "gem_slot"))
    if not 2 <= arity <= 6:
        raise MalformedCode(f"{text!r} has {arity} slots; expected 2-6")
    # Every letter parsed, so the canonical spelling is the input with each
    # vowel mark lower-case and each slot letter upper-case.
    return SingularPatternCode(raw.upper().replace("V", "v"), tuple(merged))


ROOT_LITERALS = "wyAYhm"


def parse_root_code(text: str, max_index: int | None = None) -> RootCode:
    tokens: list = []
    for i, ch in enumerate(text):
        if ch.isdigit():
            k = int(ch)
            if not 1 <= k <= 6:
                raise MalformedCode(f"bad radical index {ch} in root code {text!r}")
            if max_index is not None and k > max_index:
                raise ArityMismatch(f"root code {text!r} copies radical {k} but the singular has {max_index}")
            tokens.append(("copy", k))
        elif ch == "G":
            if i != len(text) - 1:
                raise MalformedCode(f"G must be last in root code {text!r}")
            if not tokens:
                raise MalformedCode(f"G in root code {text!r} has no radical before it to geminate")
            tokens.append(("gemfinal",))
        elif ch in ROOT_LITERALS:
            tokens.append(("lit", HAMZA if ch == "h" else ch))
        else:
            raise MalformedCode(f"bad character {ch!r} in root code {text!r}")
    if not tokens:
        raise MalformedCode("empty root code")
    return RootCode(text, tuple(tokens))


def parse_code(text: str) -> InflectionalCode:
    """Parse ``$TAG-GENDER-SGCODE-BPLABEL-ROOTCODE[+Hum]``."""
    body = text.strip()
    if body.startswith("$"):
        body = body[1:]
    human = False
    if body.endswith("+Hum"):
        human = True
        body = body[: -len("+Hum")]
    parts = body.split("-")
    if len(parts) != 5:
        raise MalformedCode(f"code {text!r} has {len(parts)} components; expected tag-gender-singular-plural-root")
    tag, gender, sg_text, bp_label, root_text = parts
    tables = code_tables()
    if tag not in tables.endings:
        raise MalformedCode(f"unknown class tag {tag!r}")
    if gender not in ("m", "f", "g"):
        raise MalformedCode(f"gender flag must be m, f or g, not {gender!r}")
    sg_code = parse_sg_code(sg_text)
    if int(tag[1]) != sg_code.arity:
        raise ArityMismatch(f"tag {tag} expects {tag[1]} slots but {sg_code} has {sg_code.arity}")
    bp_label = tables.respellings.get(bp_label, bp_label)
    if bp_label not in tables.labels:
        raise UnknownBpLabel(bp_label, sorted(tables.labels))
    root_code = parse_root_code(root_text, max_index=sg_code.arity)
    return InflectionalCode(tag, gender, sg_code, bp_label, root_code, human)


def check_diacritization(lemma: str) -> None:
    """Every basic letter except the last must carry one diacritic (or shadda
    plus one); the madda letter C carries its long vowel itself."""
    if (position := _undiacritized(lemma.translate(_shape()))) is not None:
        raise NotFullyDiacritized(lemma, position)


@functools.lru_cache(maxsize=None)
def _undiacritized(chars: str) -> int | None:
    """Per lemma shape (``_shape``): the 1-based position that fails, or None."""
    basics = [j for j, c in enumerate(chars) if not bn.is_diacritic(c)]
    if not basics:
        return 0
    last_basic = basics[-1]
    i = 0
    while i < len(chars):
        c = chars[i]
        if bn.is_diacritic(c):
            return i + 1  # diacritic with no carrier
        if c == "C":
            i += 1
            continue
        j = i + 1
        marks = []
        while j < len(chars) and bn.is_diacritic(chars[j]):
            marks.append(chars[j])
            j += 1
        if i == last_basic:
            if marks not in ([], [bn.SHADDA]):
                return i + 1
        else:
            ok = (
                len(marks) == 1 and marks[0] in "auio"
            ) or (
                marks and marks[0] == bn.SHADDA and (len(marks) == 1 or (len(marks) == 2 and marks[1] in "auio"))
            )
            if not ok:
                return i + 1
        i = j


@functools.lru_cache(maxsize=1)
def _shape() -> dict[int, str]:
    """The pattern parse and the diacritization check read which letters are
    diacritics, madda or long-vowel letters and nothing else of a letter:
    this translation makes every other basic letter one placeholder."""
    return str.maketrans(dict.fromkeys(bn.BASIC_LETTERS - set("ACwy"), "b"))


def expand_madda(stem: str) -> str:
    """The stem with each madda letter C written out as glottal stop + long
    a.  Radical positions are 1-based indices into this expansion."""
    return stem.replace("C", HAMZA + "aAo")


def _as_radical(c: str) -> str:
    return HAMZA if c in bn.HAMZA_LETTERS or c == HAMZA else c


def _discardable(chars: str, i: int) -> bool:
    """Long-vowel letters the pattern may own without a vv mark."""
    c = chars[i]
    if c == "A":
        return True
    if c == "y":
        return i > 0 and chars[i - 1] == "i"
    if c == "w":
        return i > 0 and chars[i - 1] == "u"
    return False


def extract_root(lemma: str, sg_code: SingularPatternCode, class_tag: str) -> SurfaceRoot:
    """Match the singular-pattern code against the lemma and return the root.

    The match must be unique: if the lenient long-vowel discard admits two
    distinct radical sequences, the entry needs an explicit-vv code.  The
    candidate parses come from the lemma's shape (``_parses``); the
    radicals, and so uniqueness, are read off the lemma itself.
    """
    check_diacritization(lemma)
    suffix = code_tables().endings.get(class_tag)
    if suffix is None:
        raise MalformedCode(f"unknown class tag {class_tag!r}")
    if suffix:
        if not lemma.endswith(suffix):
            raise ArityMismatch(f"lemma {lemma!r} lacks the {suffix!r} ending required by {class_tag}")
        stem = lemma[: -len(suffix)]
    else:
        stem = lemma
    chars = expand_madda(stem)
    chosen: dict[tuple, tuple] = {}     # radicals -> the first parse that reads them
    for parses in _parses(expand_madda(stem.translate(_shape())), sg_code.tokens):
        for positions, gemflags in parses:
            chosen.setdefault(tuple(_as_radical(chars[p - 1]) for p in positions), (positions, gemflags))
        if chosen:
            break
    if not chosen:
        raise ArityMismatch(f"lemma {lemma!r} does not match pattern code {sg_code} (tag {class_tag})")
    if len(chosen) > 1:
        raise AmbiguousPatternMatch(lemma, sorted(chosen))
    ((radicals, (positions, gemflags)),) = chosen.items()
    return SurfaceRoot(radicals, gemflags, positions)


@functools.lru_cache(maxsize=None)
def _parses(chars: str, tokens: tuple) -> tuple[tuple, tuple]:
    """Every match of the pattern tokens against an expanded stem, as
    distinct ``(positions, gemination flags)`` in walk order: the parses,
    then the fallback ones, in which a doubled letter fills one slot alone.
    Stems of one shape share them."""
    found: tuple[dict, dict] = ({}, {})

    def finish(ci: int, parse: tuple, fallback: bool) -> None:
        # Trailing material may only be diacritics and pattern-owned long vowels.
        j = ci
        while j < len(chars):
            c = chars[j]
            if bn.is_diacritic(c):
                j += 1
            elif _discardable(chars, j):
                j += 1
                if j < len(chars) and chars[j] == bn.SILENT:
                    j += 1
            else:
                return
        found[fallback].setdefault(parse)

    def walk(ti: int, ci: int, positions: tuple, gems: tuple, fallback: bool) -> None:
        # Discarding a pattern-owned long vowel is always a branch.
        if ci < len(chars) and not bn.is_diacritic(chars[ci]) and _discardable(chars, ci):
            skip = ci + 1
            if skip < len(chars) and chars[skip] == bn.SILENT:
                skip += 1
            walk(ti, skip, positions, gems, fallback)
        if ti == len(tokens):
            finish(ci, (positions, gems), fallback)
            return
        if ci >= len(chars):
            return
        tok = tokens[ti]
        c = chars[ci]
        if tok == ("v",):
            if c in "auio":
                walk(ti + 1, ci + 1, positions, gems, fallback)
            return
        if tok == ("vv",):
            if c in "aiu" and ci + 1 < len(chars) and chars[ci + 1] == LONG_OF[c]:
                nxt = ci + 2
                if nxt < len(chars) and chars[nxt] == bn.SILENT:
                    nxt += 1
                walk(ti + 1, nxt, positions, gems, fallback)
            return
        if bn.is_diacritic(c):
            return
        geminated = ci + 1 < len(chars) and chars[ci + 1] == bn.SHADDA
        if tok[0] == "gem_slot":
            if geminated:
                walk(ti + 1, ci + 2, positions + (ci + 1,), gems + (True,), fallback)
            return
        # plain slot
        if geminated:
            # A doubled letter fills this slot and the next one (the written
            # gemination straddles two radicals, as in MidGap -> M d d); when
            # no further slot exists it fills this slot alone and the
            # gemination stays with the stem (lutunGap -> l t n).  The
            # one-slot reading is a fallback: it only counts when no
            # two-slot parse of the lemma succeeds.
            nxt = ti + 1
            if nxt < len(tokens) and tokens[nxt] == ("v",):
                nxt += 1
            if nxt < len(tokens) and tokens[nxt][0] == "slot":
                walk(nxt + 1, ci + 2, positions + (ci + 1, ci + 1), gems + (True, True), fallback)
            walk(ti + 1, ci + 2, positions + (ci + 1,), gems + (True,), True)
            return
        walk(ti + 1, ci + 1, positions + (ci + 1,), gems + (False,), fallback)

    walk(0, 0, (), (), False)
    return tuple(found[False]), tuple(found[True])


def apply_root_code(root: SurfaceRoot, code: RootCode) -> SurfaceRoot:
    """Map a singular surface root onto the plural surface root.  A root
    code from ``parse_code`` copies no radical beyond the singular's arity,
    and ``extract_root`` yields one radical per slot."""
    radicals: list[str] = []
    flags: list[bool] = []
    for tok in code.tokens:
        if tok[0] == "copy":
            radicals.append(root.radicals[tok[1] - 1])
            flags.append(False)
        elif tok[0] == "lit":
            radicals.append(tok[1])
            flags.append(False)
        else:  # gemfinal
            flags[-1] = True
    return SurfaceRoot(tuple(radicals), tuple(flags))
