"""The updatable entry dictionary: parsing, validation, statistics.

File format, one entry per line::

    lemma,$TAG-g-SGCODE-BPLABEL-ROOTCODE[+Hum] / gloss [/ source]

The lemma may be written in Arabic script or in transliteration (detected
per line and normalised to the transliteration).  ``#`` starts a comment.
The optional third field names where the entry was transcribed from.
Parsing never aborts: bad lines become diagnostics and good lines load.
"""

import functools
import re
from collections import namedtuple

from . import bn
from .classes import ClassRegistry
from .codes import InflectionalCode, SurfaceRoot, code_tables, expand_madda, extract_root, parse_code
from .errors import TaksirError, data_text


class LexicalEntry(namedtuple("LexicalEntry", "lemma code gloss source_ref line", defaults=("", "", 0))):
    """One entry: ``line`` is its line in the lexicon file, when parsed.  Its
    instance dict keeps ``sg_root``."""

    @property
    def key(self) -> tuple[str, str]:
        return (self.lemma, self.code.text)

    @functools.cached_property
    def sg_root(self) -> SurfaceRoot:
        """The singular's surface root, extracted once for validation and
        generation alike; raises TaksirError when it cannot be extracted."""
        return extract_root(self.lemma, self.code.sg_code, self.code.class_tag)


class Diagnostic:
    def __init__(self, line: int, col: int, code: str, message: str, severity: str = "error"):
        self.line, self.col, self.code, self.message = line, col, code, message
        self.severity = severity    # error | warning

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.code} {self.message}"


class LexiconFile:
    def __init__(self, entries: list[LexicalEntry] | None = None, header: list[str] | None = None):
        self.entries = [] if entries is None else entries
        self.header = [] if header is None else header

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def parse_lexicon(text: str) -> tuple[LexiconFile, list[Diagnostic]]:
    lex = LexiconFile()
    diagnostics: list[Diagnostic] = []
    seen: dict[tuple[str, str], int] = {}
    codes: dict[str, InflectionalCode | TaksirError] = {}     # each distinct code text parsed once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == len(lex.header) + 1:
                lex.header.append(line)
            continue
        fields = [p.strip() for p in line.split(" / ")]
        head = fields[0]
        gloss = fields[1] if len(fields) > 1 else ""
        source = fields[2] if len(fields) > 2 else ""
        if "," not in head:
            diagnostics.append(Diagnostic(lineno, 1, "E_FORMAT", "expected 'lemma,$code'"))
            continue
        lemma_text, code_text = head.split(",", 1)
        lemma_text = lemma_text.strip()
        code_text = code_text.strip()
        try:
            lemma = bn.to_bn(lemma_text) if bn.looks_arabic(lemma_text) else lemma_text
            bn.validate_bn(lemma)
        except TaksirError as exc:
            diagnostics.append(Diagnostic(lineno, 1, "E_LEMMA", str(exc)))
            continue
        code = codes.get(code_text)
        if code is None:
            try:
                code = codes[code_text] = parse_code(code_text)
            except TaksirError as exc:
                code = codes[code_text] = exc
        if isinstance(code, TaksirError):
            diagnostics.append(Diagnostic(lineno, len(lemma_text) + 2, "E_CODE", str(code)))
            continue
        entry = LexicalEntry(lemma, code, gloss, source, line=lineno)
        if entry.key in seen:
            diagnostics.append(Diagnostic(lineno, 1, "E_DUP", f"duplicate of line {seen[entry.key]}: {lemma},{code}"))
            continue
        seen[entry.key] = lineno
        lex.entries.append(entry)
    return lex, diagnostics


#: A long-vowel letter: A or Y, or y after i and w after u at the end or
#: before a sukun.
_LONG = re.compile(r"[AY]|(?<=i)y(?=o|\Z)|(?<=u)w(?=o|\Z)")


def _long_realisations(entry: LexicalEntry, root) -> list[bool]:
    """Per radical: True when the lemma realises it as a long vowel."""
    chars = expand_madda(entry.lemma)
    return [_LONG.match(chars, pos - 1) is not None for pos in root.positions]


def validate_entry(entry: LexicalEntry, registry: ClassRegistry) -> list[Diagnostic]:
    """Per-entry checks, at the entry's line; nothing raises."""
    diags: list[Diagnostic] = []
    code = entry.code
    suffix = code_tables().endings[code.class_tag]
    if not suffix and entry.lemma.endswith("ap"):
        diags.append(Diagnostic(entry.line, 1, "E_SUFFIX", f"lemma ends in -ap but tag {code.class_tag} strips nothing"))

    try:
        root = entry.sg_root
    except TaksirError as exc:
        diags.append(Diagnostic(entry.line, 1, type(exc).__name__, str(exc)))
        return diags

    # Positional convention: radicals sit at odd indices, except right after a
    # written geminate (the madda letter counts as two positions).
    prev_gem = False
    for radical, pos, gem in zip(root.radicals, root.positions, root.geminate_flags):
        if pos % 2 == 0 and not prev_gem:
            diags.append(Diagnostic(entry.line, pos, "E_POSITION", f"radical {radical!r} at even position {pos}"))
        prev_gem = gem

    # Encoding rule: with three or more phonetic consonants in the stem, a
    # long vowel among the first three belongs to the pattern, not the root.
    long_flags = _long_realisations(entry, root)
    if len(root) - sum(long_flags) >= 3:
        for k, (radical, pos, is_long) in enumerate(zip(root.radicals, root.positions, long_flags), start=1):
            if k == len(root):
                break  # a final long radical is not *between* consonants
            if is_long:
                diags.append(Diagnostic(entry.line, pos, "W_LONGROOT", f"long vowel {radical!r} encoded as radical {k}; prefer a vv pattern code", severity="warning"))

    try:
        registry.resolve(code)
    except TaksirError as exc:
        diags.append(Diagnostic(entry.line, 1, "UnknownClass", str(exc)))
    return diags


class StatsReport:
    def __init__(self, by_bp_label: dict[str, int], by_sg_code: dict[tuple[str, str], int], total: int):
        self.by_bp_label = by_bp_label
        self.by_sg_code = by_sg_code    # (bp_label, sg_code) -> count
        self.total = total

    def format(self) -> str:
        lines = [f"entries\t{self.total}"]
        for label in sorted(self.by_bp_label, key=lambda k: (-self.by_bp_label[k], k)):
            lines.append(f"{label}\t{self.by_bp_label[label]}")
            for (bp, sg), n in sorted(self.by_sg_code.items(), key=lambda kv: (-kv[1], kv[0])):
                if bp == label:
                    lines.append(f"  {sg}\t{n}")
        return "\n".join(lines) + "\n"


def lexicon_stats(lex: LexiconFile) -> StatsReport:
    """Entry counts per plural pattern label, subdivided by singular code."""
    by_label: dict[str, int] = {}
    by_sg: dict[tuple[str, str], int] = {}
    for e in lex.entries:
        label = e.code.bp_label
        by_label[label] = by_label.get(label, 0) + 1
        key = (label, e.code.sg_code.text)
        by_sg[key] = by_sg.get(key, 0) + 1
    return StatsReport(by_label, by_sg, len(lex.entries))


def load_seed() -> LexiconFile:
    """The bundled lexicon transcribed from the worked examples."""
    lex, diagnostics = parse_lexicon(data_text("seed_lexicon.txt"))
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ValueError("seed lexicon has errors: " + "; ".join(map(str, errors)))
    return lex
