"""Exception types shared across the package, and the bundled data files' readers."""

import os


class TaksirError(Exception):
    """Base class for all errors raised by this package."""


class UnmappedCodepoint(TaksirError):
    def __init__(self, char: str, position: int):
        super().__init__(f"codepoint {char!r} (U+{ord(char):04X}) at position {position} is not in the codec table")
        self.char = char
        self.position = position


class InvalidBnChar(TaksirError):
    def __init__(self, char: str, position: int):
        super().__init__(f"character {char!r} at position {position} is not a transliteration character")
        self.char = char
        self.position = position


class MalformedCode(TaksirError):
    """Inflectional code text does not match the code grammar."""


class UnknownBpLabel(MalformedCode):
    def __init__(self, label: str, known: list[str]):
        super().__init__(f"unknown plural pattern label {label!r}; known labels: {', '.join(known)}")
        self.label = label


class ArityMismatch(TaksirError):
    """Slot counts, radical counts or template arity disagree."""


class AmbiguousPatternMatch(TaksirError):
    """More than one radical sequence matches the lemma; an explicit-vv code is needed."""

    def __init__(self, lemma: str, roots):
        pretty = " | ".join("".join(r) for r in roots)
        super().__init__(f"pattern match for {lemma!r} is ambiguous ({pretty}); use an explicit-vv code")
        self.roots = roots


class NotFullyDiacritized(TaksirError):
    def __init__(self, lemma: str, position: int):
        super().__init__(f"lemma {lemma!r} is not fully diacritized (position {position})")
        self.position = position


class UnknownClass(TaksirError):
    def __init__(self, key: str, nearest: list[str]):
        hint = f"; nearest known: {', '.join(nearest)}" if nearest else ""
        super().__init__(f"no inflection class registered for {key}{hint}")
        self.key = key
        self.nearest = nearest


class DataError(ValueError):
    """A row of a bundled data file that is refused, named by file and line."""

    def __init__(self, source: str, line: int, reason: str):
        super().__init__(f"{source} line {line}: {reason}")


def data_text(name: str) -> str:
    """The text of ``data/<name>`` beside the package, found with ``os.path``, which is quick to import
    where ``importlib.resources`` and ``pathlib`` are not; a zipped install is therefore not supported."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return fh.read()


def data_rows(text: str, source: str, widths: int | dict[str, int]):
    """``(line number, fields)`` of each row of a tab-separated table; blank
    lines and ``#`` comments are skipped.  ``widths`` is the field count of
    every row, or per kind, the first field, that of each row of that kind."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.strip().split("\t")
        if fields[0][:1] in ("", "#"):     # a blank line or a comment
            continue
        width = widths if isinstance(widths, int) else widths.get(fields[0])
        if width is None:
            raise DataError(source, lineno, f"unknown kind {fields[0]!r}; expected one of {', '.join(widths)}")
        if len(fields) != width:
            raise DataError(source, lineno, f"expected {width} tab-separated fields")
        yield lineno, fields
