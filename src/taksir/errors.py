"""Exception types shared across the package."""


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
