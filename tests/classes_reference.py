"""The glottal-stop seating, madda contraction and long-vowel rules as they
were written before ``taksir.classes`` and ``taksir.lexicon`` stated them as
patterns and tables, kept as the oracles the restated rules are compared
against: the generation oracle spells its cells with these, so it does not
import the rules it checks."""

import itertools

from taksir import bn
from taksir.codes import HAMZA, expand_madda

#: The letters the restated rules are compared over: vowels, long vowels,
#: sukun, tanwin, shadda, madda, a consonant, hamza-on-alif and the glottal
#: stop.
ALPHABET = "aAiuoywCFNKGbO" + HAMZA

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


def _long_realisations(entry, root) -> list[bool]:
    """Per radical: True when the lemma realises it as a long vowel."""
    chars = expand_madda(entry.lemma)
    out = []
    for radical, pos in zip(root.radicals, root.positions):
        i = pos - 1
        if radical in ("A", "Y"):
            out.append(True)
        elif (
            radical in "yw"
            and 0 < i
            and chars[i - 1] == {"y": "i", "w": "u"}[radical]
            and (i + 1 >= len(chars) or chars[i + 1] == "o")
        ):
            out.append(True)
        else:
            out.append(False)
    return out


def disagreements(seat, contract, longest: int) -> list[str]:
    """The strings of one to ``longest`` letters over ``ALPHABET`` on which
    ``seat`` or ``contract`` spells otherwise than the reference."""
    bad = []
    for n in range(1, longest + 1):
        for letters in itertools.product(ALPHABET, repeat=n):
            text = "".join(letters)
            if seat(text) != seat_hamzas(letters) or contract(text) != substitute_madda(text):
                bad.append(text)
    return bad
