"""Brute-force segmentation, kept as the oracle that ``taksir.segment`` is
compared against.

Every CONJ? PREP? DET? N PRO? template is tried on its own.  A noun is
matched against the dictionary's listed forms, not through its lookup, and
the constraints are read off the tag strings.  The result is the
``format_reading`` lines of a token in ``segment``'s order: by segment
count, shown segmentation and code, and where those tie, by dictionary
form and then payload order.
"""

import re

from taksir import bn
from taksir.segment import load_clitics


class Reference:
    def __init__(self, dictionary, inventory):
        self.inventory = inventory
        self.forms: dict[str, list] = {}    # diacritic-free skeleton -> [(form, payloads)], in form order
        for form, payloads in dictionary.forms():
            self.forms.setdefault(bn.strip_diacritics(form), []).append((form, payloads))

    def matches(self, noun: str, mode: str):
        """(form, payload) for every form the noun matches, in form order
        and then payload order.  In diacritic-optional mode a form matches
        if it is the noun with runs of diacritics inserted."""
        skipped = "[" + "".join(sorted(bn.DIACRITICS)) + "]*"
        pattern = skipped + skipped.join(map(re.escape, noun)) + skipped
        for form, payloads in self.forms.get(bn.strip_diacritics(noun), ()):
            if form == noun if mode == "strict" else re.fullmatch(pattern, form):
                for p in payloads:
                    yield form, p

    def lines(self, token: str, mode: str) -> list[str]:
        inv = self.inventory
        readings = {}
        for conj in (None, *inv.conjunctions):
            for prep in (None, *inv.prepositions):
                for det in (None, inv.determiner):
                    prefix = "".join(c for c in (conj, prep, det) if c)
                    if not token.startswith(prefix):
                        continue
                    for pro in (None, *inv.pronouns):
                        if pro is not None and not token.endswith(pro):
                            continue
                        noun = token[len(prefix): len(token) - len(pro or "")]
                        if len(prefix) + len(noun) + len(pro or "") != len(token) or not noun:
                            continue
                        for form, p in self.matches(noun, mode):
                            feature_tag = p.features.tag()
                            parts = feature_tag.split(":")
                            definiteness, case, pro_compat = parts[2], parts[3], parts[4:] == ["+pro"]
                            if prep is not None and case != "G":
                                continue
                            if (det is not None) != (definiteness == "D"):
                                continue
                            if pro is not None and not (definiteness == "a" and pro_compat):
                                continue
                            if pro is None and not p.standalone:
                                continue
                            pieces = ((conj, "CONJC"), (prep, "PREP"), (det, "DET"), (noun, "N"), (pro, "PRO+Gen"))
                            segments = [f"{s}/{tag}" for s, tag in pieces if s]
                            shown = "+".join(segments)
                            lemma = "".join(form[start: stop if stop >= 0 else len(form) + stop + 1] + literal
                                            for start, stop, literal in p.rewrite)
                            line = f"{token}\t{shown}\t{lemma},{p.code}\t{feature_tag}"
                            readings.setdefault((shown, p.code, lemma, feature_tag), (len(segments), shown, p.code, line))
        return [line for *_, line in sorted(readings.values(), key=lambda r: r[:3])]


def clitic_chains(rng, nouns, n):
    """n tokens, each a noun, or three times in ten its diacritic-free
    skeleton, with a random chain of clitics around it."""
    inv = load_clitics()
    tokens = []
    for _ in range(n):
        noun = rng.choice(nouns)
        if rng.random() < 0.3:
            noun = bn.strip_diacritics(noun) or noun
        prefix = [rng.choice((None, *inv.conjunctions)), rng.choice((None, *inv.prepositions)),
                  rng.choice((None, inv.determiner))]
        pro = rng.choice((None, None, *inv.pronouns))
        tokens.append("".join(c for c in (*prefix, noun, pro) if c))
    return tokens
