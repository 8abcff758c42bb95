"""Token segmentation against the compiled dictionary, and plural agreement.

A nominal token is at most CONJ PREP (DET | -) N PRO+Gen.  Segmentations are
filtered by the morpheme-combination constraints: a preposition forces the
genitive, the determiner forces (and is required by) definite state, an
attached pronoun forces the construct state and the pronoun-compatible form
variant, and the determiner and a pronoun never co-occur.
"""

import weakref
from collections import namedtuple
from functools import cached_property, lru_cache

from .errors import DataError, data_rows, data_text
from .features import FeatureBundle
from .formdict import Analysis, FormDictionary


class CliticInventory(namedtuple("CliticInventory", "conjunctions prepositions determiner pronouns")):
    """The clitics a token may carry.  Its instance dict keeps ``affixes``."""

    @cached_property
    def affixes(self) -> tuple:
        """The affix tables, built once per inventory: each CONJ? PREP? DET?
        string maps to its splits (clitic segments, shown head, has PREP,
        has DET), each pronoun to its segments and shown tail.  With their
        key lengths, a token's splits are one slice and lookup per length."""
        prefixes: dict[str, tuple] = {}
        for conj in (None, *self.conjunctions):
            for prep in (None, *self.prepositions):
                for det in (None, self.determiner):
                    segments = tuple(Segment(s, tag) for s, tag in ((conj, "CONJC"), (prep, "PREP"), (det, "DET")) if s)
                    head = "".join(f"{s.surface}/{s.tag}+" for s in segments)
                    key = "".join(s.surface for s in segments)
                    prefixes[key] = (*prefixes.get(key, ()), (segments, head, prep is not None, det is not None))
        # An empty pronoun would leave no noun.
        pronouns = {pro: ((Segment(pro, "PRO+Gen"),), f"+{pro}/PRO+Gen") for pro in self.pronouns if pro}
        return prefixes, tuple(sorted({len(p) for p in prefixes})), pronouns, tuple(sorted({len(p) for p in pronouns}))


@lru_cache(maxsize=1)
def load_clitics() -> CliticInventory:
    # Safe to cache: an inventory is immutable.
    kinds: dict[str, list] = {"conj": [], "prep": [], "det": [], "pro": []}
    text = data_text("clitics.tsv")
    for lineno, (kind, surface) in data_rows(text, "clitic table", dict.fromkeys(kinds, 2)):
        if kind == "det" and kinds["det"]:
            raise DataError("clitic table", lineno, "a second det row")
        kinds[kind].append(surface)
    conj, prep, det, pro = kinds.values()
    if not det:
        raise DataError("clitic table", len(text.splitlines()), "the table has no det row")
    return CliticInventory(tuple(conj), tuple(prep), det[0], tuple(pro))


class Segment(namedtuple("Segment", "surface tag analysis", defaults=(None,))):
    """One segment of a token: its tag is CONJC, PREP, DET, N or PRO+Gen,
    and only an N segment has an analysis."""

    __slots__ = ()


class Reading(namedtuple("Reading", "segments noun shown")):
    """A split of a token: its segments, the analysis of the N segment, and
    the segments shown as surface/TAG, joined by "+"."""

    __slots__ = ()


class SegmentLattice(namedtuple("SegmentLattice", "token readings", defaults=((),))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.readings)


def _fits(features: FeatureBundle, standalone: bool, prep: bool, det: bool, pro: bool) -> bool:
    """Whether a payload's noun may stand in a split of this shape."""
    if (prep and features.case != "G") or det != (features.definiteness == "D"):
        return False
    return features.definiteness == "a" and features.pro_compat if pro else standalone


#: Distinct (token, mode) pairs whose lattice each dictionary remembers.
MEMO_SIZE = 1024
#: Characters of left context, of the match and of right context in a concordance line.
WIDTH = 28


def segment(token: str, dictionary: FormDictionary, mode: str = "strict",
            inventory: CliticInventory | None = None) -> SegmentLattice:
    """Enumerate the constraint-satisfying readings of one token.  With the
    default inventory the answer comes from the dictionary's memo of its last
    MEMO_SIZE distinct (token, mode) pairs; lattices are immutable, so it is shared."""
    if inventory is not None:
        return _segment(token, dictionary, mode, inventory)
    memo = getattr(dictionary, "segment_memo", None)
    if memo is None:
        ref = weakref.ref(dictionary)  # the memo lives on the dictionary, so it must not keep it alive
        memo = dictionary.segment_memo = lru_cache(MEMO_SIZE)(lambda t, m: _segment(t, ref(), m, load_clitics()))
    return memo(token, mode)


def _segment(token: str, dictionary: FormDictionary, mode: str, inventory: CliticInventory) -> SegmentLattice:
    """One walk per noun start, that is per prefix the token starts with;
    each walk finds the nouns that end the token or a pronoun it ends with.
    A reading is made, by tuple.__new__, only for a fitting payload that no earlier one repeats."""
    prefixes, prefix_lengths, pronouns, pronoun_lengths = inventory.affixes
    n = len(token)
    ends = {n: ((), "")}        # where a noun may end -> the segments and shown tail after it
    for length in pronoun_lengths:
        pro = pronouns.get(token[n - length:]) if length < n else None
        if pro is not None:
            ends[n - length] = pro
    payloads_by_rank = dictionary.payloads_by_rank
    new = tuple.__new__
    readings = {}
    for start in prefix_lengths:
        splits = prefixes.get(token[:start]) if start < n else None
        if splits is None:
            continue
        for end, form, rank in dictionary.walk(token, start, ends, mode):
            if end == start:
                continue        # a form of skipped diacritics alone: no noun
            noun, (pro, tail), has_pro = token[start:end], ends[end], end < n
            for clitics, head, prep, det in splits:
                shown = None
                for rewrite, code, features, standalone in payloads_by_rank[rank]:
                    if not _fits(features, standalone, prep, det, has_pro):
                        continue
                    shown = shown or f"{head}{noun}/N{tail}"
                    lemma = rewrite.apply(form)
                    key = (shown, code, lemma, features)
                    if key not in readings:
                        analysis = new(Analysis, (form, lemma, code, features, standalone))
                        readings[key] = new(Reading, ((*clitics, new(Segment, (noun, "N", analysis)), *pro), analysis, shown))
    ordered = tuple(readings.values())
    if len(ordered) > 1:
        ordered = tuple(sorted(ordered, key=lambda r: (len(r.segments), r.shown, r.noun.code)))
    return new(SegmentLattice, (token, ordered))


def format_reading(token: str, reading: Reading) -> str:
    noun = reading.noun
    return f"{token}\t{reading.shown}\t{noun.lemma},{noun.code}\t{noun.features.tag()}"


# -- agreement ---------------------------------------------------------------


def check_agreement(head: FeatureBundle, head_human: bool, dependent: FeatureBundle) -> bool:
    """Acceptability of a plural head with an agreeing dependent: an
    adjective or participle, or a verb following its subject.  The attested
    judgments are the same for both, so the relation is not a parameter.

    Broken plurals (number q) license feminine-singular agreement; with
    non-human heads that is the only option.  Suffixal plurals (number p)
    need plural agreement with gender concord for humans, and feminine
    singular or feminine plural for non-humans.  Whether human-q feminine
    plural verb agreement tracks number or referent sex is left open; the
    attested judgments are encoded as given.
    """
    if head.number not in ("p", "q"):
        raise ValueError("agreement rules apply to plural heads")
    dep_plural = dependent.number in ("p", "q")
    dep_fs = dependent.gender == "f" and dependent.number == "s"
    if head.number == "q":
        if head_human:
            return dep_plural or dep_fs
        return dep_fs
    # suffixal plural head
    if head_human:
        if dep_fs:
            return False
        if dependent.number == "q":
            return True  # broken-plural adjectives carry no gender
        return dep_plural and dependent.gender == head.gender
    return dep_fs or (dependent.gender == "f" and dependent.number == "p")


# -- concordance -------------------------------------------------------------


def parse_mask(mask: str) -> dict:
    """Lexical masks like N:q or N:fs:D or N:q:G."""
    parts = mask.split(":")
    if not parts or parts[0] != "N":
        raise ValueError(f"unsupported mask {mask!r}")
    out: dict = {}
    for part in parts[1:]:
        if part in ("s", "d", "p", "q"):
            out["number"] = part
        elif len(part) == 2 and part[0] in "mf" and part[1] in "sdpq":
            out["gender"], out["number"] = part[0], part[1]
        elif part in ("D", "i", "a"):
            out["definiteness"] = part
        elif part in ("N", "A", "G"):
            out["case"] = part
        else:
            raise ValueError(f"bad mask component {part!r} in {mask!r}")
    return out


def matches_mask(features: FeatureBundle, mask: dict) -> bool:
    return all(getattr(features, attr) == value for attr, value in mask.items())


def concordance(tokens: list[str], dictionary: FormDictionary, mask: str,
                mode: str = "strict") -> list[str]:
    """Fixed-width left-context / match / right-context lines for every token
    with a reading matching the mask."""
    wanted = parse_mask(mask)
    lines = []
    for i, token in enumerate(tokens):
        lattice = segment(token, dictionary, mode)
        if not any(matches_mask(r.noun.features, wanted) for r in lattice.readings):
            continue
        left = " ".join(tokens[max(0, i - 4): i])
        right = " ".join(tokens[i + 1: i + 5])
        lines.append(f"{left[-WIDTH:]:>{WIDTH}}  {token:<{WIDTH}}  {right[:WIDTH]:<{WIDTH}}".rstrip())
    return lines
