"""Token segmentation against the compiled dictionary, and plural agreement.

A nominal token is at most CONJ PREP (DET | -) N PRO+Gen.  Segmentations are
filtered by the morpheme-combination constraints: a preposition forces the
genitive, the determiner forces (and is required by) definite state, an
attached pronoun forces the construct state and the pronoun-compatible form
variant, and the determiner and a pronoun never co-occur.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .formdict import Analysis, FormDictionary
from .paradigm import FeatureBundle


@dataclass(frozen=True)
class CliticInventory:
    conjunctions: tuple
    prepositions: tuple
    determiner: str
    pronouns: tuple


@lru_cache(maxsize=1)
def load_clitics() -> CliticInventory:
    # Safe to cache: an inventory is immutable.
    conj, prep, det, pro = [], [], [], []
    text = resources.files(__package__).joinpath("data/clitics.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, surface = line.split("\t")
        {"conj": conj, "prep": prep, "det": det, "pro": pro}[kind].append(surface)
    return CliticInventory(tuple(conj), tuple(prep), det[-1], tuple(pro))


@dataclass(frozen=True)
class Segment:
    surface: str
    tag: str                      # CONJC | PREP | DET | N | PRO+Gen
    analysis: Analysis | None = None

    def show(self) -> str:
        return f"{self.surface}/{self.tag}"


@dataclass(frozen=True)
class Reading:
    segments: tuple

    @property
    def noun(self) -> Analysis:
        return next(s.analysis for s in self.segments if s.tag == "N")

    def show(self) -> str:
        return "+".join(s.show() for s in self.segments)


@dataclass
class SegmentLattice:
    token: str
    readings: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.readings)


def _splits(token: str, inventory: CliticInventory):
    """All CONJ? PREP? DET? prefix splits and PRO? suffix splits."""
    for conj in (None, *inventory.conjunctions):
        rest1 = token
        if conj is not None:
            if not token.startswith(conj):
                continue
            rest1 = token[len(conj):]
        for prep in (None, *inventory.prepositions):
            rest2 = rest1
            if prep is not None:
                if not rest1.startswith(prep):
                    continue
                rest2 = rest1[len(prep):]
            for det in (None, inventory.determiner):
                rest3 = rest2
                if det is not None:
                    if not rest2.startswith(det):
                        continue
                    rest3 = rest2[len(det):]
                for pro in (None, *inventory.pronouns):
                    noun = rest3
                    if pro is not None:
                        if not rest3.endswith(pro) or len(rest3) <= len(pro):
                            continue
                        noun = rest3[: -len(pro)]
                    if noun:
                        yield conj, prep, det, noun, pro


def segment(token: str, dictionary: FormDictionary, mode: str = "strict",
            inventory: CliticInventory | None = None) -> SegmentLattice:
    """Enumerate the constraint-satisfying readings of one token."""
    inventory = inventory or load_clitics()
    lattice = SegmentLattice(token)
    seen = set()
    for conj, prep, det, noun, pro in _splits(token, inventory):
        for analysis in dictionary.lookup(noun, mode):
            f = analysis.features
            if prep is not None and f.case != "G":
                continue
            if det is not None and f.definiteness != "D":
                continue
            if det is None and f.definiteness == "D":
                continue
            if pro is not None and not (f.definiteness == "a" and f.pro_compat):
                continue
            if pro is None and not analysis.standalone:
                continue
            segments = []
            if conj:
                segments.append(Segment(conj, "CONJC"))
            if prep:
                segments.append(Segment(prep, "PREP"))
            if det:
                segments.append(Segment(det, "DET"))
            segments.append(Segment(noun, "N", analysis))
            if pro:
                segments.append(Segment(pro, "PRO+Gen"))
            reading = Reading(tuple(segments))
            key = (reading.show(), analysis.code, analysis.lemma, f.tag())
            if key not in seen:
                seen.add(key)
                lattice.readings.append(reading)
    lattice.readings.sort(key=lambda r: (len(r.segments), r.show(), r.noun.code))
    return lattice


def format_reading(token: str, reading: Reading) -> str:
    noun = reading.noun
    return f"{token}\t{reading.show()}\t{noun.lemma},{noun.code}\t{noun.features.tag()}"


# -- agreement ---------------------------------------------------------------


def check_agreement(head: FeatureBundle, head_human: bool, dependent: FeatureBundle,
                    head_lemma: str = "", exceptions: frozenset | None = None) -> bool:
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
        if exceptions is not None and head_lemma and head_lemma in exceptions:
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
                mode: str = "strict", width: int = 28) -> list[str]:
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
        lines.append(f"{left[-width:]:>{width}}  {token:<{width}}  {right[:width]:<{width}}".rstrip())
    return lines
