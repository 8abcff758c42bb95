"""The singular-pattern parse and the diacritization check as they were
before ``taksir.codes`` memoised them per lemma shape, kept as the oracles
the memoised ones are compared against: they walk the real lemma, and the
parse dedupes its matches by radicals as it goes."""

from dataclasses import dataclass, field

from taksir import bn
from taksir.codes import (LONG_OF, SingularPatternCode, SurfaceRoot, _as_radical, _discardable,
                          code_tables, expand_madda)
from taksir.errors import AmbiguousPatternMatch, ArityMismatch, MalformedCode, NotFullyDiacritized


@dataclass
class _Parse:
    radicals: list = field(default_factory=list)
    gemflags: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    fallback_gem: bool = False

    def copy(self) -> "_Parse":
        return _Parse(list(self.radicals), list(self.gemflags), list(self.positions), self.fallback_gem)


def check_diacritization(lemma: str) -> None:
    """Every basic letter except the last must carry one diacritic (or shadda
    plus one); the madda letter C carries its long vowel itself."""
    chars = list(lemma)
    i = 0
    basics = [j for j, c in enumerate(chars) if not bn.is_diacritic(c)]
    if not basics:
        raise NotFullyDiacritized(lemma, 0)
    last_basic = basics[-1]
    while i < len(chars):
        c = chars[i]
        if bn.is_diacritic(c):
            raise NotFullyDiacritized(lemma, i + 1)  # diacritic with no carrier
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
                raise NotFullyDiacritized(lemma, i + 1)
        else:
            ok = (
                len(marks) == 1 and marks[0] in "auio"
            ) or (
                marks and marks[0] == bn.SHADDA and (len(marks) == 1 or (len(marks) == 2 and marks[1] in "auio"))
            )
            if not ok:
                raise NotFullyDiacritized(lemma, i + 1)
        i = j


def extract_root(lemma: str, sg_code: SingularPatternCode, class_tag: str) -> SurfaceRoot:
    """Match the singular-pattern code against the lemma and return the root.

    The match must be unique: if the lenient long-vowel discard admits two
    distinct radical sequences, the entry needs an explicit-vv code.
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
    tokens = list(sg_code.tokens)
    results: dict[tuple, _Parse] = {}
    fallback_results: dict[tuple, _Parse] = {}

    def finish(ci: int, parse: _Parse) -> None:
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
        key = tuple(parse.radicals)
        (fallback_results if parse.fallback_gem else results).setdefault(key, parse)

    def walk(ti: int, ci: int, parse: _Parse) -> None:
        # Discarding a pattern-owned long vowel is always a branch.
        if ci < len(chars) and not bn.is_diacritic(chars[ci]) and _discardable(chars, ci):
            skip = ci + 1
            if skip < len(chars) and chars[skip] == bn.SILENT:
                skip += 1
            walk(ti, skip, parse.copy())
        if ti == len(tokens):
            finish(ci, parse)
            return
        if ci >= len(chars):
            return
        tok = tokens[ti]
        c = chars[ci]
        if tok == ("v",):
            if c in "auio":
                walk(ti + 1, ci + 1, parse)
            return
        if tok == ("vv",):
            if c in "aiu" and ci + 1 < len(chars) and chars[ci + 1] == LONG_OF[c]:
                nxt = ci + 2
                if nxt < len(chars) and chars[nxt] == bn.SILENT:
                    nxt += 1
                walk(ti + 1, nxt, parse)
            return
        if bn.is_diacritic(c):
            return
        radical = _as_radical(c)
        geminated = ci + 1 < len(chars) and chars[ci + 1] == bn.SHADDA
        if tok[0] == "gem_slot":
            if not geminated:
                return
            p = parse.copy()
            p.radicals.append(radical)
            p.gemflags.append(True)
            p.positions.append(ci + 1)
            walk(ti + 1, ci + 2, p)
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
                p = parse.copy()
                p.radicals.extend([radical, radical])
                p.gemflags.extend([True, True])
                p.positions.extend([ci + 1, ci + 1])
                walk(nxt + 1, ci + 2, p)
            p = parse.copy()
            p.radicals.append(radical)
            p.gemflags.append(True)
            p.positions.append(ci + 1)
            p.fallback_gem = True
            walk(ti + 1, ci + 2, p)
            return
        p = parse.copy()
        p.radicals.append(radical)
        p.gemflags.append(False)
        p.positions.append(ci + 1)
        walk(ti + 1, ci + 1, p)

    walk(0, 0, _Parse())
    chosen = results or fallback_results
    if not chosen:
        raise ArityMismatch(f"lemma {lemma!r} does not match pattern code {sg_code} (tag {class_tag})")
    if len(chosen) > 1:
        raise AmbiguousPatternMatch(lemma, sorted(chosen))
    parse = next(iter(chosen.values()))
    return SurfaceRoot(tuple(parse.radicals), tuple(parse.gemflags), tuple(parse.positions))
