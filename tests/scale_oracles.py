"""Three oracles on a lexicon too large for the tier-1 tests: the
``dump_text()`` and byte round trips through the artifact, the linear-scan
lookup oracle over a seeded sample of forms, and the brute-force
segmentation oracle over clitic-chained tokens.

    PYTHONPATH=src:tests python tests/scale_oracles.py LEXICON

Prints one line per check and exits 1 when any check disagrees, listing the
first disagreements.
"""

import random
import sys
import time

from lookup_reference import linear_scan, sample_queries
from segment_reference import Reference, clitic_chains
from taksir import bn
from taksir.classes import load_registry
from taksir.formdict import FormDictionary, compile_lexicon
from taksir.lexicon import parse_lexicon
from taksir.segment import format_reading, load_clitics, segment

MODES = ("strict", "diacritic-optional")
SEED = 20
QUERIES = 2000      # lookup queries, a fifth of each kind
TOKENS = 3000       # clitic-chained tokens, each in both modes


def check(name: str, started: float, checked: int, bad: list) -> bool:
    print(f"{name}\t{checked} checked\t{len(bad)} disagree\t{time.perf_counter() - started:.1f} s")
    for line in bad[:5]:
        print(f"  {line!r}")
    return not bad


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rng = random.Random(SEED)
    with open(argv[0], encoding="utf-8") as fh:
        lex, diagnostics = parse_lexicon(fh.read())
    built, failures = compile_lexicon(lex, load_registry())
    if diagnostics or failures:
        reasons = [*map(str, diagnostics), *(f"{e.lemma},{e.code}: {error}" for e, error in failures)]
        print(f"the lexicon does not compile cleanly: {reasons[:3]}")
        return 1
    ok = True

    started = time.perf_counter()
    listing, data = built.dump_text(), built.to_bytes()
    dictionary = FormDictionary.from_bytes(data)
    bad = [] if dictionary.to_bytes() == data else ["the reloaded artifact serialises to other bytes"]
    del built, data
    if dictionary.dump_text() != listing:
        bad.append("dump_text() of the reloaded artifact differs")
    ok &= check("artifact round trip", started, listing.count("\n"), bad)
    del listing

    started = time.perf_counter()
    forms = list(dictionary.forms())
    # A form matches a query in either mode only if their diacritic-free
    # skeletons agree, so each scan runs over the forms of one skeleton.
    by_skeleton: dict[str, list] = {}
    for form in forms:
        by_skeleton.setdefault(bn.strip_diacritics(form[0]), []).append(form)
    queries = sample_queries(rng, [surface for surface, _ in forms], QUERIES // 5)
    bad = []
    for query, mode in queries:
        want = sorted((s, p.code, p.tag, p.standalone)
                      for s, p in linear_scan(by_skeleton.get(bn.strip_diacritics(query), ()), query, mode))
        got = sorted((a.surface, a.code, a.features.tag(), a.standalone) for a in dictionary.lookup(query, mode))
        if got != want:
            bad.append((query, mode))
    ok &= check("lookup against the linear scan", started, len(queries), bad)
    del by_skeleton

    started = time.perf_counter()
    inventory = load_clitics()
    reference = Reference(dictionary, inventory)
    tokens = clitic_chains(rng, [surface for surface, _ in forms], TOKENS)
    bad = []
    for token in tokens:
        for mode in MODES:
            got = [format_reading(token, r) for r in segment(token, dictionary, mode, inventory=inventory).readings]
            if got != reference.lines(token, mode):
                bad.append((token, mode))
    ok &= check("segment against the brute-force oracle", started, len(tokens) * len(MODES), bad)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
