"""Seeded input generators for the benchmark workloads.

    python inputs.py WORKLOAD_CONFIG_JSON SEED WORK_DIR

Everything here is built from the bundled seed lexicon and the program's own
generator (``inflect``), so the inputs need no downloads and the same seed
always yields the same bytes.  Ground truth is computed here, before any
child runs, so that the traced children only ever run the program's
analysis path.  The files written are read by child.py; their sha256 and
the texts' measured profile are printed.
"""

import functools
import hashlib
import json
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from taksir import bn  # noqa: E402
from taksir.classes import load_registry  # noqa: E402
from taksir.codes import HAMZA, extract_root  # noqa: E402
from taksir.formdict import dictionary_key  # noqa: E402
from taksir.lexicon import load_seed, parse_lexicon  # noqa: E402
from taksir.paradigm import inflect  # noqa: E402
from taksir.segment import load_clitics  # noqa: E402

#: Consonants a strong radical may be replaced with: the basic letters minus
#: the weak letters (A w y Y), taa marbuta and every glottal-stop spelling.
STRONG = "btvjHxdJrzsMSDTZEgfqklmnh"

#: Arabic comma, semicolon and question mark, planted in the punctuation probe.
ARABIC_PUNCT = ("،", "؛", "؟")

# The rates below are assumptions, not corpus statistics: no measured
# clitic or diacritisation frequencies were at hand.  text_profile()
# measures the shares they produce, and run.py prints them.
CONJ_RATE = 0.2
PREP_RATE = 0.3          # of genitive forms
PRO_RATE = 0.5           # of pronoun-compatible standalone forms
NONWORD_RATE = 0.03
#: Pointing of each noun occurrence in analyze-optional: none, partial, full.
POINTING_SHARES = (0.7, 0.2, 0.1)

_clitics = functools.cache(load_clitics)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_line(token: str, truth: list | None) -> str:
    """The ``analyze`` output line of a reading [segmentation, lemma, code,
    tag]; for a non-word (truth None), its UNK line."""
    if truth is None:
        return f"{token}\tUNK"
    show, lemma, code, tag = truth
    return f"{token}\t{show}\t{lemma},{code}\t{tag}"


# -- compile-5k: the synthetic lexicon ------------------------------------------


def _lemma_indices(lemma: str) -> list[int]:
    """Lemma index of each 1-based position of the expanded stem (madda
    ``C`` counts as four written positions, as in root extraction)."""
    out = []
    for i, c in enumerate(lemma):
        out.extend([i] * (4 if c == "C" else 1))
    return out


def _strong_slots(entry) -> list[int]:
    """Lemma indices holding a strong radical of the entry's surface root."""
    root = extract_root(entry.lemma, entry.code.sg_code, entry.code.class_tag)
    index = _lemma_indices(entry.lemma)
    slots = set()
    for radical, pos in zip(root.radicals, root.positions):
        if radical not in (HAMZA, "w", "y", "A", "Y"):
            slots.add(index[pos - 1])
    return sorted(slots)


def synthetic_lexicon(seed: int, size: int) -> str:
    """The text of a lexicon of ``size`` entries made by permuting the strong
    radicals of the seed entries; class-suffix letters and codes are kept.

    Candidates are never checked with validate_entry or inflect: an entry
    the program cannot compile shows up as a compile failure.
    """
    rng = random.Random(seed)
    seeds = [(e, _strong_slots(e)) for e in load_seed().entries]
    seeds = [(e, slots) for e, slots in seeds if slots]
    seen: set[tuple[str, str]] = set()
    lines = ["# synthetic lexicon: seed entries with strong radicals permuted"]
    for draw in range(50 * size):
        if len(seen) == size:
            break
        entry, slots = seeds[draw % len(seeds)]
        chars = list(entry.lemma)
        for i in slots:
            chars[i] = rng.choice(STRONG)
        key = ("".join(chars), entry.code.text)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"{key[0]},${key[1]} / synthetic {len(seen)}")
    else:
        raise RuntimeError(f"only {len(seen)} distinct entries after {50 * size} draws")
    return "\n".join(lines) + "\n"


def compile_sample(lexicon_text: str, seed: int, n_forms: int) -> dict:
    """A seeded sample of forms generated from the synthetic lexicon.

    ``lookups`` are automaton keys (pronoun-bound variants included) with
    their expected (lemma, code, tag); ``tokens`` are the standalone forms in
    Arabic script, analysed through the ``analyze`` steps against the
    compiled artifact, each with the output line of its expected reading.
    """
    rng = random.Random(seed * 7919 + 1)
    lex, _ = parse_lexicon(lexicon_text)
    registry = load_registry()
    chosen = rng.sample(lex.entries, min(n_forms, len(lex.entries)))
    lookups, tokens = [], []
    for entry in chosen:
        forms = inflect(entry, registry)
        form = rng.choice(forms)
        lookups.append([dictionary_key(form), entry.lemma, entry.code.text, form.features.tag()])
        form = rng.choice([f for f in forms if f.standalone])
        key = dictionary_key(form)
        show = f"Al/DET+{key}/N" if key != form.surface else f"{key}/N"
        truth = [show, entry.lemma, entry.code.text, form.features.tag()]
        tokens.append([bn.to_arabic(form.surface), expected_line(form.surface, truth)])
    return {"lookups": lookups, "tokens": tokens}


# -- analyze workloads: running text ------------------------------------------------


def _seed_forms():
    registry = load_registry()
    return [(e, f) for e in load_seed().entries for f in inflect(e, registry)]


def _nonword_bigram(forms) -> str:
    """A letter pair that occurs in no diacritic-stripped seed form.  A
    non-word built around it cannot match any dictionary form, in either
    lookup mode, whatever clitics the segmenter strips from its edges."""
    seen = set()
    for _, f in forms:
        s = bn.strip_diacritics(f.surface)
        seen.update(s[i:i + 2] for i in range(len(s) - 1))
    letters = sorted(bn.BASIC_LETTERS)
    return next(a + b for a in letters for b in letters if a + b not in seen)


def _nonword(rng: random.Random, bigram: str) -> str:
    head = "".join(rng.choice(STRONG) for _ in range(rng.randint(1, 3)))
    tail = "".join(rng.choice(STRONG) for _ in range(rng.randint(1, 3)))
    return head + bigram + tail


def _point(noun: str, rng: random.Random, pointing: str) -> str:
    if pointing == "full":
        return noun
    if pointing == "none":
        return bn.strip_diacritics(noun)
    return "".join(c for c in noun if not bn.is_diacritic(c) or rng.random() < 0.5)


def _word_type(entry, form, rng: random.Random) -> tuple[list, list]:
    """Fully pointed segments of one clitic-bearing token built from a
    generated form, with clitics drawn at fixed rates, and the entry's
    (lemma, code, tag).  Clitics keep their vowels: the segmenter matches
    them as listed in data/clitics.tsv."""
    clitics = _clitics()
    f = form.features
    segments = []
    if rng.random() < CONJ_RATE:
        segments.append((rng.choice(clitics.conjunctions), "CONJC"))
    if f.case == "G" and rng.random() < PREP_RATE:
        segments.append((rng.choice(clitics.prepositions), "PREP"))
    key = dictionary_key(form)
    if key != form.surface:
        segments.append((clitics.determiner, "DET"))
    segments.append((key, "N"))
    if not form.standalone or (f.pro_compat and rng.random() < PRO_RATE):
        segments.append((rng.choice(clitics.pronouns), "PRO+Gen"))
    return segments, [entry.lemma, entry.code.text, f.tag()]


def _word(word_type, rng: random.Random, pointing: str) -> tuple[str, list]:
    """Token (transliteration) and expected reading [segmentation, lemma,
    code, tag] of a word type whose noun segment is pointed as asked."""
    segments, entry = word_type
    segments = [(_point(s, rng, pointing) if t == "N" else s, t) for s, t in segments]
    token = "".join(s for s, _ in segments)
    return token, ["+".join(f"{s}/{t}" for s, t in segments), *entry]


def _optional_pointing(rng: random.Random) -> str:
    return rng.choices(("none", "partial", "full"), weights=POINTING_SHARES)[0]


def _punct_probe(forms, rng: random.Random, n: int, pointing) -> list:
    """Words with an Arabic punctuation mark attached, each with the reading
    its word has without the mark."""
    probe = []
    for _ in range(n):
        token, truth = _word(_word_type(*rng.choice(forms), rng), rng, pointing(rng))
        probe.append([bn.to_arabic(token) + rng.choice(ARABIC_PUNCT), expected_line(token, truth)])
    return probe


def optional_text(seed: int, n_tokens: int, n_types: int, n_probe: int) -> dict:
    """Mostly unpointed text with Zipf-distributed token types.

    Each type is a generated form with its clitics; the noun of each
    occurrence is pointed independently, as POINTING_SHARES draws.
    NONWORD_RATE of tokens are planted non-words.
    """
    rng = random.Random(seed)
    forms = _seed_forms()
    bigram = _nonword_bigram(forms)
    types = [_word_type(*rng.choice(forms), rng) for _ in range(n_types)]
    weights = [1.0 / (rank + 1) for rank in range(n_types)]
    tokens = []
    for t in rng.choices(range(n_types), weights=weights, k=n_tokens):
        if rng.random() < NONWORD_RATE:
            token, truth = _nonword(rng, bigram), None
        else:
            token, truth = _word(types[t], rng, _optional_pointing(rng))
        tokens.append([bn.to_arabic(token), expected_line(token, truth)])
    return {"tokens": tokens, "probe": _punct_probe(forms, rng, n_probe, _optional_pointing)}


def strict_text(seed: int, n_tokens: int, n_probe: int) -> dict:
    """Fully pointed text in which no token appears twice; NONWORD_RATE of
    tokens are planted non-words."""
    rng = random.Random(seed)
    forms = _seed_forms()
    bigram = _nonword_bigram(forms)
    seen: set[str] = set()
    tokens = []
    for _ in range(n_tokens):
        # The kind is drawn per token, so redraws do not skew the shares.
        nonword = rng.random() < NONWORD_RATE
        for _ in range(1000):
            if nonword:
                token, truth = _nonword(rng, bigram), None
            else:
                token, truth = _word(_word_type(*rng.choice(forms), rng), rng, "full")
            if token not in seen:
                break
        else:
            raise RuntimeError(f"no new token after 1000 draws ({len(tokens)} so far)")
        seen.add(token)
        tokens.append([bn.to_arabic(token), expected_line(token, truth)])
    return {"tokens": tokens, "probe": _punct_probe(forms, rng, n_probe, lambda r: "full")}


def text_profile(tokens: list) -> dict[str, float]:
    """Share of a text's raw tokens with each property, measured from the
    tokens and their expected lines: planted non-words, nouns with no
    diacritic left, each clitic (article included) and any clitic, and
    tokens that repeat an earlier one."""
    counts = dict.fromkeys(("nonword", "unpointed_noun", "CONJC", "PREP", "DET", "PRO", "clitic",
                            "repeated"), 0)
    seen: set[str] = set()
    for raw, expected in tokens:
        counts["repeated"] += raw in seen
        seen.add(raw)
        segmentation = expected.split("\t")[1]
        if segmentation == "UNK":
            counts["nonword"] += 1
            continue
        # Segments are "text/TAG" joined by "+"; the pronoun tag is "PRO+Gen".
        tags = set(re.findall(r"/([A-Z]+)", segmentation))
        noun = re.search(r"(?:^|\+)([^/+]*)/N(?:\+|$)", segmentation).group(1)
        counts["unpointed_noun"] += not any(bn.is_diacritic(c) for c in noun)
        for tag in ("CONJC", "PREP", "DET", "PRO"):
            counts[tag] += tag in tags
        counts["clitic"] += bool(tags - {"N"})
    return {name: n / len(tokens) for name, n in counts.items()}


def write_inputs(cfg: dict, seed: int, work: Path) -> None:
    """Write one workload's input files to ``work``.

    compile-5k: lexicon.txt, and one row per operation in tokens.tsv (raw
    token, expected line) and lookups.tsv (automaton key, expected
    "lemma<TAB>code<TAB>tag").  Analyze workloads: tokens.tsv and probe.tsv.
    Children read the rows a chunk at a time, so the harness's input adds
    little to their peak RSS.
    """
    if cfg["kind"] == "compile":
        text = synthetic_lexicon(seed, cfg["entries"])
        data = compile_sample(text, seed, cfg["sample"])
        (work / "lexicon.txt").write_text(text, encoding="utf-8")
        print(f"lexicon_sha256\t{sha256(text)}\t{cfg['entries']} entries")
        data["lookups"] = [[key, "\t".join(expected)] for key, *expected in data["lookups"]]
    else:
        if cfg["mode"] == "strict":
            data = strict_text(seed, cfg["tokens"], cfg["probe"])
        else:
            data = optional_text(seed, cfg["tokens"], cfg["types"], cfg["probe"])
        text = " ".join(t for t, _ in data["tokens"])
        print(f"text_sha256\t{sha256(text)}\t{len(data['tokens'])} tokens")
        profile = text_profile(data["tokens"])
        print("text_profile\t" + " ".join(f"{name}={share:.4f}" for name, share in profile.items()))
    for name, rows in data.items():
        payload = "".join(f"{first}\t{rest}\n" for first, rest in rows)
        (work / f"{name}.tsv").write_text(payload, encoding="utf-8")
        print(f"{name}.tsv_sha256\t{sha256(payload)}")


if __name__ == "__main__":
    write_inputs(json.loads(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]))
