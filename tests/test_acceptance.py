"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import random
import time

import pytest

from taksir import bn
from taksir.classes import render_bp_stem
from taksir.codes import apply_root_code, extract_root, parse_code
from taksir.formdict import compile_lexicon
from taksir.paradigm import FeatureBundle, form_count, inflect
from taksir.segment import check_agreement, segment

from conftest import load_golden
from test_formdict import linear_scan


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_generation_fidelity(registry):
    golden = load_golden()
    assert len(golden) >= 140
    started = time.perf_counter()
    mismatches = []
    for ref, lemma, code_text, expected, note in golden:
        code = parse_code(code_text)
        root = extract_root(lemma, code.sg_code, code.class_tag)
        got = render_bp_stem(apply_root_code(root, code.root_code), registry.resolve(code))
        if got != expected:
            mismatches.append((ref, lemma, got, expected))
    elapsed = time.perf_counter() - started
    assert not mismatches, mismatches
    assert elapsed < 1.0
    report(1, f"{len(golden)} transcribed plurals reproduced exactly in {elapsed:.3f}s")


def test_02_paradigm_counts(seed, registry):
    for entry in seed:
        expected = 45 if entry.code.gender_flag == "g" else 27
        assert form_count(entry) == expected, entry.lemma
        generated = sum(1 for f in inflect(entry, registry) if f.standalone)
        assert generated == expected, entry.lemma
    inflecting = sum(1 for e in seed if e.code.gender_flag == "g")
    report(2, f"27 base forms for {len(seed) - inflecting} fixed-gender and 45 for {inflecting} gender-inflecting entries")


def test_03_figure_reproduction(compiled):
    cases = {
        "liEuquwdK": ("li/PREP+EuquwdK/N", ("q", "i", "G", False)),
        "AlminoTaqapi": ("Al/DET+minoTaqapi/N", ("s", "D", "G", False)),
        "OasmaAkihaA": ("OasmaAki/N+haA/PRO+Gen", ("q", "a", "G", True)),
        "OanoMiTatihaA": ("OanoMiTati/N+haA/PRO+Gen", ("q", "a", "G", True)),
    }
    for token, (decomposition, (number, definiteness, case, pro)) in cases.items():
        lattice = segment(token, compiled, "diacritic-optional")
        assert [r.show() for r in lattice.readings] == [decomposition], token
        f = lattice.readings[0].noun.features
        assert (f.number, f.definiteness, f.case, f.pro_compat) == (number, definiteness, case, pro)
    report(3, "all four figure tokens segment to the published decompositions")


def test_04_orthographic_adjustments(seed, registry):
    hamza_final = set("cOWe")
    checked_ap = checked_hamza = 0
    for entry in seed:
        forms = inflect(entry, registry)
        by_cell = {}
        for f in forms:
            key = (f.features.gender, f.features.number, f.features.case, f.features.definiteness)
            by_cell.setdefault(key, []).append(f)
        for key, cell_forms in by_cell.items():
            if key[3] != "a" or key[1] == "d":
                continue
            base = [f for f in cell_forms if f.standalone and not f.features.pro_compat]
            pro = [f for f in cell_forms if f.features.pro_compat]
            if not base:
                continue  # merged: the single form serves both uses
            stem = base[0].surface[:-1] if base[0].surface[-1] in "aui" else base[0].surface
            if stem.endswith("p"):
                assert pro and pro[0].surface[: len(stem)] == stem[:-1] + "t", (entry.lemma, key)
                checked_ap += 1
            elif stem[-1] in hamza_final:
                assert pro, (entry.lemma, key)
                assert pro[0].surface[:-2] == base[0].surface[:-2], (entry.lemma, key)
                checked_hamza += 1
    assert checked_ap and checked_hamza
    # The flagship contrast: presidents with and without the attached pronoun.
    ruWasa = [e for e in seed if e.lemma == "raeiyos"]
    forms = inflect(ruWasa[0], registry)
    gen_base = next(f for f in forms if f.features.tag() == "N:q:a:G")
    gen_pro = next(f for f in forms if f.features.tag() == "N:q:a:G:+pro")
    assert gen_base.surface == "ruWasaAoci"
    assert gen_pro.surface == "ruWasaAoei"
    report(4, f"-ap realised as -at- in {checked_ap} cells; final hamza re-seated in {checked_hamza} cells")


def test_05_no_forbidden_hamza_sequences(compiled, seed, registry):
    for surface, _ in compiled.forms():
        assert "OaAo" not in surface and "OaOo" not in surface, surface
    n = 0
    for entry in seed:
        for f in inflect(entry, registry):
            assert "OaAo" not in f.surface and "OaOo" not in f.surface, f.surface
            n += 1
    report(5, f"no OaAo/OaOo sequence in {n} generated surfaces or any compiled form")


def test_06_dictionary_round_trip(compiled, seed, registry):
    from taksir.formdict import dictionary_key

    forms = list(compiled.forms())
    generated = {}
    for e in seed:
        for f in inflect(e, registry):
            generated.setdefault(dictionary_key(f), set()).add((e.lemma, e.code.text))
    for surface, payloads in forms:
        hits = compiled.lookup(surface, "strict")
        assert len(hits) == len(payloads), surface
        distinct_entries = {(a.lemma, a.code) for a in hits}
        # Every analysis names an entry that really generates this surface;
        # more than one analysis only for lexicon homographs (shared singular
        # cells of alternative-plural entries, or colliding plurals).
        assert distinct_entries <= generated[surface], surface

    rng = random.Random(97002)
    surfaces = [s for s, _ in forms]
    queries = []
    for _ in range(250):
        queries.append((rng.choice(surfaces), "strict"))
    for _ in range(250):
        s = rng.choice(surfaces)
        queries.append(("".join(c for c in s if not bn.is_diacritic(c) or rng.random() < 0.5), "diacritic-optional"))
    for _ in range(250):
        s = rng.choice(surfaces)
        pos = rng.randrange(len(s))
        queries.append((s[:pos] + rng.choice("qEbdK") + s[pos + 1:], "strict"))
    for _ in range(250):
        queries.append((bn.strip_diacritics(rng.choice(surfaces))[::-1] or "b", "diacritic-optional"))
    for query, mode in queries:
        want = sorted((s, p.code, p.tag, p.standalone) for s, p in linear_scan(forms, query, mode))
        got = sorted((a.surface, a.code, a.features.tag(), a.standalone) for a in compiled.lookup(query, mode))
        assert got == want, (query, mode)

    for surface, _ in forms:
        stripped = bn.strip_diacritics(surface)
        assert any(a.surface == surface for a in compiled.lookup(stripped, "diacritic-optional")), surface
    report(6, f"{len(forms)} forms round-trip; 1000 random queries match the linear oracle; stripping closure holds")


def test_07_compression(compiled):
    stats = compiled.stats()
    ratio = stats["serialized_bytes"] / stats["listing_bytes"]
    assert ratio < 0.30, stats
    report(7, f"serialized dictionary is {100 * ratio:.1f}% of the plain-text listing "
              f"({stats['serialized_bytes']} / {stats['listing_bytes']} bytes)")


def test_08_agreement_judgments():
    q_human = FeatureBundle("none", "q", "i", "N")
    p_human_m = FeatureBundle("m", "p", "i", "N")
    q_nonhuman = FeatureBundle("none", "q", "i", "N")
    p_nonhuman_f = FeatureBundle("f", "p", "i", "N")
    fs = FeatureBundle("f", "s", "i", "N")
    fp = FeatureBundle("f", "p", "i", "N")
    mp = FeatureBundle("m", "p", "i", "N")
    qdep = FeatureBundle("none", "q", "i", "N")
    judgments = [
        (check_agreement(q_human, True, qdep), True),                                  # scientists + active:q
        (check_agreement(q_human, True, mp), True),                                    # scientists + working:p
        (check_agreement(q_human, True, fs), True),                                    # scientists + working:fs
        (check_agreement(p_human_m, True, fs), False),                                 # *observers + working:fs
        (check_agreement(q_human, True, fs), True),                                    # judges left:fs
        (check_agreement(p_human_m, True, fs), False),                                 # *observers left:fs
        (check_agreement(p_human_m, True, fp), False),                                 # *observers left:fp
        (check_agreement(q_nonhuman, False, fp), False),                               # *mattocks good:fp
        (check_agreement(p_nonhuman_f, False, fp), True),                              # rings good:fp
        (check_agreement(q_nonhuman, False, fs), True),                                # mattocks good:fs
    ]
    for i, (got, want) in enumerate(judgments, start=1):
        assert got is want, f"judgment {i}"
    report(8, f"all {len(judgments)} agreement judgments reproduced")


def test_09_performance(seed, registry, compiled):
    started = time.perf_counter()
    compile_lexicon(seed, registry)
    compile_seconds = time.perf_counter() - started
    assert compile_seconds < 5.0

    surfaces = [s for s, _ in compiled.forms()]
    sample = surfaces[:: max(1, len(surfaces) // 1500)]
    started = time.perf_counter()
    for s in sample:
        compiled.lookup(s, "strict")
    per_lookup_ms = 1000 * (time.perf_counter() - started) / len(sample)
    assert per_lookup_ms <= 0.5
    report(9, f"compile {compile_seconds:.2f}s; mean strict lookup {per_lookup_ms:.4f}ms over {len(sample)} tokens")


def test_10_coverage_workflow(compiled, seed, tmp_path, capsys):
    from taksir.cli import main

    known, seen = [], set()
    for surface, payloads in compiled.forms():
        if not payloads[0].standalone:
            continue
        lemmas = {r.noun.lemma for r in segment(surface, compiled, "diacritic-optional").readings}
        if len(lemmas) == 1 and lemmas.isdisjoint(seen):
            seen.update(lemmas)
            known.append(surface)
        if len(known) == 30:
            break
    text = tmp_path / "fixture.txt"
    text.write_text(" ".join(known + ["blorp", "snark", "wibble", "quux", "zonk"]) + "\n", encoding="utf-8")
    dict_path = tmp_path / "seed.primdict"
    compiled.save(dict_path)

    import pathlib

    seed_path = pathlib.Path(__file__).parents[1] / "src" / "taksir" / "data" / "seed_lexicon.txt"
    assert main(["stats", "--dict", str(dict_path), "--lexicon", str(seed_path), "--text", str(text)]) == 0
    out = capsys.readouterr().out
    assert "lemmas\t35" in out
    assert "lemmas_covered\t30\t85.7%" in out
    report(10, "held-out fixture reports 30/35 lemma coverage with the 5 unknowns listed")
