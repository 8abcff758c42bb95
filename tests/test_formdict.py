import gc
import hashlib
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paradigm_reference as reference
from lookup_reference import linear_scan, sample_queries
from taksir import bn
from taksir.classes import parse_registry
from taksir.codes import HAMZA, parse_code
from taksir.formdict import FormDictionary, Unit, compile_lexicon, fill_lexicon
from taksir.paradigm import RowTable
from taksir.rewrite import Rewrite
from taksir.lexicon import LexicalEntry, LexiconFile, load_seed, parse_lexicon

from conftest import (HEADER, ID_FIELDS, PAYLOAD, SEED_SLOTS, STRONG, V1_ARTIFACT, V2_ARTIFACT, V3_ARTIFACT,
                      V4_ARTIFACT, Artifact, corrupt_id, cyclic_artifact, narrowest, overreaching_artifact,
                      repeated_label_artifact, retagged_artifact, seed_variant, seed_variants, tail, word_units)


SEED_PATH = pathlib.Path(__file__).parents[1] / "src" / "taksir" / "data" / "seed_lexicon.txt"

#: A rewrite of three pieces: "kutubN" -> "kitaAb".
PIECES = Rewrite(((0, 1, "i"), (2, 3, "aA"), (4, 5, "")))


@pytest.fixture(scope="module")
def form_list(compiled):
    return list(compiled.forms())


class TestBuild:
    def test_empty_lexicon(self):
        d = FormDictionary.build([])
        assert d.arcs == [{}]
        assert not d.finals[0]
        assert list(d.forms()) == []

    def test_single_fixed_gender_entry(self, registry):
        lex, _ = parse_lexicon("Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot")
        d, failures = compile_lexicon(lex, registry)
        assert not failures
        analyses = [(s, p) for s, ps in d.forms() for p in ps]
        assert sum(1 for _, p in analyses if p.standalone) == 27
        assert sum(1 for _, p in analyses if not p.standalone) == 3

    def test_every_golden_plural_reachable_with_suffixes(self, compiled, seed, registry):
        from taksir.paradigm import inflect
        from taksir.formdict import dictionary_key

        for entry in seed.entries[:25]:
            for form in inflect(entry, registry):
                key = dictionary_key(form)
                assert any(a.features.tag() == form.features.tag() for a in compiled.lookup(key, "strict")), key

    def test_compile_deterministic(self, seed, registry):
        d1, _ = compile_lexicon(seed, registry)
        d2, _ = compile_lexicon(seed, registry)
        assert d1.to_bytes() == d2.to_bytes()

    def test_artifact_independent_of_line_order(self, compiled, registry):
        lines = SEED_PATH.read_text("utf-8").splitlines()
        random.Random(11).shuffle(lines)
        lex, diagnostics = parse_lexicon("\n".join(lines))
        assert not diagnostics
        assert [e.key for e in lex.entries] != [e.key for e in load_seed().entries]
        shuffled, failures = compile_lexicon(lex, registry)
        assert not failures
        assert shuffled.to_bytes() == compiled.to_bytes()

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_artifact_independent_of_hash_seed(self, compiled, tmp_path, hash_seed):
        out = tmp_path / "seed.primdict"
        src = pathlib.Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-m", "taksir", "compile", str(SEED_PATH), "--out", str(out)], env=env,
                       check=True, capture_output=True)
        assert out.read_bytes() == compiled.to_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.text(alphabet="abc", max_size=8), max_size=40))
    def test_random_word_sets(self, words):
        d = FormDictionary.build(word_units({w: [PAYLOAD] for w in words}))
        assert [s for s, _ in d.forms()] == sorted(words)
        assert_minimal(d)
        data = d.to_bytes()
        assert FormDictionary.from_bytes(data).to_bytes() == data

    def test_very_long_word(self):
        word = "kataAbN" * 3000
        assert len(word) > 20_000
        d = FormDictionary.build(word_units({word: [PAYLOAD], word[:-1]: [PAYLOAD]}))
        clone = FormDictionary.from_bytes(d.to_bytes())
        assert clone.to_bytes() == d.to_bytes()
        assert [a.surface for a in clone.lookup(word, "strict")] == [word]

    def test_interpreter_recursion_limit_untouched(self, seed, registry):
        limit = sys.getrecursionlimit()
        compile_lexicon(seed, registry)
        assert sys.getrecursionlimit() == limit

    def test_drop_longer_than_its_form_rejected(self):
        with pytest.raises(ValueError, match=r"the lemma rewrite \[0:-9\]\+'x' reaches past the form 'ab'"):
            FormDictionary.build(word_units({"ab": [PAYLOAD._replace(rewrite=tail(9, "x"))]}))


def reference_listing(lex, registry) -> list[str]:
    """The lines of dump_text(), sorted, from the reference generator: each
    form's key (without the article) with its own entry's lemma and code."""
    lines = []
    for e in lex.entries:
        for surface, tag, _ in reference.inflect(e, registry):
            key = surface[2:] if tag.split(":")[2] == "D" else surface
            lines.append(f"{key}\t{e.lemma}\t{e.code.text}\t{tag}")
    return sorted(lines)


class TestCompileOracle:
    """Every generated form analyses to the entry that generated it, and
    to nothing else: payloads filled once per table and stem ending give
    each entry its own lemma."""

    def test_seed(self, compiled, seed, registry):
        assert sorted(compiled.dump_text().splitlines()) == reference_listing(seed, registry)

    def test_stems_that_differ_where_a_row_cuts(self, registry):
        # Defective-iy singulars drop their last two letters in the
        # nunated cells: raAoEK must give back each lemma.
        lex, diagnostics = parse_lexicon("raAoEiy,$N300-m-FvvEvL-FuEoLaan-12y+Hum\n"
                                         "raAoEib,$N300-m-FvvEvL-FuEoLaan-12y+Hum\n")
        assert not diagnostics
        d, failures = compile_lexicon(lex, registry)
        assert not failures
        assert sorted(d.dump_text().splitlines()) == reference_listing(lex, registry)

    def test_rows_that_respell_a_copied_radical(self, registry):
        # The plural stems OajozaAoc and OabodaAoc copy their final glottal
        # stop c from the lemma; before a pronoun it is re-seated, so those
        # rows spell it out.
        lex, _ = parse_lexicon("juzoc,$N300-m-FvEvL-OaFoEaaL-123\nbadoc,$N300-m-FvEvL-OaFoEaaL-123\n")
        d, failures = compile_lexicon(lex, registry)
        assert not failures
        assert sorted(d.dump_text().splitlines()) == reference_listing(lex, registry)
        assert [a.lemma for a in d.lookup("OajozaAoWu")] == ["juzoc"]

    def test_shared_rows_that_cut_copied_radicals(self):
        # A class whose plural ends in two copied radicals that drop-iy cuts:
        # rumy and rusy share a row table and a rewrite, but the letters
        # their cut rows spell out differ.
        registry = parse_registry("N300-FvEvL-FuEuL-123\t1u23\ttriptote\tdefective-iy\n")
        lex, _ = parse_lexicon("ramoy,$N300-m-FvEvL-FuEuL-123\nrasoy,$N300-m-FvEvL-FuEuL-123\n")
        d, failures = compile_lexicon(lex, registry)
        assert not failures
        assert sorted(d.dump_text().splitlines()) == reference_listing(lex, registry)
        assert {a.lemma for a in d.lookup("ruK")} == {"ramoy", "rasoy"}

    def test_payloads_of_one_code_and_tag_in_lemma_order(self, compiled, registry):
        # kitaAob and kutaAob share a code and so the plural kutub.  On a
        # form, payloads of one code and tag come by the prefix their lemma
        # shares with the form, longest first, and then alphabetically.
        lex, _ = parse_lexicon("kitaAob,$N300-m-FvEvL-FuEuL-123\nkutaAob,$N300-m-FvEvL-FuEuL-123\n")
        pair, failures = compile_lexicon(lex, registry)
        assert not failures
        tied = 0
        for d in (pair, compiled):
            for form, payloads in d.forms():
                keys = []
                for p in payloads:
                    lemma = d.analysis(form, p).lemma
                    shared = next((i for i, (a, b) in enumerate(zip(form, lemma)) if a != b),
                                  min(len(form), len(lemma)))
                    keys.append((p.code, p.tag, -shared, lemma, not p.standalone))
                assert keys == sorted(keys), form
                tied += len({key[:2] for key in keys}) < len(keys)
        assert [a.lemma for a in pair.lookup("kutubFA")] == ["kutaAob", "kitaAob"] and tied

    @settings(max_examples=40, deadline=None)
    @given(st.lists(seed_variants(), min_size=1, max_size=25, unique_by=lambda e: (e.lemma, e.code.text)))
    def test_seed_variants(self, registry, entries):
        lex = LexiconFile(entries)
        d, failures = compile_lexicon(lex, registry)
        failed = {entry.key for entry, _ in failures}
        good = [e for e in entries if e.key not in failed]
        assert sorted(d.dump_text().splitlines()) == reference_listing(LexiconFile(good), registry)
        assert_minimal(d)


def unit(rows, payloads, end=""):
    """The Unit of a table of (cut, tail) rows, filled from a stem that
    ends in ``end``."""
    return Unit([(end, RowTable(tuple((cut, tail, None, True, False) for cut, tail in rows)), payloads)])


def build_both_ways(units):
    """The dictionary built from units, checked against the one built word
    by word from every unit expanded."""
    expanded = {}
    for base, u in units:
        for tail, payloads in zip(u.tails, u.lists):
            expanded.setdefault(base + tail, []).extend(payloads)
    by_units, by_words = FormDictionary.build(units), FormDictionary.build(word_units(expanded))
    assert by_units.to_bytes() == by_words.to_bytes()
    assert by_units.stats(len(by_units.to_bytes())) == by_words.stats(len(by_words.to_bytes()))
    assert by_units.payloads_by_rank == by_words.payloads_by_rank
    assert_minimal(by_units)
    return by_units


class TestUnitBuild:
    """Building from row-table units gives the automaton that building word
    by word gives, whether each unit is isolated or not."""

    def test_seed(self, compiled, seed, registry):
        units, _ = fill_lexicon(seed, registry)
        assert build_both_ways(units).to_bytes() == compiled.to_bytes()

    @pytest.mark.parametrize("text", [
        # The masculine stem is a prefix of the feminine one, and its
        # forms (kaAotiba, kaAotibaAni, ...) start with the feminine base.
        "kaAotib,$N300-g-FvvEvL-FuEEaL-123+Hum",
        # Two codes on one stem: equal bases.
        "kaAotib,$N300-g-FvvEvL-FuEEaL-123+Hum\nkaAotib,$N300-g-FvvEvL-FaEaLap-123+Hum",
        "makaAon,$N300-m-FvEvL-OaFoEiLap-123\nmakaAon,$N300-m-FvEvL-FaEaaLiB-h123",
        # A plural shared by two entries: a tied payload set.
        "kitaAob,$N300-m-FvEvL-FuEuL-123\nkutaAob,$N300-m-FvEvL-FuEuL-123",
        # Stems that differ where a row cuts.
        "raAoEiy,$N300-m-FvvEvL-FuEoLaan-12y+Hum\nraAoEib,$N300-m-FvvEvL-FuEoLaan-12y+Hum",
        # The masculine stem ends in a glottal stop, so its table is its
        # own and cuts the whole stem: the singular unit's base is the
        # common prefix of all its forms.
        "qaAoric,$N300-g-FvvEvL-FuEEaL-123",
        # Hamza-final and O stems beside the stems of shared tables.
        "juzoc,$N300-m-FvEvL-OaFoEaaL-123\nbadoc,$N300-m-FvEvL-OaFoEaaL-123\nSaAoHib,$N300-g-FvEvL-OaFoEaaL-123+Hum",
        # Singular stems whose last O is 0 (mabodaO), 2 (tawoOam, raOos), 4
        # (maOozaq, raOosap) and 6 (maOozaqap) letters from the end: only
        # the last shares a table, and its entry's unit holds it beside the
        # masculine stem's own table.
        "mabodaO,$N400-m-FvEvLvB-FaEaaLiB-123h\ntawoOam,$N400-m-FvEvLvB-FaEaaLiB-12h4+Hum\n"
        "maOozaq,$N400-g-FvEvLvB-FaEaaLiB-1h34\nraOos,$N300-g-FvEvL-FuEuuL-123",
        # 5 and 6 letters from the end: shared tables, beside O plurals.
        "OawGal,$N300-m-FvEEvL-FaEaaLiB-12h3\nmaOosaAop,$N4Ap-f-FvEvLvB-FaEaaLiB-1h3y\nkatif,$N300-f-FvEvL-OaFoEaaL-123",
        # A stem that contracts into madda by itself (OaAo), its O six
        # letters from the end: rows of its own.
        "OaAoxir,$N300-m-FvvEvL-FaEaaLiB-hw23\nCxir,$N300-m-FvvEvL-FaEaaLiB-hw23",
        # Gender-inflecting entries: a lemma in -ap, whose feminine stem
        # ends in -apap, and one whose plural stem has an O.
        "Euqodap,$N3ap-g-FvEvL-FuEaL-123\nbaAoeis,$N300-g-FvvEvL-FaEaLap-1h3+Hum",
    ])
    def test_hand_made_lexicons(self, registry, text):
        lex, diagnostics = parse_lexicon(text)
        assert not diagnostics
        units, failures = fill_lexicon(lex, registry)
        assert units and not failures
        d = build_both_ways(units)
        assert sorted(d.dump_text().splitlines()) == reference_listing(lex, registry)

    @pytest.mark.parametrize("text, bases", [
        ("kaAotib,$N300-g-FvvEvL-FuEEaL-123+Hum", ["kaAotib", "kutGaAob"]),
        ("Euqodap,$N3ap-g-FvEvL-FuEaL-123", ["Euqad", "Euqoda"]),
        # Hamza-final: the masculine table is its own, so the unit's base is
        # the common prefix of all its forms.
        ("qaAoric,$N300-g-FvvEvL-FuEEaL-123", ["qaAori", "qurGaAo"]),
    ])
    def test_gender_inflecting_entry_is_one_unit(self, registry, text, bases):
        # The feminine stem extends the masculine one, so both tables fill
        # one unit under the masculine base, which no other base starts.
        lex, _ = parse_lexicon(text)
        units, _ = fill_lexicon(lex, registry)
        assert sorted(base for base, _ in units) == bases
        build_both_ways(units)

    def test_seed_variants_at_scale(self, registry):
        rng = random.Random(3)
        lex = LexiconFile([seed_variant(rng.choice) for _ in range(400)])
        units, _ = fill_lexicon(lex, registry)
        build_both_ways(units)

    def test_bases_of_one_letter_and_none(self):
        payloads = [PAYLOAD._replace(tag=tag) for tag in ("N:q:i:N", "N:q:i:A", "N:q:i:G", "N:q:a:N")]
        k = unit([(0, "u"), (0, "a"), (0, "aAni"), (1, "ayo")], payloads, end="t")
        assert (k.head, k.tails) == ("", ("ayo", "ta", "taAni", "tu"))
        dual = unit([(0, "aAni"), (0, "ayo")], payloads[2:])
        assert (dual.head, dual.tails) == ("a", ("Ani", "yo"))
        for units in ([("k", k)], [("", k)], [("k", k), ("ka", dual)], [("a", dual), ("b", k)]):
            build_both_ways(word_units({"ab": [PAYLOAD], "b": [PAYLOAD]}) + units)
            build_both_ways(units)

    def test_units_whose_forms_need_their_own_sizes(self):
        drop = PAYLOAD._replace(rewrite=tail(1, "x"))
        tied = unit([(0, "u"), (0, "a")], [PAYLOAD, drop])
        tied.lists[0].append(PAYLOAD)              # two payloads of one code and tag
        wide = unit([(0, "\u00fc"), (0, "a")], [PAYLOAD, drop])
        # The tied unit is expanded; the non-ASCII ones are isolated.
        for base, u in [("kutub", tied), ("kutub", wide), ("k\u00fctub", unit([(0, "u")], [drop]))]:
            build_both_ways(word_units({"b": [PAYLOAD]}) + [(base, u)])

    def test_rewrite_past_a_unit_form_rejected(self):
        u = unit([(0, "u"), (0, "")], [PAYLOAD, PAYLOAD._replace(rewrite=tail(9, "x"))])
        with pytest.raises(ValueError, match=r"the lemma rewrite \[0:-9\]\+'x' reaches past the form 'ab'"):
            FormDictionary.build([("ab", u)])


class TestLookup:
    def test_strict_hit(self, compiled):
        hits = compiled.lookup("EuquwodK", "strict")
        assert [a.lemma for a in hits] == ["Eaqod"]
        assert hits[0].features.tag() == "N:q:i:G"

    def test_strict_miss(self, compiled):
        assert compiled.lookup("Euquwd", "strict") == []
        assert compiled.lookup("xyz", "strict") == []

    def test_optional_retrieves_bare_skeleton(self, compiled):
        hits = compiled.lookup("Eqd", "diacritic-optional")
        assert any(a.lemma == "Euqodap" and a.features.number == "q" for a in hits)
        assert any(a.lemma == "Eaqod" and a.features.number == "s" for a in hits)

    def test_optional_singular_needs_taa(self, compiled):
        hits = compiled.lookup("Eqdp", "diacritic-optional")
        assert any(a.lemma == "Euqodap" and a.features.number == "s" for a in hits)

    def test_present_diacritic_must_match(self, compiled):
        assert compiled.lookup("Euqid", "diacritic-optional") == []

    def test_partially_pointed_figure_token(self, compiled):
        hits = compiled.lookup("EuquwdK", "diacritic-optional")
        assert [a.surface for a in hits] == ["EuquwodK"]


class TestOracle:
    def test_thousand_random_queries_match_linear_scan(self, compiled, form_list):
        queries = sample_queries(random.Random(20260810), [s for s, _ in form_list], 200)
        assert len(queries) == 1000
        for query, mode in queries:
            expected = linear_scan(form_list, query, mode)
            hits = compiled.lookup(query, mode)
            got_keys = sorted((a.surface, a.code, a.features.tag(), a.standalone) for a in hits)
            want_keys = sorted((s, p.code, p.tag, p.standalone) for s, p in expected)
            assert got_keys == want_keys, (query, mode)

    def test_round_trip_every_form(self, compiled, form_list):
        for surface, payloads in form_list:
            hits = compiled.lookup(surface, "strict")
            assert len(hits) == len(payloads), surface

    def test_diacritic_stripping_closure(self, compiled, form_list):
        for surface, _ in form_list:
            hits = compiled.lookup(bn.strip_diacritics(surface), "diacritic-optional")
            assert any(a.surface == surface for a in hits), surface


def assert_minimal(d):
    """No two states share a right language."""
    signatures = {}

    def signature(state):
        if state in signatures:
            return signatures[state]
        sig = (d.finals[state], tuple((ch, signature(t)) for ch, (t, _) in d.arcs[state].items()))
        signatures[state] = sig
        return sig

    all_sigs = [signature(s) for s in range(len(d.arcs))]
    assert len(set(all_sigs)) == len(all_sigs)


class TestMinimality:
    def test_no_two_states_share_a_right_language(self, compiled):
        assert_minimal(compiled)


class TestSerialization:
    def test_bit_identical_round_trip(self, compiled):
        data = compiled.to_bytes()
        clone = FormDictionary.from_bytes(data)
        assert clone.to_bytes() == data

    def test_save_load(self, compiled, tmp_path):
        path = tmp_path / "seed.primdict"
        compiled.save(path)
        clone = FormDictionary.load(path)
        assert clone.dump_text() == compiled.dump_text()

    def test_round_trip_beyond_v1_limits(self, beyond_v1):
        data = beyond_v1.to_bytes()
        artifact = Artifact.decode(data)
        columns = artifact.columns
        assert max(columns["piece.stop"]) == 2 * 300 + 1 and max(columns["set.length"]) == 300     # drop 300
        assert artifact.counts[8] > 65535 and artifact.counts[11] > 65535     # payloads, strings
        root_labels = columns["trans.label"][-columns["state.fanout"][-1]:]     # the root is the last state
        assert sum(label > 0xFF for label in root_labels) == 300
        clone = FormDictionary.from_bytes(data)
        assert clone.to_bytes() == data
        assert clone.dump_text() == beyond_v1.dump_text()

    def test_columns_take_the_narrowest_width(self, compiled, beyond_v1):
        widths = set()
        for d in (compiled, beyond_v1):
            data = d.to_bytes()
            artifact = Artifact.decode(data)
            for name, values in artifact.columns.items():
                assert artifact.widths[name] == narrowest(values), name
            assert artifact.encode() == data
            widths.update(artifact.widths.values())
        assert widths == {"B", "H", "I"}

    def test_unknown_width_code_rejected(self):
        data = bytearray(FormDictionary.build(word_units({"ab": [PAYLOAD]})).to_bytes())
        data[HEADER.size] = ord("X")
        with pytest.raises(ValueError, match="corrupt dictionary: unknown column width code 'X'"):
            FormDictionary.from_bytes(bytes(data))

    def test_v1_artifact_names_its_version(self):
        for cut in range(6, len(V1_ARTIFACT) + 1):     # magic and version are all it takes
            with pytest.raises(ValueError, match="unsupported dictionary version 1"):
                FormDictionary.from_bytes(V1_ARTIFACT[:cut])

    def test_v2_artifact_names_its_version(self):
        for cut in range(6, len(V2_ARTIFACT) + 1):
            with pytest.raises(ValueError, match="unsupported dictionary version 2"):
                FormDictionary.from_bytes(V2_ARTIFACT[:cut])

    def test_v3_artifact_names_its_version(self):
        for cut in range(6, len(V3_ARTIFACT) + 1):
            with pytest.raises(ValueError, match="unsupported dictionary version 3"):
                FormDictionary.from_bytes(V3_ARTIFACT[:cut])

    def test_v4_artifact_names_its_version(self):
        for cut in range(6, len(V4_ARTIFACT) + 1):
            with pytest.raises(ValueError, match="unsupported dictionary version 4"):
                FormDictionary.from_bytes(V4_ARTIFACT[:cut])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            FormDictionary.from_bytes(b"NOPE" + b"\x00" * 40)

    def test_compression_bound(self, compiled):
        stats = compiled.stats(len(compiled.to_bytes()))
        assert stats["serialized_bytes"] < 0.30 * len(compiled.dump_text().encode("utf-8")), stats

    def test_stats_shape(self, compiled):
        stats = compiled.stats(len(compiled.to_bytes()))
        assert stats["forms"] > 0
        assert stats["analyses"] >= stats["forms"]
        assert stats["states"] < stats["transitions"] * 2

    @pytest.mark.parametrize("stop, shown", [(2 * 9 + 1, "[0:-9]"), (2 * 5, "[0:5]"), (2 * 3, "[0:3]")])
    def test_rewrite_past_its_form_gives_no_lemma(self, stop, shown):
        # Loaded, a drop longer than its form gave the tail alone as the lemma.
        d = FormDictionary.from_bytes(overreaching_artifact(stop))
        message = re.escape(f"the lemma rewrite {shown}+'x' reaches past the form 'ab' that carries it")
        for use in (lambda: d.lookup("ab"), d.dump_text, lambda: d.lookup("ab", "diacritic-optional")):
            with pytest.raises(ValueError, match=message):
                use()

    def test_piece_that_stops_before_it_starts_rejected_at_load(self):
        d = FormDictionary.build(word_units({"kutubN": [PAYLOAD._replace(rewrite=PIECES)]}))
        artifact = Artifact.decode(d.to_bytes())
        artifact.columns["piece.start"][1] = 4      # the piece [2:3]
        with pytest.raises(ValueError, match="corrupt dictionary: a rewrite piece stops before it starts"):
            FormDictionary.from_bytes(artifact.encode())

    def test_a_used_dictionary_is_freed_without_the_cycle_collector(self, compiled):
        # A compiled rewrite that kept itself alive kept every loaded
        # dictionary's rewrites until the next full collection.
        data = compiled.to_bytes()
        gc.collect()
        gc.disable()
        try:
            d = FormDictionary.from_bytes(data)
            d.dump_text()
            d.lookup("kutubu", "diacritic-optional")
            del d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stats_takes_known_serialized_size(self, compiled, tmp_path):
        size = compiled.save(tmp_path / "seed.primdict")
        assert size == (tmp_path / "seed.primdict").stat().st_size
        assert compiled.stats(size)["serialized_bytes"] == len(compiled.to_bytes())

    def test_truncated_artifact_rejected(self, compiled):
        data = compiled.to_bytes()
        for cut in range(0, len(data), 97):
            with pytest.raises(ValueError):
                FormDictionary.from_bytes(data[:cut])

    @pytest.mark.parametrize("field", sorted(ID_FIELDS))
    def test_out_of_range_id_names_the_field(self, compiled, field):
        with pytest.raises(ValueError, match=f"corrupt dictionary: a {field} is not below"):
            FormDictionary.from_bytes(corrupt_id(compiled.to_bytes(), field))

    def test_trailing_bytes_rejected(self, compiled):
        with pytest.raises(ValueError, match="trailing bytes"):
            FormDictionary.from_bytes(compiled.to_bytes() + b"garbage")

    # The case ids are the names these cases have always run under.
    @pytest.mark.parametrize("column, index, message", [
        pytest.param("state.final", -1, "root does not count", id="state-0-root does not count"),    # the root
        pytest.param("state.final", 0, "neither 0 nor 1", id="state-final-neither 0 nor 1"),
        pytest.param("state.fanout", 0, "fanouts", id="state-5-fanouts"),
        pytest.param("set.length", 0, "set lengths", id="set-0-set lengths"),
        pytest.param("tuple.length", 0, "tuple lengths", id="tuple-0-tuple lengths"),
        pytest.param("rewrite.length", 0, "rewrite lengths", id="rewrite-0-rewrite lengths"),
    ])
    def test_inconsistent_counts_rejected(self, column, index, message):
        artifact = Artifact.decode(FormDictionary.build(word_units({"ab": [PAYLOAD], "b": [PAYLOAD]})).to_bytes())
        artifact.columns[column][index] += 1
        with pytest.raises(ValueError, match=message):
            FormDictionary.from_bytes(artifact.encode())

    def test_tokens_that_miss_the_forms_rejected(self):
        # Two one-id tokens of one tuple; the tuple made two ids long holds
        # four forms, not the header's two.
        artifact = Artifact.decode(FormDictionary.build(word_units({"ab": [PAYLOAD], "b": [PAYLOAD]})).to_bytes())
        assert (artifact.columns["token.tuple_id"], artifact.columns["tupleref.set_id"]) == ([0, 0], [0])
        artifact.columns["tuple.length"][0] += 1
        artifact.columns["tupleref.set_id"].append(0)
        artifact.counts[5] += 1
        with pytest.raises(ValueError, match="corrupt dictionary: the tokens' tuples do not hold the 2 forms"):
            FormDictionary.from_bytes(artifact.encode())

    def test_tokens_cut_otherwise_load_the_same(self):
        # The loader does not check the token rule: two one-id tokens of one
        # tuple recut as one token of a two-id tuple load to the same
        # dictionary, and to_bytes writes the canonical cut again.
        data = FormDictionary.build(word_units({"ab": [PAYLOAD], "b": [PAYLOAD]})).to_bytes()
        artifact = Artifact.decode(data)
        assert (artifact.columns["token.tuple_id"], artifact.split("tupleref.set_id", "tuple.length")) == ([0, 0], [(0,)])
        artifact.columns.update({"token.tuple_id": [0], "tuple.length": [2], "tupleref.set_id": [0, 0]})
        artifact.counts[3], artifact.counts[5] = 1, 2
        recut = artifact.encode()
        assert recut != data
        canonical, loaded = FormDictionary.from_bytes(data), FormDictionary.from_bytes(recut)
        assert loaded.payloads_by_rank == canonical.payloads_by_rank
        assert loaded.dump_text() == canonical.dump_text()
        assert loaded.to_bytes() == data

    @pytest.mark.parametrize("edit, message", [
        # The root's arc a -> 1 made to lead to the root itself.
        pytest.param({"trans.target": {1: 2}}, "a trans.target is not below the state it leaves", id="backward target"),
        # The root's arcs a -> 1 and b -> 0 listed b first.
        pytest.param({"trans.label": {1: ord("b"), 2: ord("a")}, "trans.target": {1: 0, 2: 1}},
                     "trans.labels do not strictly increase", id="swapped labels"),
    ])
    def test_misordered_transitions_rejected(self, edit, message):
        artifact = Artifact.decode(FormDictionary.build(word_units({"ab": [PAYLOAD], "b": [PAYLOAD]})).to_bytes())
        assert (artifact.columns["trans.label"], artifact.columns["trans.target"]) == ([98, 97, 98], [0, 1, 0])
        for column, values in edit.items():
            for index, value in values.items():
                artifact.columns[column][index] = value
        with pytest.raises(ValueError, match=message):
            FormDictionary.from_bytes(artifact.encode())

    @pytest.mark.parametrize("label", [0xD800, 0x110000])
    def test_label_outside_unicode_rejected(self, label):
        artifact = Artifact.decode(FormDictionary.build(word_units({"ab": [PAYLOAD]})).to_bytes())
        artifact.columns["trans.label"][0] = label
        with pytest.raises(ValueError, match="a trans.label is not a character"):
            FormDictionary.from_bytes(artifact.encode())

    def test_cycle_rejected_at_load(self):
        # Loaded, the cycle made diacritic-optional lookup of "a" run forever.
        with pytest.raises(ValueError, match="a trans.target is not below the state it leaves"):
            FormDictionary.from_bytes(cyclic_artifact())

    def test_malformed_tag_rejected_at_load(self):
        data = FormDictionary.build(word_units({"a": [PAYLOAD._replace(tag="junk")]})).to_bytes()
        with pytest.raises(ValueError, match="malformed feature tag 'junk'"):
            FormDictionary.from_bytes(data)

    @pytest.mark.parametrize("tag", ["N:q:zz:yy", "N:xs:i:N", "N:mz:i:N", "N:s:x:N", "N:s:i:x", "N:s:a:G:pro",
                                     "N:s:a:G:+PRO", "N::i:N", "N:q:i:N:"])
    def test_tag_value_outside_the_inventory_rejected_at_load(self, tag):
        with pytest.raises(ValueError, match="malformed feature tag"):
            FormDictionary.from_bytes(retagged_artifact(tag))

    @pytest.mark.parametrize("tag", ["N:q:i:G", "N:ms:D:N", "N:fd:a:A:+pro", "N:p:a:G"])
    def test_tag_inside_the_inventory_loads(self, tag):
        d = FormDictionary.from_bytes(retagged_artifact(tag))
        assert [a.features.tag() for a in d.lookup("ab")] == [tag]

    def test_repeated_label_rejected(self):
        # Loaded, the second b arc replaced the first: stats() counted two
        # forms, but lookup("ab") gave the payloads of "ac".
        with pytest.raises(ValueError, match="a state's trans.labels do not strictly increase"):
            FormDictionary.from_bytes(repeated_label_artifact())

    def test_dump_line_format(self, compiled):
        line = compiled.dump_text().splitlines()[0]
        surface, lemma, code, features = line.split("\t")
        assert parse_code(code)
        assert features.startswith("N:")


def one_to_one(pairs) -> bool:
    """Whether the pairs map their first items one-to-one onto their second."""
    forward, backward = {}, {}
    return all(forward.setdefault(x, y) == y and backward.setdefault(y, x) == x for x, y in pairs)


class TestTokens:
    """The ranks' set ids are stored once per shared sub-automaton: the
    token and tuple columns follow the format's rule, recomputed in test
    code from the decoded automaton, and expand to the ranks' sets."""

    @pytest.fixture(scope="class", params=["seed", "400 seed variants"])
    def dictionary(self, request, compiled, registry):
        if request.param == "seed":
            return compiled
        rng = random.Random(3)
        d, _ = compile_lexicon(LexiconFile([seed_variant(rng.choice) for _ in range(400)]), registry)
        return d

    def test_columns_follow_the_rule(self, dictionary):
        artifact = Artifact.decode(dictionary.to_bytes())
        ids = {}
        set_ids = [ids.setdefault(payloads, len(ids)) for payloads in dictionary.payloads_by_rank]
        tokens = artifact.token_rule(set_ids)
        assert any(len(token) > 1 for token in tokens)
        tuple_ids = {}
        assert artifact.columns["token.tuple_id"] == [tuple_ids.setdefault(t, len(tuple_ids)) for t in tokens]
        assert artifact.split("tupleref.set_id", "tuple.length") == list(tuple_ids)
        assert len(tuple_ids) < len(tokens) < len(set_ids)

    def test_tokens_expand_to_the_ranks_sets(self, dictionary):
        artifact = Artifact.decode(dictionary.to_bytes())
        tuples = artifact.split("tupleref.set_id", "tuple.length")
        sets = artifact.split("setref.payload_id", "set.length")
        expanded = [sets[s] for t in artifact.columns["token.tuple_id"] for s in tuples[t]]
        assert [len(s) for s in expanded] == [len(s) for s in dictionary.payloads_by_rank]
        assert one_to_one(zip(expanded, dictionary.payloads_by_rank))
        assert one_to_one((i, p) for s, payloads in zip(expanded, dictionary.payloads_by_rank)
                          for i, p in zip(s, payloads))

    def test_shared_unit_stores_its_tuple_once(self):
        payloads = [PAYLOAD._replace(tag=tag) for tag in ("N:q:i:N", "N:q:i:A", "N:q:i:G")]
        u = unit([(0, "u"), (0, "a"), (0, "i")], payloads)
        artifact = Artifact.decode(build_both_ways([("kutub", u), ("rusul", u)]).to_bytes())
        assert artifact.columns["token.tuple_id"] == [0, 0]
        assert artifact.split("tupleref.set_id", "tuple.length") == [(0, 1, 2)]


class TestFailurePath:
    def test_generation_failures_reported_not_fatal(self, registry):
        # Second entry parses but has no registered class; the build must
        # report it and still compile the first.
        lex, diags = parse_lexicon(
            "Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot\n"
            "Euqodap,$N3ap-f-FvEvL-FiEaaL-123 / knot, unregistered class\n"
        )
        assert not diags
        d, failures = compile_lexicon(lex, registry)
        assert [entry.code.text for entry, _ in failures] == ["N3ap-f-FvEvL-FiEaaL-123"]
        assert d.lookup("EuqadK", "strict")


class TestLookupFuzz:
    def test_optional_lookup_matches_reference_on_random_strings(self, compiled, form_list):
        @settings(max_examples=200, deadline=None)
        @given(st.text(alphabet="EuqodapAlbwk" + "iKN", min_size=1, max_size=10))
        def run(query):
            want = sorted((s, p.code, p.tag, p.standalone) for s, p in linear_scan(form_list, query, "diacritic-optional"))
            got = sorted((a.surface, a.code, a.features.tag(), a.standalone) for a in compiled.lookup(query, "diacritic-optional"))
            assert got == want

        run()


class TestLoaderFuzz:
    """Every byte flip, insertion or truncation of an artifact is either
    rejected with ValueError or loads into a dictionary that can be listed,
    measured and searched."""

    def test_mutated_artifacts_raise_value_error_or_load(self, compiled):
        small = FormDictionary.build(word_units({
            "ab": [PAYLOAD, PAYLOAD._replace(rewrite=Rewrite(((0, 1, "i"), (1, 2, ""))))],
            "b": [PAYLOAD, PAYLOAD._replace(rewrite=tail(1, ""), tag="N:q:i:A")]}))
        artifacts = [small.to_bytes(), compiled.to_bytes()]

        @settings(max_examples=400, deadline=None)
        @given(st.sampled_from(artifacts), st.sampled_from(["flip", "insert", "truncate"]), st.floats(0, 1),
               st.integers(1, 255), st.binary(min_size=1, max_size=8), st.sampled_from(["ab", "b", "kutubu", "Eqd"]))
        def run(artifact, edit, where, mask, inserted, query):
            at = int(where * (len(artifact) - 1))
            if edit == "flip":
                mutated = artifact[:at] + bytes([artifact[at] ^ mask]) + artifact[at + 1:]
            elif edit == "insert":
                mutated = artifact[:at] + inserted + artifact[at:]
            else:
                mutated = artifact[:at]
            try:
                d = FormDictionary.from_bytes(mutated)
            except ValueError:
                return
            # A rewrite that reaches past a form carrying it shows only when used.
            for use in (d.dump_text, lambda: d.stats(len(d.to_bytes())),
                        lambda: d.lookup(query, "diacritic-optional")):
                try:
                    use()
                except ValueError as exc:
                    assert "reaches past the form" in str(exc)

        run()


class TestPinnedOutputs:
    """The seed lexicon's artifact and listing, pinned: a change to either
    is a change of format or of behaviour, not a refactoring."""

    ARTIFACT = (44805, "b76f973412332c96cfde374fd973b2806eeee8afaa042d43cbe087d24e78d6e6")
    LISTING = (299472, "821e1c7dff0f57a97405955b3e813495b812a9fe31bb5c1dda384fbb69459571")

    @staticmethod
    def digest(data: bytes):
        return len(data), hashlib.sha256(data).hexdigest()

    def test_after_build(self, compiled):
        assert self.digest(compiled.to_bytes()) == self.ARTIFACT
        assert self.digest(compiled.dump_text().encode("utf-8")) == self.LISTING

    def test_after_round_trip(self, compiled):
        clone = FormDictionary.from_bytes(compiled.to_bytes())
        assert self.digest(clone.to_bytes()) == self.ARTIFACT
        assert self.digest(clone.dump_text().encode("utf-8")) == self.LISTING

    STATS = {"forms": 2593, "analyses": 5049, "states": 1000, "transitions": 1405,
             "serialized_bytes": 44805}

    def test_stats(self, compiled):
        assert compiled.stats(len(compiled.to_bytes())) == self.STATS
        clone = FormDictionary.from_bytes(compiled.to_bytes())
        assert clone.stats(len(clone.to_bytes())) == self.STATS


def _keeps_its_strong_radicals(e) -> bool:
    copied = {token[1] for token in e.code.root_code.tokens if token[0] == "copy"}
    return all(k in copied for k, radical in enumerate(e.sg_root.radicals, start=1)
               if radical not in (HAMZA, "w", "y", "A", "Y"))


#: Seed entries with strong radicals, each radical of which its plural keeps.
KEEPING = [(e, slots) for e, slots in SEED_SLOTS if slots and _keeps_its_strong_radicals(e)]


class TestPluralSharing:
    """A broken plural's payloads are a fact of its class, not of its entry."""

    def q_payloads(self, registry, entries) -> set:
        d, failures = compile_lexicon(LexiconFile(entries), registry)
        assert not failures, failures
        return {p for s in d.payloads_by_rank for p in s if p.tag.split(":")[1] == "q"}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_entries_that_differ_in_strong_radicals(self, registry, data):
        e, slots = data.draw(st.sampled_from(KEEPING))

        def variant():
            lemma = list(e.lemma)
            for i in slots:
                lemma[i] = data.draw(st.sampled_from(STRONG))
            return LexicalEntry("".join(lemma), e.code)

        one, other = variant(), variant()
        assert len(self.q_payloads(registry, [one, other])) <= len(self.q_payloads(registry, [one]))

    def test_fewer_records_than_entries_at_scale(self, registry):
        # 5,000 seed variants over 130 codes: a record per entry and cell
        # would make about eight broken-plural records per entry.
        rng = random.Random(7)
        entries = {}
        while len(entries) < 5000:
            e = seed_variant(rng.choice)
            entries.setdefault((e.lemma, e.code.text), e)
        assert len(self.q_payloads(registry, list(entries.values()))) < len(entries)


class TestSharing:
    def test_equal_payload_sets_share_one_tuple(self):
        other = PAYLOAD._replace(tag="N:q:i:A")
        d = FormDictionary.build(word_units({"a": [PAYLOAD, other], "b": [other, PAYLOAD, other], "c": [other]}))
        a, b, c = d.payloads_by_rank
        assert a == (other, PAYLOAD) and a is b and c == (other,)   # tag A sorts before G

    def test_compiled_ranks_share_tuples_and_records(self, compiled):
        sets = compiled.payloads_by_rank
        assert len({id(s) for s in sets}) == len(set(sets)) < len(sets)
        records = [p for s in set(sets) for p in s]
        assert len({id(p) for p in records}) == len(set(records))


class TestFeatureInterning:
    def test_analyses_with_one_tag_share_a_bundle(self, compiled):
        by_tag = {}
        for a in compiled.lookup("Eqd", "diacritic-optional") + compiled.lookup("ktb", "diacritic-optional"):
            by_tag.setdefault(a.features.tag(), []).append(a)
        shared = [group for group in by_tag.values() if len({a.surface for a in group}) > 1]
        assert shared
        for group in shared:
            assert all(a.features is group[0].features for a in group)
