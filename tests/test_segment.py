import random
import weakref
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_reference import Reference, clitic_chains
from taksir import bn, cli
from taksir.compiler import compile_lexicon
from taksir.formdict import Analysis, FormDictionary, Payload
from taksir.lexicon import LexiconFile
from taksir.paradigm import FeatureBundle, inflect
from taksir.segment import (
    MEMO_SIZE,
    Reading,
    Segment,
    SegmentLattice,
    check_agreement,
    concordance,
    format_reading,
    load_clitics,
    parse_mask,
    segment,
)

from conftest import seed_variant, tail, word_units

MODES = ("strict", "diacritic-optional")


def reading_strings(lattice):
    return sorted(r.shown for r in lattice.readings)


def fresh(dictionary):
    """A copy of a dictionary with an empty memo."""
    return FormDictionary.from_bytes(dictionary.to_bytes())


def lines(token, lattice):
    return [format_reading(token, r) for r in lattice.readings] or [f"{token}\tUNK"]


def uncached(token, dictionary, mode):
    """``segment``'s answer computed afresh: an explicit inventory bypasses the memo."""
    return lines(token, segment(token, dictionary, mode, inventory=load_clitics()))


class TestSegmentation:
    def test_preposition_plus_bp(self, compiled):
        lattice = segment("liEuquwdK", compiled, "diacritic-optional")
        assert reading_strings(lattice) == ["li/PREP+EuquwdK/N"]
        noun = lattice.readings[0].noun
        assert (noun.features.number, noun.features.definiteness, noun.features.case) == ("q", "i", "G")
        assert noun.lemma == "Eaqod"

    def test_determiner_plus_singular(self, compiled):
        lattice = segment("AlminoTaqapi", compiled, "diacritic-optional")
        assert reading_strings(lattice) == ["Al/DET+minoTaqapi/N"]
        noun = lattice.readings[0].noun
        assert (noun.features.number, noun.features.definiteness, noun.features.case) == ("s", "D", "G")

    def test_construct_plus_pronoun(self, compiled):
        lattice = segment("OasmaAkihaA", compiled, "diacritic-optional")
        assert reading_strings(lattice) == ["OasmaAki/N+haA/PRO+Gen"]
        noun = lattice.readings[0].noun
        assert noun.features.definiteness == "a"
        assert noun.features.pro_compat

    def test_taa_allograph_before_pronoun(self, compiled):
        lattice = segment("OanoMiTatihaA", compiled, "strict")
        assert reading_strings(lattice) == ["OanoMiTati/N+haA/PRO+Gen"]
        assert lattice.readings[0].noun.lemma == "naMaAoT"

    def test_determiner_excludes_pronoun(self, compiled):
        assert not segment("AlEuqadihaA", compiled, "diacritic-optional")

    def test_unanalyzable_token(self, compiled):
        assert not segment("xyzzy", compiled, "diacritic-optional")

    def test_conjunction_chain(self, compiled):
        lattice = segment("wabiEuqadK", compiled, "strict")
        assert reading_strings(lattice) == ["wa/CONJC+bi/PREP+EuqadK/N"]

    def test_surface_conservation(self, compiled):
        for token in ["liEuquwdK", "AlminoTaqapi", "OasmaAkihaA", "OanoMiTatihaA", "wabiEuqadK", "maSaAyid"]:
            for reading in segment(token, compiled, "diacritic-optional").readings:
                assert "".join(s.surface for s in reading.segments) == token

    def test_constraint_soundness(self, compiled):
        tokens = ["liEuquwdK", "AlminoTaqapi", "OasmaAkihaA", "biAlEuqadi", "Euqadu", "EuqodapN", "kaAotibaAhaA"]
        for token in tokens:
            for reading in segment(token, compiled, "diacritic-optional").readings:
                tags = [s.tag for s in reading.segments]
                noun = reading.noun
                if "PREP" in tags:
                    assert noun.features.case == "G"
                if "DET" in tags:
                    assert noun.features.definiteness == "D"
                else:
                    assert noun.features.definiteness != "D"
                if "PRO+Gen" in tags:
                    assert noun.features.definiteness == "a" and noun.features.pro_compat
                else:
                    assert noun.standalone

    def test_brute_force_oracle_equivalence(self, compiled):
        # Checked twice per mode on a dictionary of its own: on a cold memo, then a warm one.
        reference = Reference(compiled, load_clitics())
        dictionary = fresh(compiled)
        tokens = [
            "liEuquwdK", "AlminoTaqapi", "OasmaAkihaA", "OanoMiTatihaA", "wabiEuqadK",
            "maSaAyid", "Euqadu", "AlEuqadihaA", "faAlkutubi", "EuqodatuhaA", "xyzzy",
        ]
        for mode in MODES:
            for token in tokens:
                expected = reference.lines(token, mode)
                for memo in ("cold", "warm"):
                    got = [format_reading(token, r) for r in segment(token, dictionary, mode).readings]
                    assert got == expected, (token, mode, memo)
        assert dictionary.segment_memo.cache_info().hits == len(tokens) * len(MODES)

    def test_loaded_dictionary_parses_no_tag(self, compiled, monkeypatch):
        # Loading parses each stored tag once; segmenting, lookup and listing
        # then read the payloads' bundles.
        dictionary = fresh(compiled)
        tokens = ["liEuquwdK", "AlminoTaqapi", "OasmaAkihaA", "OanoMiTatihaA", "wabiEuqadK", "biAlEuqadi",
                  "faAlkutubi", "EuqodatuhaA", "kaAotibaAhaA", "xyzzy"]
        forms = [form for form, _ in islice(compiled.forms(), 0, None, 17)]
        want = ({mode: [lines(t, segment(t, compiled, mode, load_clitics())) for t in tokens] for mode in MODES},
                [compiled.lookup(form) for form in forms], compiled.dump_text())

        def refuse(cls, tag):
            raise AssertionError(f"tag {tag!r} parsed after load")

        monkeypatch.setattr(FeatureBundle, "from_tag", classmethod(refuse))
        got = ({mode: [lines(t, segment(t, dictionary, mode)) for t in tokens] for mode in MODES},
               [dictionary.lookup(form) for form in forms], dictionary.dump_text())
        assert got == want
        unknown = {mode: [t for t, out in zip(tokens, got[0][mode]) if out == [f"{t}\tUNK"]] for mode in MODES}
        assert unknown == {"strict": ["liEuquwdK", "OasmaAkihaA", "xyzzy"], "diacritic-optional": ["xyzzy"]}

    def test_clitic_inventory_loaded_once(self):
        assert load_clitics() is load_clitics()

    def test_reading_line_format(self, compiled):
        lattice = segment("AlminoTaqapi", compiled, "strict")
        line = format_reading("AlminoTaqapi", lattice.readings[0])
        token, segs, entry, features = line.split("\t")
        assert segs == "Al/DET+minoTaqapi/N"
        assert entry.startswith("minoTaqap,")

    @pytest.mark.parametrize("mode", MODES)
    def test_readings_are_the_records_they_name(self, compiled, mode):
        # Readings are made with tuple.__new__, past the records' own
        # constructors: each must still be its record, hold the N segment's
        # analysis as its noun and show its segments as written out.
        nouns = sorted(surface for surface, _ in compiled.forms())
        tokens = clitic_chains(random.Random(28), nouns, 400)
        dictionary = fresh(compiled)
        built = 0
        for token in tokens:
            lattice = segment(token, dictionary, mode)
            assert type(lattice) is SegmentLattice
            assert lattice == segment(token, dictionary, mode, inventory=load_clitics())
            for r in lattice.readings:
                assert type(r) is Reading and all(type(s) is Segment for s in r.segments)
                (n,) = [s for s in r.segments if s.tag == "N"]
                assert type(r.noun) is Analysis and r.noun is n.analysis
                assert all(s.analysis is None for s in r.segments if s is not n)
                assert r.shown == "+".join(f"{s.surface}/{s.tag}" for s in r.segments)
                built += 1
        assert built > len(tokens) // 10     # most random chains break a constraint


#: The tags of the small dictionary below: some fit a preposition, the
#: article or a pronoun, and one is bound.
SMALL_TAGS = ("N:q:i:G", "N:q:D:G", "N:ms:a:G:+pro", "N:ms:a:N", "N:fs:D:N", "N:fs:i:G")


@pytest.fixture(scope="module")
def small():
    """One-letter forms and forms spelled like clitics, each with every tag
    of SMALL_TAGS; forms kab and kub share a skeleton, and lemmas that drop
    the whole form make equal readings of different forms."""
    def payloads(word):
        return [Payload(tail(len(word), "X") if i % 2 else tail(0, ""), f"$c{i % 2}", FeatureBundle.from_tag(tag),
                        not tag.endswith("+pro"))
                for i, tag in enumerate(SMALL_TAGS)]
    words = ["k", "a", "b", "h", "u", "y", "ka", "bi", "hu", "ya", "Al", "wa", "kab", "kub", "kb", "kabu", "kaAhu"]
    return FormDictionary.build(word_units({w: payloads(w) for w in words}))


class TestOracleAtScale:
    """``segment`` against the brute-force reference, line for line and in
    order, in both modes."""

    @pytest.fixture(scope="class")
    def variants(self, registry):
        # About 300 seed entries with their strong radicals redrawn.
        rng = random.Random(300)
        entries = {}
        while len(entries) < 300:
            e = seed_variant(rng.choice)
            entries.setdefault((e.lemma, e.code.text), e)
        dictionary, _ = compile_lexicon(LexiconFile(list(entries.values())), registry)
        return dictionary

    @pytest.mark.parametrize("mode", MODES)
    def test_seed(self, compiled, mode):
        nouns = [form for form, _ in compiled.forms()]
        tokens = clitic_chains(random.Random(41), nouns, 1500) + nouns[::7]
        reference = Reference(compiled, load_clitics())
        for token in tokens:
            assert uncached(token, compiled, mode) == (reference.lines(token, mode) or [f"{token}\tUNK"]), token

    @pytest.mark.parametrize("mode", MODES)
    def test_seed_variants(self, variants, mode):
        nouns = [form for form, _ in variants.forms()]
        assert len(nouns) > 4000
        tokens = clitic_chains(random.Random(42), nouns, 1500)
        reference = Reference(variants, load_clitics())
        for token in tokens:
            assert uncached(token, variants, mode) == (reference.lines(token, mode) or [f"{token}\tUNK"]), token

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["seed", "small"]), mode=st.sampled_from(MODES))
    def test_tokens_of_forms_and_clitics(self, compiled, small, data, which, mode):
        # Clitics in any order and number ("ka" is a preposition and a
        # pronoun), forms of the dictionary, whole or without diacritics,
        # and single letters.
        dictionary = compiled if which == "seed" else small
        inv = load_clitics()
        forms = [form for form, _ in dictionary.forms()]
        piece = st.one_of(st.sampled_from([*inv.conjunctions, *inv.prepositions, inv.determiner, *inv.pronouns]),
                          st.sampled_from(forms), st.sampled_from(forms).map(bn.strip_diacritics),
                          st.sampled_from("kabhuyiAl"))
        token = "".join(data.draw(st.lists(piece, min_size=1, max_size=5)))
        expected = Reference(dictionary, inv).lines(token, mode) or [f"{token}\tUNK"]
        assert uncached(token, dictionary, mode) == expected

    def test_equal_readings_keep_form_then_payload_order(self, small):
        # Four forms match kb in diacritic-optional mode, and their
        # readings tie on segmentation and code: form order decides, then
        # payload order.  Every form gives the two $c1 lines; the first
        # form's readings are kept.
        lattice = segment("kb", small, "diacritic-optional", inventory=load_clitics())
        assert [format_reading("kb", r) for r in lattice.readings] == [
            "kb\tkb/N\tkab,$c0\tN:q:i:G", "kb\tkb/N\tkabu,$c0\tN:q:i:G", "kb\tkb/N\tkb,$c0\tN:q:i:G",
            "kb\tkb/N\tkub,$c0\tN:q:i:G", "kb\tkb/N\tX,$c1\tN:fs:i:G", "kb\tkb/N\tX,$c1\tN:ms:a:N",
        ] == Reference(small, load_clitics()).lines("kb", "diacritic-optional")
        assert [r.noun.surface for r in lattice.readings] == ["kab", "kabu", "kb", "kub", "kab", "kab"]


class TestMemo:
    """``segment`` with the default inventory answers from a per-dictionary
    memo; it must give what the uncached path gives."""

    @pytest.fixture(scope="class")
    def stream(self, seed, registry):
        # Surfaces of every 5th seed entry, with clitics and unpointed, plus
        # non-words; every token occurs at least twice, in shuffled order.
        rng = random.Random(6)
        clitics = load_clitics()
        tokens = ["xyzzy", "qqq", "wa", "Al", "haA", "bi"]
        for entry in seed.entries[::5]:
            for form in rng.sample(inflect(entry, registry), 4):
                surface = form.surface
                tokens.append(surface)
                tokens.append(bn.strip_diacritics(surface))
                if form.standalone:
                    tokens.append(rng.choice(clitics.conjunctions) + rng.choice(clitics.prepositions) + surface)
                else:
                    tokens.append(surface + rng.choice(clitics.pronouns))
        tokens = list(dict.fromkeys(tokens))
        stream = tokens * 2
        rng.shuffle(stream)
        return stream

    @pytest.mark.parametrize("mode", MODES)
    def test_memo_matches_uncached_path(self, compiled, stream, mode):
        dictionary = fresh(compiled)
        expected = [uncached(token, dictionary, mode) for token in stream]
        for memo in ("cold", "warm"):
            assert [lines(token, segment(token, dictionary, mode)) for token in stream] == expected, memo
        info = dictionary.segment_memo.cache_info()
        assert info.currsize == len(set(stream)) < MEMO_SIZE
        assert info.hits == 2 * len(stream) - len(set(stream))

    @settings(max_examples=150, deadline=None)
    @given(token=st.text(alphabet=sorted(bn.ALPHABET), max_size=14), mode=st.sampled_from(MODES))
    def test_memo_matches_uncached_path_on_any_token(self, compiled, token, mode):
        expected = uncached(token, compiled, mode)
        assert lines(token, segment(token, compiled, mode)) == expected
        assert lines(token, segment(token, compiled, mode)) == expected

    def test_memo_is_bounded(self, compiled):
        dictionary = fresh(compiled)
        for i in range(MEMO_SIZE + 100):
            segment(f"xyz{i}", dictionary, "strict")
            assert dictionary.segment_memo.cache_info().currsize <= MEMO_SIZE
        assert dictionary.segment_memo.cache_info().currsize == MEMO_SIZE == 1024

    def test_memo_is_per_dictionary_and_mode(self, compiled):
        dictionary = fresh(compiled)
        strict = segment("Euqad", dictionary, "strict")
        optional = segment("Euqad", dictionary, "diacritic-optional")
        assert not strict and optional
        assert segment("Euqad", dictionary, "diacritic-optional") is optional
        assert dictionary.segment_memo is not compiled.segment_memo

    def test_exceptions_are_not_remembered(self, compiled):
        dictionary = fresh(compiled)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown lookup mode"):
                segment("Euqad", dictionary, "loose")
        assert dictionary.segment_memo.cache_info().currsize == 0

    def test_results_are_immutable(self, compiled, seed):
        lattice = segment("liEuquwdK", compiled, "diacritic-optional")
        assert isinstance(lattice.readings, tuple)
        reading = lattice.readings[0]
        entry = seed.entries[0]
        with pytest.raises(AttributeError):
            reading.segments = ()
        with pytest.raises(AttributeError):
            reading.noun = None
        with pytest.raises(AttributeError):
            lattice.readings = ()
        with pytest.raises(AttributeError):
            reading.segments[0].surface = ""
        with pytest.raises(AttributeError):
            reading.noun.lemma = ""
        with pytest.raises(AttributeError):
            reading.noun.features.case = "N"
        with pytest.raises(AttributeError):
            entry.lemma = ""
        with pytest.raises(AttributeError):
            entry.code.bp_label = ""
        with pytest.raises(AttributeError):
            entry.sg_root.radicals = ()

    def test_memo_does_not_keep_its_dictionary_alive(self, compiled):
        dictionary = fresh(compiled)
        segment("Euqad", dictionary, "strict")
        ref = weakref.ref(dictionary)
        del dictionary  # no reference cycle: freed at once, without the collector
        assert ref() is None


def fb(gender, number):
    return FeatureBundle(gender, number, "i", "N")


class TestAgreement:
    def test_human_bp_head(self):
        head = FeatureBundle("none", "q", "i", "N")
        assert check_agreement(head, True, fb("none", "q"))          # active:q
        assert check_agreement(head, True, fb("m", "p"))             # working:p
        assert check_agreement(head, True, fb("f", "s"))             # working:fs
        assert check_agreement(head, True, fb("f", "s"))
        assert check_agreement(head, True, fb("m", "p"))
        assert check_agreement(head, True, fb("f", "p"))

    def test_human_suffixal_head(self):
        head = FeatureBundle("m", "p", "i", "N")
        assert not check_agreement(head, True, fb("f", "s"))         # *observers working:fs
        assert check_agreement(head, True, fb("none", "q"))          # active:q
        assert check_agreement(head, True, fb("m", "p"))
        assert not check_agreement(head, True, fb("f", "s"))
        assert check_agreement(head, True, fb("m", "p"))
        assert not check_agreement(head, True, fb("f", "p"))

    def test_non_human_bp_head(self):
        head = FeatureBundle("none", "q", "i", "N")
        assert check_agreement(head, False, fb("f", "s"))
        assert not check_agreement(head, False, fb("f", "p"))        # *mattocks good:fp
        assert not check_agreement(head, False, fb("m", "p"))

    def test_non_human_suffixal_head(self):
        head = FeatureBundle("f", "p", "i", "N")
        assert check_agreement(head, False, fb("f", "p"))            # rings good:fp
        assert check_agreement(head, False, fb("f", "s"))
        assert not check_agreement(head, False, fb("m", "p"))

    def test_plural_heads_only(self):
        with pytest.raises(ValueError):
            check_agreement(FeatureBundle("f", "s", "i", "N"), True, fb("f", "s"))


class TestConcordance:
    def test_mask_hits(self, compiled):
        tokens = "qaroOa AlkaAtibu EuqadK wakutubi kaviyrapF".split()
        lines = concordance(tokens, compiled, "N:q", "diacritic-optional")
        assert len(lines) == 2
        assert any("EuqadK" in line for line in lines)
        assert any("wakutubi" in line for line in lines)

    def test_mask_on_undiacritized_text(self, compiled):
        tokens = "qrO AlkAtb Euqad wktb kvyrp".split()
        lines = concordance(tokens, compiled, "N:q", "diacritic-optional")
        assert any("Euqad" in line for line in lines)

    def test_empty_text(self, compiled):
        assert concordance([], compiled, "N:q") == []

    def test_mask_parsing(self):
        assert parse_mask("N:q") == {"number": "q"}
        assert parse_mask("N:fs:D") == {"gender": "f", "number": "s", "definiteness": "D"}
        assert parse_mask("N:q:G") == {"number": "q", "case": "G"}
        with pytest.raises(ValueError):
            parse_mask("V:q")


class TestAgreementTotality:
    def test_table_is_total_over_plural_heads(self):
        import itertools

        heads = [FeatureBundle(g, n, "i", "N") for g, n in
                 [("none", "q"), ("m", "p"), ("f", "p")]]
        deps = [FeatureBundle(g, n, "i", "N") for g, n in
                itertools.product(("m", "f"), ("s", "d", "p"))] + [FeatureBundle("none", "q", "i", "N")]
        for head, dep, human in itertools.product(heads, deps, (True, False)):
            assert check_agreement(head, human, dep) in (True, False)


#: Arabic letters and marks, punctuation the tokenizer strips or keeps,
#: tatweel, whitespace, and any other character outside the surrogates.
RUNNING_TEXT = st.text(st.one_of(
    st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
    st.sampled_from(list(".,;:!?()[]{}\"'«»…-_/\u060c\u061b\u061f\u0640 \t\n")),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF, exclude_categories=("Cs",)),
    st.characters(exclude_categories=("Cs",)),
), max_size=40)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=RUNNING_TEXT)
    def test_arbitrary_text_never_raises(self, compiled, text):
        for token in cli.tokenize(text):
            for mode in MODES:
                for reading in segment(token, compiled, mode).readings:
                    format_reading(token, reading)

    def test_segmentation_never_breaks_surface_conservation(self, compiled):
        alphabet = "EuqodapAlbihaAwfKNk"

        @settings(max_examples=150, deadline=None)
        @given(st.text(alphabet=alphabet, min_size=1, max_size=14))
        def run(token):
            for reading in segment(token, compiled, "diacritic-optional").readings:
                assert "".join(s.surface for s in reading.segments) == token

        run()
