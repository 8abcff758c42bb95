import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taksir import bn
from taksir.codes import parse_code
from taksir.formdict import FormDictionary, Payload, compile_lexicon
from taksir.lexicon import parse_lexicon

from conftest import ID_FIELDS, corrupt_id, section_offsets

PAYLOAD = Payload(0, "", "$N300-m-FvEvL-FuEuL-123", "N:q:i:G", True)


def ref_optional_match(dict_form: str, query: str) -> bool:
    """Reference matcher for diacritic-optional lookup, on plain strings:
    dictionary diacritics may be skipped, query diacritics must match."""

    def walk(di: int, qi: int) -> bool:
        if qi == len(query):
            return all(bn.is_diacritic(c) for c in dict_form[di:])
        if di == len(dict_form):
            return False
        if dict_form[di] == query[qi] and walk(di + 1, qi + 1):
            return True
        if bn.is_diacritic(dict_form[di]) and walk(di + 1, qi):
            return True
        return False

    return walk(0, 0)


def linear_scan(forms, query, mode):
    hits = []
    for surface, payloads in forms:
        ok = surface == query if mode == "strict" else ref_optional_match(surface, query)
        if ok:
            hits.extend((surface, p) for p in payloads)
    return sorted(hits, key=lambda sp: (sp[0], sp[1].sort_key()))


@pytest.fixture(scope="module")
def form_list(compiled):
    return list(compiled.forms())


class TestBuild:
    def test_empty_lexicon(self):
        d = FormDictionary.build({})
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

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.text(alphabet="abc", max_size=8), max_size=40))
    def test_random_word_sets(self, words):
        d = FormDictionary.build({w: [PAYLOAD] for w in words})
        assert [s for s, _ in d.forms()] == sorted(words)
        assert_minimal(d)
        data = d.to_bytes()
        assert FormDictionary.from_bytes(data).to_bytes() == data

    def test_very_long_word(self):
        word = "kataAbN" * 3000
        assert len(word) > 20_000
        d = FormDictionary.build({word: [PAYLOAD], word[:-1]: [PAYLOAD]})
        clone = FormDictionary.from_bytes(d.to_bytes())
        assert clone.to_bytes() == d.to_bytes()
        assert [a.surface for a in clone.lookup(word, "strict")] == [word]

    def test_interpreter_recursion_limit_untouched(self, seed, registry):
        limit = sys.getrecursionlimit()
        compile_lexicon(seed, registry)
        assert sys.getrecursionlimit() == limit


class TestLookup:
    def test_strict_hit(self, compiled):
        hits = compiled.lookup("EuquwodK", "strict")
        assert [a.lemma for a in hits] == ["Eaqod"]
        assert hits[0].features.tag() == "N:q:i:G"
        assert hits[0].entry_id >= 0

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
        rng = random.Random(20260810)
        surfaces = [s for s, _ in form_list]
        queries = []
        for _ in range(250):
            queries.append((rng.choice(surfaces), "strict"))
        for _ in range(250):
            s = rng.choice(surfaces)
            kept = "".join(c for c in s if not bn.is_diacritic(c) or rng.random() < 0.4)
            queries.append((kept, "diacritic-optional"))
        for _ in range(250):
            s = rng.choice(surfaces)
            pos = rng.randrange(len(s))
            mutated = s[:pos] + rng.choice("bxEKu") + s[pos + 1:]
            queries.append((mutated, "strict"))
        for _ in range(250):
            s = rng.choice(surfaces)
            mutated = bn.strip_diacritics(s)[::-1] or "q"
            queries.append((mutated, "diacritic-optional"))
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

    def test_save_load(self, compiled, seed, tmp_path):
        path = tmp_path / "seed.primdict"
        compiled.save(path)
        clone = FormDictionary.load(path, seed)
        assert clone.dump_text() == compiled.dump_text()
        assert clone.lookup("EuquwodK", "strict")[0].entry_id >= 0

    def test_format_overflow_names_the_field(self):
        d = FormDictionary.build({"kutubN": [Payload(300, "", "$N300-m-FvEvL-FuEuL-123", "N:q:i:G", True)]})
        with pytest.raises(ValueError, match=r"payload\.drop 300 exceeds the format v1 limit of 255"):
            d.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            FormDictionary.from_bytes(b"NOPE" + b"\x00" * 40)

    def test_compression_bound(self, compiled):
        stats = compiled.stats()
        assert stats["serialized_bytes"] < 0.30 * stats["listing_bytes"], stats

    def test_stats_shape(self, compiled):
        stats = compiled.stats()
        assert stats["forms"] > 0
        assert stats["analyses"] >= stats["forms"]
        assert stats["states"] < stats["transitions"] * 2

    def test_stats_listing_bytes_counts_dump_text(self, compiled):
        assert compiled.stats()["listing_bytes"] == len(compiled.dump_text().encode("utf-8"))
        assert FormDictionary.build({}).stats()["listing_bytes"] == 0

    def test_stats_takes_known_serialized_size(self, compiled, tmp_path):
        size = compiled.save(tmp_path / "seed.primdict")
        assert size == (tmp_path / "seed.primdict").stat().st_size
        assert compiled.stats(size) == compiled.stats()

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

    @pytest.mark.parametrize("section, at, message", [
        ("state", 0, "root does not count"),    # the root's word count
        ("state", 6, "state.count of 2"),       # the next state's word count
        ("state", 5, "fanouts"),                # the root's fanout
        ("set", 0, "set lengths"),              # the first set's length
    ])
    def test_inconsistent_counts_rejected(self, section, at, message):
        data = bytearray(FormDictionary.build({"ab": [PAYLOAD], "b": [PAYLOAD]}).to_bytes())
        data[section_offsets(data)[1][section] + at] += 1
        with pytest.raises(ValueError, match=message):
            FormDictionary.from_bytes(bytes(data))

    def test_malformed_tag_rejected_at_load(self):
        data = FormDictionary.build({"a": [PAYLOAD._replace(tag="junk")]}).to_bytes()
        with pytest.raises(ValueError, match="malformed feature tag 'junk'"):
            FormDictionary.from_bytes(data)

    def test_dump_line_format(self, compiled):
        line = compiled.dump_text().splitlines()[0]
        surface, lemma, code, features = line.split("\t")
        assert parse_code(code)
        assert features.startswith("N:")


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
        assert len(failures) == 1 and "FiEaaL" in failures[0]
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


class TestPinnedOutputs:
    """The seed lexicon's artifact and listing, pinned: a change to either
    is a change of format or of behaviour, not a refactoring."""

    ARTIFACT = (69421, "f268437b779fa87acf15a4dfa9c4870dd4af0f20c6a17e36b406292f92efce99")
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
             "serialized_bytes": 69421, "listing_bytes": 299472}

    def test_stats(self, compiled):
        assert compiled.stats() == self.STATS
        assert FormDictionary.from_bytes(compiled.to_bytes()).stats() == self.STATS


class TestSharing:
    def test_equal_payload_sets_share_one_tuple(self):
        other = PAYLOAD._replace(tag="N:q:i:A")
        d = FormDictionary.build({"a": [PAYLOAD, other], "b": [other, PAYLOAD, other], "c": [other]})
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
