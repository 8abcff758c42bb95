import pytest

from taksir.paradigm import FeatureBundle
from taksir.segment import (
    check_agreement,
    concordance,
    format_reading,
    load_clitics,
    parse_mask,
    segment,
)


def reading_strings(lattice):
    return sorted(r.show() for r in lattice.readings)


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
        # Naive alternative: try every template combination independently.
        inventory = load_clitics()
        tokens = [
            "liEuquwdK", "AlminoTaqapi", "OasmaAkihaA", "OanoMiTatihaA", "wabiEuqadK",
            "maSaAyid", "Euqadu", "AlEuqadihaA", "faAlkutubi", "EuqodatuhaA", "xyzzy",
        ]
        for token in tokens:
            expected = set()
            for conj in [None, *inventory.conjunctions]:
                t1 = token[len(conj):] if conj and token.startswith(conj) else (token if conj is None else None)
                if t1 is None:
                    continue
                for prep in [None, *inventory.prepositions]:
                    t2 = t1[len(prep):] if prep and t1.startswith(prep) else (t1 if prep is None else None)
                    if t2 is None:
                        continue
                    for det in [None, "Al"]:
                        t3 = t2[len(det):] if det and t2.startswith(det) else (t2 if det is None else None)
                        if t3 is None:
                            continue
                        for pro in [None, *inventory.pronouns]:
                            if pro is None:
                                noun = t3
                            elif t3.endswith(pro) and len(t3) > len(pro):
                                noun = t3[: -len(pro)]
                            else:
                                continue
                            if not noun:
                                continue
                            for a in compiled.lookup(noun, "diacritic-optional"):
                                f = a.features
                                if prep and f.case != "G":
                                    continue
                                if det and f.definiteness != "D":
                                    continue
                                if not det and f.definiteness == "D":
                                    continue
                                if pro and not (f.definiteness == "a" and f.pro_compat):
                                    continue
                                if not pro and not a.standalone:
                                    continue
                                expected.add((conj, prep, det, noun, pro, a.surface, a.code, f.tag()))
            got = set()
            for r in segment(token, compiled, "diacritic-optional").readings:
                parts = {s.tag: s.surface for s in r.segments}
                got.add((
                    parts.get("CONJC"), parts.get("PREP"), parts.get("DET"),
                    parts["N"], parts.get("PRO+Gen"), r.noun.surface, r.noun.code, r.noun.features.tag(),
                ))
            assert got == expected, token

    def test_clitic_inventory_loaded_once(self):
        assert load_clitics() is load_clitics()

    def test_reading_line_format(self, compiled):
        lattice = segment("AlminoTaqapi", compiled, "strict")
        line = format_reading("AlminoTaqapi", lattice.readings[0])
        token, segs, entry, features = line.split("\t")
        assert segs == "Al/DET+minoTaqapi/N"
        assert entry.startswith("minoTaqap,")


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

    def test_exception_list_reopens_plural(self):
        head = FeatureBundle("none", "q", "i", "N")
        assert not check_agreement(head, False, fb("f", "p"), head_lemma="naAqap", exceptions=frozenset())
        assert check_agreement(head, False, fb("f", "p"), head_lemma="naAqap", exceptions=frozenset({"naAqap"}))

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


class TestFuzz:
    def test_segmentation_never_breaks_surface_conservation(self, compiled):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        alphabet = "EuqodapAlbihaAwfKNk"

        @settings(max_examples=150, deadline=None)
        @given(st.text(alphabet=alphabet, min_size=1, max_size=14))
        def run(token):
            for reading in segment(token, compiled, "diacritic-optional").readings:
                assert "".join(s.surface for s in reading.segments) == token

        run()
