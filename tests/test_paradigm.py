import pytest

from taksir.codes import parse_code
from taksir.lexicon import LexicalEntry
from taksir.paradigm import (
    FeatureBundle,
    dual_forms,
    form_count,
    inflect,
)


def entry(lemma, code_text):
    return LexicalEntry(lemma, parse_code(code_text))


def surfaces(forms, **criteria):
    out = []
    for f in forms:
        if all(getattr(f.features, k) == v for k, v in criteria.items()):
            out.append(f)
    return out


@pytest.fixture(scope="module")
def knot(registry):
    return inflect(entry("Euqodap", "$N3ap-f-FvEvL-FuEaL-123"), registry)


class TestCells:
    def test_bp_indefinite_genitive(self, registry):
        forms = inflect(entry("Eaqod", "$N300-m-FvEvL-FuEuuL-123"), registry)
        (f,) = surfaces(forms, number="q", definiteness="i", case="G")
        assert f.surface == "EuquwodK"

    def test_definite_prefix(self, registry):
        forms = inflect(entry("minoTaqap", "$N4ap-f-FvEvLvB-FaEaaLiB-1234"), registry)
        (f,) = surfaces(forms, number="s", definiteness="D", case="G")
        assert f.surface == "AlminoTaqapi"

    def test_construct_pro_variant_t_allograph(self, registry):
        forms = inflect(entry("naMaAoT", "$N300-m-FvEvvL-OaFoEiLap-123"), registry)
        pro = [f for f in forms if f.features.pro_compat and f.features.case == "G" and f.features.number == "q"]
        assert [f.surface for f in pro] == ["OanoMiTati"]
        assert not pro[0].standalone

    def test_defective_drops_tail_when_nunated(self, knot, registry):
        forms = inflect(entry("layolap", "$N3ap-f-FvEvL-FaEaaLiB-123y"), registry)
        (nom,) = surfaces(forms, number="q", definiteness="i", case="N")
        (gen,) = surfaces(forms, number="q", definiteness="i", case="G")
        (acc,) = surfaces(forms, number="q", definiteness="i", case="A")
        assert nom.surface == gen.surface == "layaAolK"
        assert acc.surface == "layaAoliyFA"
        (def_nom,) = surfaces(forms, number="q", definiteness="D", case="N")
        assert def_nom.surface == "AllayaAoliy"

    def test_diptote_genitive_folds_to_a(self, registry):
        forms = inflect(entry("miEowal", "$N400-m-FvEvLvB-FaEaaLiB-1234"), registry)
        (gen,) = surfaces(forms, number="q", definiteness="i", case="G")
        assert gen.surface == "maEaAowila"
        assert not any(c in f.surface for f in surfaces(forms, number="q", definiteness="i") for c in "FNK")

    def test_invariable_stem_everywhere(self, registry):
        forms = inflect(entry("HabolaY", "$N3aY-f-FvEvL-FaEaaLiB-123Y"), registry)
        q = surfaces(forms, number="q")
        assert {f.surface for f in q} == {"HabaAolaY", "AlHabaAolaY"}

    def test_accusative_alif_suppressed_after_taa_and_hamza_seats(self, knot, registry):
        (acc,) = surfaces(knot, number="s", definiteness="i", case="A")
        assert acc.surface == "EuqodapF"
        forms = inflect(entry("mabodaO", "$N400-m-FvEvLvB-FaEaaLiB-123h"), registry)
        (acc,) = surfaces(forms, number="s", definiteness="i", case="A")
        assert acc.surface == "mabodaOF"
        forms = inflect(entry("EuDow", "$N300-m-FvEvL-OaFoEaaL-12h"), registry)
        (acc,) = surfaces(forms, number="q", definiteness="i", case="A")
        assert acc.surface == "OaEoDaAocF"

    def test_triptote_accusative_alif(self, registry):
        forms = inflect(entry("Eaqod", "$N300-m-FvEvL-FuEuuL-123"), registry)
        (acc,) = surfaces(forms, number="q", definiteness="i", case="A")
        assert acc.surface == "EuquwodFA"


class TestGenderAndCounts:
    def test_fixed_gender_count(self, registry):
        e = entry("Euqodap", "$N3ap-f-FvEvL-FuEaL-123")
        assert form_count(e) == 27

    def test_inflecting_gender_count(self, registry):
        e = entry("kaAotib", "$N300-g-FvvEvL-FuEEaL-123")
        assert form_count(e) == 45
        forms = inflect(e, registry)
        assert sum(1 for f in forms if f.standalone) == 45
        feminine = surfaces(forms, gender="f", number="s", definiteness="i", case="N")
        assert feminine[0].surface == "kaAotibapN"

    def test_extended_count_at_least_base(self, seed, registry):
        for e in seed:
            assert len(inflect(e, registry)) >= form_count(e)

    def test_generated_base_count_matches_formula(self, seed, registry):
        for e in seed:
            forms = inflect(e, registry)
            assert sum(1 for f in forms if f.standalone) == form_count(e), e.lemma

    def test_cell_totality(self, seed, registry):
        for e in seed:
            forms = [f for f in inflect(e, registry) if f.standalone]
            cells = {}
            for f in forms:
                key = (f.features.gender, f.features.number, f.features.definiteness, f.features.case)
                cells.setdefault(key, []).append(f.surface)
            assert all(len(v) == 1 for v in cells.values()), e.lemma

    def test_bp_cells_genderless(self, seed, registry):
        for e in seed:
            for f in inflect(e, registry):
                if f.features.number == "q":
                    assert f.features.gender == "none"


class TestDuals:
    def test_nominative(self):
        cells = dual_forms("Euqodap", "ap-final")
        assert cells[("i", "N")] == "EuqodataAni"

    def test_oblique(self):
        cells = dual_forms("kaAotib", "triptote")
        assert cells[("i", "A")] == "kaAotibayoni"

    def test_construct_drops_ni(self):
        cells = dual_forms("kaAotib", "triptote")
        assert cells[("a", "N")] == "kaAotibaA"

    def test_final_long_a_becomes_y(self):
        cells = dual_forms("fataY", "invariable-aY")
        assert cells[("i", "N")] == "fatayaAni"

    def test_hamza_on_alif_contracts_with_dual(self):
        cells = dual_forms("mabodaO", "triptote")
        assert cells[("i", "N")] == "mabodaCni"


class TestProVariants:
    def test_pro_requires_construct(self):
        with pytest.raises(ValueError):
            FeatureBundle("m", "s", "D", "N", pro_compat=True)

    def test_bp_gender_guard(self):
        with pytest.raises(ValueError):
            FeatureBundle("f", "q", "D", "N")

    def test_pro_stem_transforms_are_documented_only(self, seed, registry):
        # A pro variant's stem equals the base construct stem, or differs by
        # -ap -> -at- or by a re-seated final glottal stop.
        hamza = set("cOWe")
        for e in seed:
            forms = inflect(e, registry)
            for f in forms:
                if not f.features.pro_compat or f.standalone:
                    continue
                base = next(
                    b.surface for b in forms
                    if b.standalone and not b.features.pro_compat
                    and b.features.gender == f.features.gender
                    and b.features.number == f.features.number
                    and b.features.definiteness == "a" and b.features.case == f.features.case
                )
                if base[:-1].endswith("p"):
                    assert f.surface[:-1] == base[:-1][:-1] + "t", (e.lemma, base, f.surface)
                else:
                    assert base[:-2] == f.surface[:-2] and base[-2] in hamza, (e.lemma, base, f.surface)

    def test_hamza_reseat_presidents(self, registry):
        forms = inflect(entry("raeiyos", "$N300-m-FvEvvL-FuEaLaaB-123h"), registry)
        (base,) = surfaces(forms, number="q", definiteness="a", case="G", pro_compat=False)
        assert base.surface == "ruWasaAoci"
        pro = [f for f in forms if f.features.number == "q" and f.features.pro_compat and f.features.case == "G"]
        assert [f.surface for f in pro] == ["ruWasaAoei"]
        (pro_n,) = [f for f in forms if f.features.number == "q" and f.features.pro_compat and f.features.case == "N"]
        assert pro_n.surface == "ruWasaAoWu"
