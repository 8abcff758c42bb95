import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paradigm_reference as reference
from conftest import seed_variant, seed_variants
from taksir.classes import load_paradigms
from taksir.codes import parse_code
from taksir.errors import TaksirError
from taksir.lexicon import LexicalEntry
from taksir.paradigm import (
    FeatureBundle,
    _ending_table,
    _forms,
    _table,
    dual_forms,
    form_count,
    inflect,
    stem_tables,
)

#: The suffix paradigms of data/paradigms.tsv, in file order.
PARADIGM_IDS = tuple(load_paradigms()[0])


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


class TestInterning:
    def test_one_bundle_per_cell_across_entries(self, knot, registry):
        book = inflect(entry("kitaAob", "$N300-m-FvEvL-FuEuL-123"), registry)
        knot_cells = {f.features.tag(): f.features for f in knot}
        shared = [f for f in book if f.features.tag() in knot_cells]
        assert shared
        for f in shared:
            assert f.features is knot_cells[f.features.tag()]
            assert FeatureBundle.from_tag(f.features.tag()) is f.features


def triples(forms):
    return [(f.surface, f.features.tag(), f.standalone) for f in forms]


class TestRowsMatchReference:
    """The row tables generate what the per-cell reference generator
    (tests/paradigm_reference.py) does, form for form and in order."""

    #: 5,049 forms: sha256 over surface TAB tag TAB standalone NEWLINE, in
    #: seed-entry order.
    SEED_INFLECT = (5049, "ed8cc99766b7fc738cf0dd9e7efc5580c2188c4dcd8038e0227ed32dd5d14ba5")

    def test_seed_digest(self, seed, registry):
        lines = [f"{s}\t{t}\t{a}\n" for e in seed for s, t, a in triples(inflect(e, registry))]
        assert (len(lines), hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()) == self.SEED_INFLECT

    @pytest.mark.parametrize("lemma, code", [
        ("mabodaO", "$N400-m-FvEvLvB-FaEaaLiB-123h"),   # O: madda at the dual junction (mabodaCni)
        ("raeiyos", "$N300-m-FvEvvL-FuEaLaaB-123h"),    # plural ends in a re-seated glottal stop
        ("EuDow", "$N300-m-FvEvL-OaFoEaaL-12h"),        # plural with O and a final glottal stop
        ("Euqodap", "$N3ap-f-FvEvL-FuEaL-123"),         # ap-final
        ("layolap", "$N3ap-f-FvEvL-FaEaaLiB-123y"),     # defective-iy plural
        ("HabolaY", "$N3aY-f-FvEvL-FaEaaLiB-123Y"),     # invariable-aY
        ("kaAotib", "$N300-g-FvvEvL-FuEEaL-123"),       # gender-inflecting: a feminine stem in -ap
    ])
    def test_forced_stems(self, registry, lemma, code):
        e = entry(lemma, code)
        assert triples(inflect(e, registry)) == reference.inflect(e, registry)

    @settings(max_examples=300, deadline=None)
    @given(seed_variants())
    def test_seed_variants(self, registry, e):
        try:
            want = reference.inflect(e, registry)
        except TaksirError as exc:
            with pytest.raises(type(exc)):
                inflect(e, registry)
        else:
            assert triples(inflect(e, registry)) == want

    @pytest.mark.parametrize("stem, shared", [
        *(("kaO" + "obatil"[:after], after >= 5) for after in range(7)),     # the last O 0-6 letters from the end
        ("OaAoxir", False),         # contracts into madda by itself
        ("OakaOobatil", True),      # two Os, both far from the end
    ])
    @pytest.mark.parametrize("paradigm", PARADIGM_IDS)
    def test_o_stems(self, stem, shared, paradigm):
        # No suffix reaches an O five or more letters back, so such a stem
        # shares the table of its last letter.
        table = _table(stem, paradigm, "m", "s")
        assert (table is _ending_table(stem[-1:], paradigm, "m", "s")) == shared
        assert triples(_forms(stem, table)) == reference.stem_cells(stem, paradigm, "m", "s")

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="btkqlAwyYiuaoGpOcWeCt", min_size=1, max_size=8),
           st.sampled_from(PARADIGM_IDS), st.sampled_from(("m", "f", "none")))
    def test_any_stem(self, stem, paradigm, gender):
        # Many stems end alike, so most of them meet a shared table filled
        # from another stem.
        number = "q" if gender == "none" else "s"
        table = _table(stem, paradigm, gender, number)
        assert triples(_forms(stem, table)) == reference.stem_cells(stem, paradigm, gender, number)


class TestUnitCacheRule:
    """formdict.fill_lexicon keeps a unit for reuse only when its base is
    not empty, so a table of a stem's own must cut the whole stem."""

    def test_every_table_is_shared_or_cuts_its_whole_stem(self, seed, registry):
        rng = random.Random(3)
        for e in [*seed, *(seed_variant(rng.choice) for _ in range(400))]:
            try:
                singulars, plural, _ = stem_tables(e, registry)
            except TaksirError:
                continue
            for stem, table in (*singulars, plural):
                features = table.rows[0][2]
                shared = (table is _ending_table(stem[-1:], paradigm, features.gender, features.number)
                          for paradigm in PARADIGM_IDS)
                assert table.cut == len(stem) or any(shared), (e.lemma, stem)
