import pytest

from taksir import lexicon
from taksir.codes import parse_code
from taksir.lexicon import LexiconFile, lexicon_stats, parse_lexicon, validate_entry


def serialize(lex: LexiconFile) -> str:
    """The lexicon as text that ``parse_lexicon`` reads back."""
    lines = list(lex.header)
    for e in lex.entries:
        line = f"{e.lemma},${e.code}"
        if e.gloss or e.source_ref:
            line += f" / {e.gloss}"
        if e.source_ref:
            line += f" / {e.source_ref}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestParse:
    def test_single_entry(self):
        lex, diags = parse_lexicon("Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot")
        assert not diags
        assert len(lex) == 1
        assert lex.entries[0].lemma == "Euqodap"
        assert lex.entries[0].gloss == "knot"

    def test_label_respelling_accepted(self):
        lex, diags = parse_lexicon("katiyobap,$N3ap-f-FvEvvL-FaEaLiB-12h3 / brigade of soldiers")
        assert not diags
        assert lex.entries[0].code.bp_label == "FaEaaLiB"

    def test_empty_text(self):
        lex, diags = parse_lexicon("")
        assert len(lex) == 0 and not diags

    def test_arabic_lemma_normalized(self):
        lex, diags = parse_lexicon("عُقْدَة,$N3ap-f-FvEvL-FuEaL-123 / knot")
        assert not diags
        assert lex.entries[0].lemma == "Euqodap"

    def test_errors_do_not_stop_parsing(self):
        text = "\n".join([
            "Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot",
            "broken line without comma",
            "kitaAob,$N300-m-FvEvL-FuEuL-123 / book",
            "Euqodap,$N3ap-f-FvEvL-FuEaL-123 / duplicate",
        ])
        lex, diags = parse_lexicon(text)
        assert len(lex) == 2
        codes = sorted(d.code for d in diags)
        assert codes == ["E_DUP", "E_FORMAT"]
        assert all(str(d).split(":")[0].isdigit() for d in diags)

    @pytest.mark.parametrize("lemma", ["ba'os", "Eaqod2", "Eaq od", "عُقْد."])
    def test_lemma_outside_the_alphabet_rejected(self, lemma):
        lex, diags = parse_lexicon(f"{lemma},$N300-m-FvEvL-FuEuuL-123")
        assert len(lex) == 0
        assert [d.code for d in diags] == ["E_LEMMA"]

    def test_each_code_text_parsed_once(self, monkeypatch):
        lines = ["Euqodap,$N3ap-f-FvEvL-FuEaL-123", "kitaAob,$N300-m-FvEvL-FuEuL-12x", "Eaqod,$N3ap-f-FvEvL-FuEaL-123",
                 "Eaqod,$N300-m-FvEvL-FuEuL-12x", "baAb,$N300-m-FvvEvL-FiEaaL-9", "kutub,$N300-m-FvEvL-FuEuL-12x"]
        alone = []      # each line's diagnostics parsed on its own, renumbered
        for lineno, line in enumerate(lines, start=1):
            alone += [f"{lineno}:{str(d).split(':', 1)[1]}" for d in parse_lexicon(line)[1]]
        calls = []
        monkeypatch.setattr(lexicon, "parse_code", lambda text: calls.append(text) or parse_code(text))
        lex, diags = parse_lexicon("\n".join(lines))
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 3
        assert [str(d) for d in diags] == alone and [d.code for d in diags] == ["E_CODE"] * 4
        assert len(lex) == 2 and lex.entries[0].code is lex.entries[1].code

    def test_source_ref_third_field(self):
        lex, _ = parse_lexicon("Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot / b")
        assert lex.entries[0].source_ref == "b"

    def test_serialize_round_trip_on_seed(self, seed):
        text = serialize(seed)
        lex2, diags = parse_lexicon(text)
        assert not diags
        assert [(e.lemma, e.code.text, e.gloss, e.source_ref) for e in seed.entries] == [
            (e.lemma, e.code.text, e.gloss, e.source_ref) for e in lex2.entries
        ]


class TestValidate:
    def test_clean_entry(self, seed, registry):
        knot = next(e for e in seed if e.lemma == "Euqodap")
        assert validate_entry(knot, registry) == []

    def test_missing_diacritics_reported(self, registry):
        lex, _ = parse_lexicon("Eqdap,$N3ap-f-FvEvL-FuEaL-123 / broken")
        diags = validate_entry(lex.entries[0], registry)
        assert any(d.code == "NotFullyDiacritized" for d in diags)

    def test_long_vowel_root_warning(self, registry):
        lex, _ = parse_lexicon("SaAoruwox,$N400-m-FvEvLvvB-FaEaaLiiB-1w34 / missile, alternative analysis")
        diags = validate_entry(lex.entries[0], registry)
        assert any(d.code == "W_LONGROOT" and d.severity == "warning" for d in diags)

    @pytest.mark.parametrize("text, diagnostic", [
        ("kGatab,$N300-m-FvEvL-FuEuL-123", "1:6 E_POSITION radical 'b' at even position 6"),
        ("a,$N300-m-FvEvL-FuEuL-123", "1:1 NotFullyDiacritized lemma 'a' is not fully diacritized (position 0)"),
    ], ids=["E_POSITION", "NotFullyDiacritized"])
    def test_diagnostic_at_the_entry_line(self, registry, text, diagnostic):
        lex, _ = parse_lexicon(text)
        assert [str(d) for d in validate_entry(lex.entries[0], registry)] == [diagnostic]

    def test_ap_lemma_with_bare_tag_rejected(self, registry):
        lex, _ = parse_lexicon("Euqodap,$N300-f-FvEvL-FuEaL-123 / mistagged")
        diags = validate_entry(lex.entries[0], registry)
        assert any(d.severity == "error" for d in diags)

    def test_seed_validates_clean(self, seed, registry):
        for entry in seed:
            errors = [d for d in validate_entry(entry, registry) if d.severity == "error"]
            assert not errors, (entry.lemma, entry.code.text, [str(d) for d in errors])


class TestStats:
    def test_seed_distribution(self, seed):
        report = lexicon_stats(seed)
        assert report.total == len(seed)
        top_label = max(report.by_bp_label, key=report.by_bp_label.get)
        assert top_label == "FaEaaLiB"
        assert report.format().startswith("entries\t")

    def test_empty(self):
        lex, _ = parse_lexicon("")
        report = lexicon_stats(lex)
        assert report.total == 0 and not report.by_bp_label

    def test_single_entry(self):
        lex, _ = parse_lexicon("Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot")
        report = lexicon_stats(lex)
        assert report.by_bp_label == {"FuEaL": 1}
        assert report.by_sg_code == {("FuEaL", "FvEvL"): 1}


class TestSeedShape:
    def test_size_target(self, seed):
        assert len(seed) >= 140

    def test_every_entry_sourced(self, seed):
        assert all(e.source_ref for e in seed)

    def test_alternative_plurals_are_distinct_entries(self, seed):
        lemmas = {}
        for e in seed:
            lemmas.setdefault(e.lemma, []).append(e.code.text)
        assert len(lemmas["makaAon"]) == 2
        assert len(set(lemmas["makaAon"])) == 2
