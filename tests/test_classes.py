import itertools

import pytest

import classes_reference as reference
from taksir.classes import parse_registry, render_bp_stem, resolve_hamza, seat_hamzas, substitute_madda
from taksir.codes import HAMZA, SurfaceRoot, apply_root_code, code_tables, extract_root, parse_code
from taksir.errors import ArityMismatch, UnknownClass
from taksir.compiler import compile_lexicon
from taksir.lexicon import parse_lexicon

#: A quadrilateral plural whose fourth radical geminates the third.
GEMINATE_ROW = "N300-FvEvL-FaEaaLiB-1223\t1a2aAo3=4\ttriptote\ttriptote\n"


def bp_labels(registry) -> set[str]:
    return {cls.key.split("-")[2] for cls in registry}


def pattern_pairs(registry) -> set[tuple[str, str]]:
    return {(cls.key.split("-")[1], cls.key.split("-")[2]) for cls in registry}


def bp_stem(registry, lemma, code_text):
    code = parse_code(code_text)
    root = extract_root(lemma, code.sg_code, code.class_tag)
    return render_bp_stem(apply_root_code(root, code.root_code), registry.resolve(code))


class TestResolve:
    def test_plain_class(self, registry):
        cls = registry.resolve(parse_code("$N3ap-f-FvEvL-FuEaL-123"))
        assert cls.bp_template == "1u2a3"

    def test_prefixed_ap_class(self, registry):
        cls = registry.resolve(parse_code("$N3ow-m-FvEvL-OaFoEiLap-12y"))
        assert cls.bp_template == "Oa1o2i3ap"

    def test_unknown_class_reports_neighbours(self, registry):
        with pytest.raises(UnknownClass) as err:
            registry.resolve(parse_code("$N3ap-f-FvEvL-FuEaL-132"))
        assert err.value.nearest

    def test_registry_size_bounds(self, registry):
        labels = bp_labels(registry)
        pairs = pattern_pairs(registry)
        print(f"registry: {len(registry)} classes, {len(labels)} plural labels, {len(pairs)} pattern pairs")
        assert len(labels) <= 25
        assert len(pairs) <= 75
        quadrilateral = {l for l in labels if l.startswith("FaEaaLi")}
        assert quadrilateral == {"FaEaaLiB", "FaEaaLiBap", "FaEaaLiiB"}


class TestParseRegistry:
    @pytest.mark.parametrize("root_code, template", [
        ("123G", "1u2uwo3o4"),      # G geminates radical 3: three radicals, four placed
        ("12h2", "1u2uwo3"),
        ("123", "1u2u2o3"),         # radical 2 placed twice
        ("1223", "1a2aAo3=3"),      # =k places radical k
    ], ids=["123G", "12h2", "twice", "geminate-twice"])
    def test_root_code_arity_against_template(self, root_code, template):
        text = f"# header\nN300-FvEvL-FuEuL-{root_code}\t{template}\ttriptote\ttriptote\n"
        with pytest.raises(ValueError, match=f"^classes registry line 2: template {template} .* root code {root_code} "):
            parse_registry(text)

    def test_geminate_places_its_radical(self):
        (cls,) = parse_registry(GEMINATE_ROW)
        assert cls.arity == 4
        assert cls.steps == (("radical", 1), ("lit", "a"), ("radical", 2), ("lit", "aAo"), ("radical", 3), ("geminate", 4))
        assert cls.radical_copies == (((1, 0), (2, 2), (2, 6)), 8)

    def test_malformed_root_code_refused(self):
        with pytest.raises(ValueError, match="^classes registry line 1: bad character 'x'"):
            parse_registry("N300-FvEvL-FuEuL-12x\t1u2u3\ttriptote\ttriptote\n")

    @pytest.mark.parametrize("text, message", [
        ("N300-FvEvL-FuEuL-123\t1u2u3\ttriptote\n", "line 1: expected 4 tab-separated fields"),
        ("N300-FvEvL-FuEuL-123\t1u2u3\ttriptote\tpentaptote\n", "line 1: unknown paradigm id"),
        ("N300-FvEvL-FuEuL-123\t1u2u3\ttriptote\ttriptote\n" * 2, "line 2: duplicate key N300-FvEvL-FuEuL-123"),
        ("N300-FvEvL-FuEuL\t1u2u\ttriptote\ttriptote\n", "line 1: key N300-FvEvL-FuEuL is not tag-singular-label-root"),
        ("N3xx-FvEvL-FuEuL-123\t1u2u3\ttriptote\ttriptote\n", "line 1: class tag N3xx is not declared in codes.tsv"),
        ("N300-FvEvL-FuEuLaa-123\t1u2u3aA\ttriptote\ttriptote\n", "line 1: plural label FuEuLaa is not declared in codes.tsv"),
        ("N300-FvEvL-FuEuL-123\t1u2u3\tpentaptote\ttriptote\n", "line 1: unknown paradigm id"),
        # Loaded, this row made every entry of its class die with an
        # IndexError in apply_root_code: G had no radical to geminate.
        ("N300-FvEvL-FuEuL-G\tabc\ttriptote\ttriptote\n", "line 1: G in root code 'G' has no radical before it to geminate"),
        # Loaded, these rows could never be resolved: class_key is built
        # from the canonical parsed singular code.
        ("N300-XYZ-FuEuL-123\t1u2u3\ttriptote\ttriptote\n", "line 1: bad character 'X' in singular-pattern code 'XYZ'"),
        ("N300-fvevl-FuEuL-123\t1u2u3\ttriptote\ttriptote\n", "line 1: singular-pattern code fvevl is not written as FvEvL"),
        ("N200-FvEvL-FuEuL-123\t1u2u3\ttriptote\ttriptote\n", "line 1: class tag N200 expects 2 slots but FvEvL has 3"),
    ], ids=["fields", "paradigm", "duplicate", "key", "tag", "label", "singular paradigm", "lone G",
            "malformed singular", "singular not canonical", "singular arity"])
    def test_malformed_row_refused(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_registry(text)
        assert str(err.value) == f"classes registry {message}"

    def test_code_tables_match_the_registry(self, registry):
        # The registry refuses a row whose tag or label codes.tsv does not
        # declare; conversely, every declared tag and label has a class.
        tables = code_tables()
        assert tables.labels <= bp_labels(registry)
        assert set(tables.endings) <= {cls.key.split("-")[0] for cls in registry}


class TestRender:
    def test_simple_interdigitation(self, registry):
        assert bp_stem(registry, "Euqodap", "$N3ap-f-FvEvL-FuEaL-123") == "Euqad"

    def test_prefix_and_suffix_template(self, registry):
        assert bp_stem(registry, "qabow", "$N3ow-m-FvEvL-OaFoEiLap-12y") == "Oaqobiyap"

    def test_geminate_final_surface(self, registry):
        assert bp_stem(registry, "muhimGap", "$N4ap-f-FvEvLvB-FaEaaLiB-123G") == "mahaAomG"

    def test_detachable_iy_tail(self, registry):
        assert bp_stem(registry, "layolap", "$N3ap-f-FvEvL-FaEaaLiB-123y") == "layaAoliy"

    def test_initial_hamza_long_pattern(self, registry):
        assert bp_stem(registry, "Iiboriyoq", "$N400-m-FvEvLvvB-FaEaaLiiB-h234") == "OabaAoriyoq"

    def test_final_long_a_variant(self, registry):
        assert bp_stem(registry, "HabolaY", "$N3aY-f-FvEvL-FaEaaLiB-123Y") == "HabaAolaY"

    def test_arity_mismatch_rejected(self, registry):
        cls = registry.resolve(parse_code("$N3ap-f-FvEvL-FuEaL-123"))
        with pytest.raises(ArityMismatch):
            render_bp_stem(SurfaceRoot(("E", "q", "d", "d")), cls)

    def test_geminate_must_repeat_its_neighbour(self):
        registry = parse_registry(GEMINATE_ROW)
        message = "template 1a2aAo3=4 geminates radical 4, which differs from its neighbour"
        with pytest.raises(ArityMismatch, match=message):
            bp_stem(registry, "kitaAob", "$N300-m-FvEvL-FaEaaLiB-1223")
        assert bp_stem(registry, "madad", "$N300-m-FvEvL-FaEaaLiB-1223") == "madaAodG"
        lex, _ = parse_lexicon("kitaAob,$N300-m-FvEvL-FaEaaLiB-1223\nmadad,$N300-m-FvEvL-FaEaaLiB-1223\n")
        dictionary, failures = compile_lexicon(lex, registry)
        assert [(entry.lemma, str(error)) for entry, error in failures] == [("kitaAob", message)]
        assert {a.lemma for a in dictionary.lookup("madaAodGu")} == {"madad"}
        # a geminate with no letter before it has no neighbour to repeat
        leading = parse_registry("N300-FvEvL-FuEuL-123\t=1u2u3\ttriptote\ttriptote\n")
        with pytest.raises(ArityMismatch, match="geminates radical 1"):
            bp_stem(leading, "kitaAob", "$N300-m-FvEvL-FuEuL-123")


class TestHamza:
    def test_initial_seats(self):
        assert resolve_hamza("", "a", "initial") == "O"
        assert resolve_hamza("", "u", "initial") == "O"
        assert resolve_hamza("", "i", "initial") == "I"

    def test_madda_substitution(self):
        assert substitute_madda("OaAofaAoq") == "CfaAoq"
        assert substitute_madda("OaOofaAoq") == "CfaAoq"
        assert substitute_madda("mabodaOaAni") == "mabodaCni"

    def test_medial_after_long_a_before_i(self):
        assert resolve_hamza("aA", "i", "medial") == "e"

    def test_medial_strength_ranking(self):
        assert resolve_hamza("u", "a", "medial") == "W"
        assert resolve_hamza("a", "a", "medial") == "O"
        assert resolve_hamza("i", "u", "medial") == "e"
        assert resolve_hamza("aA", "u", "medial") == "W"
        assert resolve_hamza("aA", "a", "medial") == "c"

    def test_final_seats(self):
        assert resolve_hamza("aA", "", "final") == "c"
        assert resolve_hamza("o", "", "final") == "c"
        assert resolve_hamza("a", "", "final") == "O"
        assert resolve_hamza("u", "", "final") == "W"
        assert resolve_hamza("i", "", "final") == "e"

    def test_total_over_context_domain(self):
        contexts = ["", "a", "u", "i", "o", "aA", "iy", "uw", "F", "ia", "x"]
        for left, right, pos in itertools.product(contexts, contexts, ("initial", "medial", "final", "")):
            seat = resolve_hamza(left, right, pos)
            assert seat in set("OICWec") and seat == reference.resolve_hamza(left, right, pos), (left, right, pos)

    def test_against_reference_over_short_strings(self):
        # Every string of up to five letters: 813,615 strings.
        assert reference.disagreements(seat_hamzas, substitute_madda, 5) == []

    def test_worked_hamza_stems(self, registry):
        assert bp_stem(registry, "EaAoeid", "$N300-m-FvvEvL-FaEaaLiB-1wh3") == "EawaAoeid"
        assert bp_stem(registry, "EuDow", "$N300-m-FvEvL-OaFoEaaL-12h") == "OaEoDaAoc"
        assert bp_stem(registry, "Oufuq", "$N300-m-FvEvL-OaFoEaaL-h23") == "CfaAoq"
        assert bp_stem(registry, "luWoluW", "$N400-m-FvEvLvB-FaEaaLiB-1h3h") == "laClie"
        assert bp_stem(registry, "Oax", "$N200-m-FvE-FiEoLap-h2w") == "Iixowap"


class TestStemInvariants:
    def test_no_forbidden_madda_sequences(self, seed, registry):
        for entry in seed:
            stem = bp_stem(registry, entry.lemma, entry.code.text)
            assert "OaAo" not in stem and "OaOo" not in stem, entry.lemma

    def test_stems_fully_diacritized(self, seed, registry):
        from taksir.codes import check_diacritization

        for entry in seed:
            stem = bp_stem(registry, entry.lemma, entry.code.text)
            check_diacritization(stem)

    def test_every_seed_class_resolves(self, seed, registry):
        for entry in seed:
            assert registry.resolve(entry.code)
