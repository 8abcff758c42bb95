import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import codes_reference as reference
from taksir import bn
from taksir.codes import (
    HAMZA,
    _parses,
    _undiacritized,
    check_diacritization,
    SurfaceRoot,
    apply_root_code,
    extract_root,
    parse_code,
    parse_root_code,
    parse_sg_code,
)
from taksir.errors import (
    AmbiguousPatternMatch,
    ArityMismatch,
    MalformedCode,
    NotFullyDiacritized,
    TaksirError,
    UnknownBpLabel,
)

from conftest import seed_variants


def radicals(root):
    return "".join("h" if r == HAMZA else r for r in root.radicals)


class TestParseCode:
    def test_basic_entry_code(self):
        code = parse_code("$N3ap-f-FvEvL-FuEaL-123")
        assert code.class_tag == "N3ap"
        assert code.gender_flag == "f"
        assert code.sg_code.text == "FvEvL"
        assert code.bp_label == "FuEaL"
        assert code.root_code.text == "123"
        assert not code.human

    def test_gender_inflecting(self):
        assert parse_code("$N300-g-FvvEvL-FuEEaL-123").gender_flag == "g"

    def test_missing_components(self):
        with pytest.raises(MalformedCode):
            parse_code("$N3ap-f-FvEvL")

    def test_human_flag(self):
        code = parse_code("N300-m-FvEvL-FiEaaL-123+Hum")
        assert code.human
        assert code.text.endswith("+Hum")

    def test_case_noise_normalized(self):
        assert parse_sg_code("FvEvVl").text == "FvEvvL"
        assert parse_sg_code("FvEvLvVb").text == "FvEvLvvB"
        assert parse_sg_code("FvEEVl").text == "FvEEvL"
        assert parse_sg_code("FvEvLvBvvdvvd").text == "FvEvLvBvvDvvJ"

    def test_label_respelling(self):
        assert parse_code("$N3ap-f-FvEvvL-FaEaLiB-12h3").bp_label == "FaEaaLiB"

    def test_unknown_label(self):
        with pytest.raises(UnknownBpLabel):
            parse_code("$N3ap-f-FvEvL-FuEaaaL-123")

    def test_tag_arity_must_match(self):
        with pytest.raises(ArityMismatch):
            parse_code("$N3ap-f-FvEvLvB-FuEaL-123")

    def test_copy_index_beyond_singular(self):
        with pytest.raises(ArityMismatch):
            parse_code("$N3ap-f-FvEvL-FuEaL-124")

    def test_bad_root_code_digit(self):
        with pytest.raises(MalformedCode):
            parse_root_code("129")

    def test_gemination_mark_only_last(self):
        with pytest.raises(MalformedCode):
            parse_root_code("12G3")

    @pytest.mark.parametrize("text, message", [
        ("$N300-m-FvXvL-FuEuL-123", "bad character 'X' in singular-pattern code 'FvXvL'"),
        ("$N300-m-FvLvE-FuEuL-123", "slot letters out of order in 'FvLvE'"),
        ("$N300-m-FvvvEvL-FuEuL-123", "more than two vowel marks in a row in 'FvvvEvL'"),
        ("$N300-m-F-FuEuL-123", "'F' has 1 slots; expected 2-6"),
        ("$N300-m-FvEvL-FuEuL-", "empty root code"),
        ("$N300-m-FvEvL-FuEuL-G", "G in root code 'G' has no radical before it to geminate"),
        ("$N900-m-FvEvL-FuEuL-123", "unknown class tag 'N900'"),
        ("$N300-x-FvEvL-FuEuL-123", "gender flag must be m, f or g, not 'x'"),
    ])
    def test_malformed_code_message(self, text, message):
        with pytest.raises(MalformedCode) as err:
            parse_code(text)
        assert str(err.value) == message


class TestExtractRoot:
    def test_plain_trilateral(self):
        root = extract_root("Euqodap", parse_sg_code("FvEvL"), "N3ap")
        assert radicals(root) == "Eqd"
        assert root.positions == (1, 3, 5)

    def test_geminate_fills_two_slots(self):
        root = extract_root("MidGap", parse_sg_code("FvEvL"), "N3ap")
        assert radicals(root) == "Mdd"
        assert root.geminate_flags == (False, True, True)

    def test_pattern_owned_gemination(self):
        root = extract_root("sulGam", parse_sg_code("FvEEvL"), "N300")
        assert radicals(root) == "slm"
        assert root.geminate_flags == (False, True, False)

    def test_long_vowel_discarded_to_pattern(self):
        assert radicals(extract_root("SaAoHib", parse_sg_code("FvEvL"), "N300")) == "SHb"

    @pytest.mark.parametrize("lemma", ["katalaA", "kataliy", "kataluw"])
    def test_long_vowel_after_the_last_slot_discarded_to_pattern(self, lemma):
        assert radicals(extract_root(lemma, parse_sg_code("FvEvL"), "N300")) == "ktl"

    def test_w_after_a_is_no_long_vowel(self):
        with pytest.raises(ArityMismatch):
            extract_root("katalaw", parse_sg_code("FvEvL"), "N300")

    def test_no_discard_when_counts_match(self):
        assert radicals(extract_root("Miyomap", parse_sg_code("FvEvL"), "N3ap")) == "Mym"

    def test_quadrilateral(self):
        assert radicals(extract_root("diroham", parse_sg_code("FvEvLvB"), "N400")) == "drhm"

    def test_ambiguous_discard_rejected(self):
        with pytest.raises(AmbiguousPatternMatch):
            extract_root("SaAoruwox", parse_sg_code("FvEvLvB"), "N400")

    def test_explicit_vv_resolves_ambiguity(self):
        assert radicals(extract_root("SaAoruwox", parse_sg_code("FvvEvvL"), "N300")) == "Srx"

    def test_missing_diacritics(self):
        with pytest.raises(NotFullyDiacritized):
            extract_root("Eqdap", parse_sg_code("FvEvL"), "N3ap")

    def test_suffix_required_by_tag(self):
        with pytest.raises(ArityMismatch):
            extract_root("Euqod", parse_sg_code("FvEvL"), "N3ap")

    def test_stem_final_geminate_single_slot(self):
        root = extract_root("lutunGap", parse_sg_code("FvEvL"), "N3ap")
        assert radicals(root) == "ltn"

    def test_madda_expands_to_hamza_and_long_a(self):
        root = extract_root("Cxir", parse_sg_code("FvvEvL"), "N300")
        assert radicals(root) == "hxr"

    def test_hamza_letters_become_abstract(self):
        assert radicals(extract_root("tahonieap", parse_sg_code("FvEvLvB"), "N4ap")) == "thnh"

    def test_all_seed_entries_extract(self, seed):
        for entry in seed:
            root = extract_root(entry.lemma, entry.code.sg_code, entry.code.class_tag)
            assert len(root) == entry.code.sg_code.arity, entry.lemma

    def test_odd_position_convention(self, seed):
        # Radicals sit at odd (expanded) positions except right after a geminate.
        for entry in seed:
            root = extract_root(entry.lemma, entry.code.sg_code, entry.code.class_tag)
            prev_gem = False
            for pos, gem in zip(root.positions, root.geminate_flags):
                assert pos % 2 == 1 or prev_gem, (entry.lemma, root.positions)
                prev_gem = gem


class TestApplyRootCode:
    def test_identity(self):
        root = SurfaceRoot(("E", "q", "d"))
        assert apply_root_code(root, parse_root_code("123")).radicals == ("E", "q", "d")

    def test_final_substitution(self):
        root = SurfaceRoot(("q", "b", "w"))
        assert apply_root_code(root, parse_root_code("12y")).radicals == ("q", "b", "y")

    def test_medial_substitution(self):
        root = SurfaceRoot(("b", "A", "b"))
        assert apply_root_code(root, parse_root_code("1w3")).radicals == ("b", "w", "b")

    def test_hamza_insertion(self):
        root = SurfaceRoot(("M", "d", "d"))
        out = apply_root_code(root, parse_root_code("12h2"))
        assert radicals(out) == "Mdhd"

    def test_reduplication(self):
        root = SurfaceRoot(("s", "l", "m"))
        assert apply_root_code(root, parse_root_code("1223")).radicals == ("s", "l", "l", "m")

    def test_consonant_deletion(self):
        root = SurfaceRoot(("f", "y", "l", "s", "f"))
        assert apply_root_code(root, parse_root_code("1345")).radicals == ("f", "l", "s", "f")

    def test_six_consonant_reduction(self):
        root = SurfaceRoot((HAMZA, "m", "b", "r", "T", "r"))
        assert radicals(apply_root_code(root, parse_root_code("h356"))) == "hbTr"

    def test_geminate_final_flag(self):
        root = SurfaceRoot(("l", "t", "n"))
        out = apply_root_code(root, parse_root_code("123G"))
        assert out.radicals == ("l", "t", "n")
        assert out.geminate_flags == (False, False, True)

    @given(st.lists(st.sampled_from("bjdEqkMstT"), min_size=2, max_size=6))
    def test_identity_code_is_fixed_point(self, letters):
        root = SurfaceRoot(tuple(letters))
        identity = parse_root_code("".join(str(i + 1) for i in range(len(letters))))
        assert apply_root_code(root, identity).radicals == root.radicals


@st.composite
def coded_lemmas(draw):
    """A code of 2-6 slots joined by short or long vowels, with any root
    code, and a lemma spelled from the singular pattern: mostly strong
    consonants, sometimes weak or glottal-stop ones.  A slot may be
    geminated by the pattern (``EE``), and a written geminate may fill two
    slots (``MidGap``: M d d)."""
    arity = draw(st.integers(2, 6))
    consonant = st.sampled_from("btdkqmlnrsfj" * 3 + "wyAcOe")
    slots = "FELBDJ"[:arity]
    sg, lemma, k = "", "", 0
    while k < arity:
        letter = draw(consonant)
        if 0 < k < arity - 1 and draw(st.booleans()):      # one written geminate, two slots
            sg += slots[k] + "v" + slots[k + 1]
            lemma += letter + "G"
            k += 2
        elif 0 < k and draw(st.booleans()):                # a geminate slot of the pattern
            sg += slots[k] * 2
            lemma += letter + "G"
            k += 1
        else:
            sg += slots[k]
            lemma += letter
            k += 1
        if k < arity:
            long_vowel = draw(st.booleans())
            sg += "vv" if long_vowel else "v"
            lemma += draw(st.sampled_from(("aAo", "iyo", "uwo") if long_vowel else ("a", "i", "u", "o")))
    root = draw(st.text(alphabet="123456wyAYhm", min_size=1, max_size=5)) + draw(st.sampled_from(("", "G")))
    return f"$N{arity}00-m-{sg}-FuEuL-{root}", lemma


class TestShapeMemo:
    """``extract_root`` takes its candidate parses from a memo per lemma
    shape and reads the radicals off the lemma: its root or error is the
    unmemoised parse's, lemma for lemma."""

    @staticmethod
    def assert_as_unmemoised(lemma, sg_code, class_tag):
        def outcome(extract):
            try:
                return extract(lemma, sg_code, class_tag)
            except TaksirError as exc:
                return type(exc), str(exc)

        assert outcome(extract_root) == outcome(reference.extract_root), lemma

    def test_seed(self, seed):
        for e in seed:
            self.assert_as_unmemoised(e.lemma, e.code.sg_code, e.code.class_tag)

    @settings(max_examples=300, deadline=None)
    @given(seed_variants(), st.integers(0, 12), st.sampled_from(["", "A", "w", "y", "G", "o", "a", "b", "O", "C"]))
    def test_seed_variants_and_edits(self, entry, at, letter):
        self.assert_as_unmemoised(entry.lemma, entry.code.sg_code, entry.code.class_tag)
        edited = entry.lemma[:at] + letter + entry.lemma[at + 1:]
        self.assert_as_unmemoised(edited, entry.code.sg_code, entry.code.class_tag)

    def test_one_shape_ambiguous_in_one_lemma_only(self):
        # Both lemmas have the shape of two parses, m d d . at (1, 3, 3, 6)
        # and m d . . at (1, 3, 6, 6); they read one radical sequence where
        # the third and sixth letters agree.
        sg = parse_sg_code("FvEvLvB")
        root = extract_root("madGadG", sg, "N400")
        assert (radicals(root), root.positions) == ("mddd", (1, 3, 3, 6))
        with pytest.raises(AmbiguousPatternMatch, match=r"\(mdds \| mdss\)"):
            extract_root("madGasG", sg, "N400")
        for order in (("madGadG", "madGasG"), ("madGasG", "madGadG")):     # whichever fills the memo
            _parses.cache_clear()
            for lemma in order:
                self.assert_as_unmemoised(lemma, sg, "N400")


class TestDiacritizationMemo:
    """``check_diacritization`` runs its letter loop once per lemma shape:
    for every lemma it raises what the unmemoised loop raises, at the same
    position and naming that lemma."""

    @staticmethod
    def assert_as_unmemoised(lemma):
        def outcome(check):
            try:
                check(lemma)
            except NotFullyDiacritized as exc:
                return str(exc), exc.position
            return None

        assert outcome(check_diacritization) == outcome(reference.check_diacritization), lemma

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=sorted(bn.ALPHABET), max_size=10))
    def test_any_lemma(self, lemma):
        self.assert_as_unmemoised(lemma)

    @settings(max_examples=300, deadline=None)
    @given(seed_variants(), st.integers(0, 12), st.sampled_from(["", "a", "o", "G", "C", "b", "F", "A"]))
    def test_seed_variants_and_edits(self, entry, at, letter):
        self.assert_as_unmemoised(entry.lemma)
        self.assert_as_unmemoised(entry.lemma[:at] + letter + entry.lemma[at + 1:])

    def test_seed(self, seed):
        for e in seed:
            self.assert_as_unmemoised(e.lemma)

    def test_one_failing_shape_names_each_lemma(self):
        # Both lemmas lack the vowel of their first letter and share one shape.
        _undiacritized.cache_clear()
        for lemma in ("Eqdap", "ktbap"):
            with pytest.raises(NotFullyDiacritized, match=f"lemma '{lemma}' .* \\(position 1\\)"):
                check_diacritization(lemma)
        assert _undiacritized.cache_info().currsize == 1


class TestArity:
    """Codes from parse_code never give a root of the wrong length: the
    extracted singular root has one radical per slot, and every radical the
    root code copies exists."""

    @settings(max_examples=400, deadline=None)
    @given(coded_lemmas())
    def test_roots_match_their_code(self, coded):
        text, lemma = coded
        try:
            code = parse_code(text)
            root = extract_root(lemma, code.sg_code, code.class_tag)
        except TaksirError:
            reject()
        assert len(root) == code.sg_code.arity
        copies = [t[1] for t in code.root_code.tokens if t[0] == "copy"]
        assert all(k <= len(root) for k in copies)
        plural = apply_root_code(root, code.root_code)
        assert len(plural) == sum(1 for t in code.root_code.tokens if t[0] != "gemfinal")

    def test_seed_roots_match_their_code(self, seed):
        for e in seed:
            assert len(e.sg_root) == e.code.sg_code.arity, e.lemma
