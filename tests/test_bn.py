import pytest
from hypothesis import given
from hypothesis import strategies as st

from taksir import bn
from taksir.errors import InvalidBnChar, UnmappedCodepoint

KNOT_SG = "عُقْدَة"   # fully pointed, taa marbuta final
KNOT_PL = "عُقَد"
LADDER = "سُلَّم"


def test_to_bn_knot():
    assert bn.to_bn(KNOT_SG) == "Euqodap"


def test_to_bn_empty():
    assert bn.to_bn("") == ""


def test_to_bn_shadda():
    assert bn.to_bn(LADDER) == "sulGam"


def test_to_arabic_knot_plural():
    assert bn.to_arabic("Euqad") == KNOT_PL


def test_to_arabic_empty():
    assert bn.to_arabic("") == ""


def test_to_arabic_door():
    assert bn.to_arabic("baAob") == "بَاْب"


def test_classify_examples():
    assert bn.classify("o") == "diacritic"
    assert bn.classify("E") == "basic"
    assert bn.classify("G") == "diacritic"


def test_classify_partitions_alphabet():
    diacritics = {c for c in bn.ALPHABET if bn.classify(c) == "diacritic"}
    basics = {c for c in bn.ALPHABET if bn.classify(c) == "basic"}
    assert diacritics == set("auioFNKG")
    assert diacritics | basics == set(bn.ALPHABET)
    assert not diacritics & basics


def test_unmapped_codepoints_rejected():
    with pytest.raises(UnmappedCodepoint) as err:
        bn.to_bn("ـ")  # tatweel
    assert err.value.position == 0
    with pytest.raises(UnmappedCodepoint):
        bn.to_bn("ﻻ")  # presentation-form ligature


def test_invalid_bn_char():
    with pytest.raises(InvalidBnChar):
        bn.to_arabic("Euq~d")


@pytest.mark.parametrize("text", ["ba'os", "Eaqod2", "Eaq od", "Eaqod."])
def test_validate_bn_rejects_what_the_codec_passes_through(text):
    bn.to_arabic(text)  # passes through the codec ...
    with pytest.raises(InvalidBnChar):
        bn.validate_bn(text)  # ... but is no transliteration


def test_validate_bn_accepts_the_alphabet():
    bn.validate_bn("".join(sorted(bn.ALPHABET)))


def test_punctuation_passthrough():
    assert bn.to_bn("عُقَد.") == "Euqad."
    assert bn.to_arabic("Euqad.") == KNOT_PL + "."


@given(st.text(alphabet=sorted(bn.ALPHABET), max_size=24))
def test_round_trip_bn_arabic_bn(s):
    assert bn.to_bn(bn.to_arabic(s)) == s


@given(st.text(alphabet=sorted(bn.ALPHABET), max_size=24))
def test_strip_diacritics_only_basics_remain(s):
    assert all(bn.classify(c) == "basic" for c in bn.strip_diacritics(s))


def test_round_trip_over_seed_lemmas(seed):
    for entry in seed:
        assert bn.to_bn(bn.to_arabic(entry.lemma)) == entry.lemma


def test_round_trip_over_generated_forms(compiled):
    for surface, _ in compiled.forms():
        assert bn.to_bn(bn.to_arabic(surface)) == surface


def to_bn_by_character(text: str) -> str:
    """The character-by-character transliteration that ``to_bn`` replaced."""
    out = []
    for i, ch in enumerate(text):
        if ch in bn._AR2BN:
            out.append(bn._AR2BN[ch])
        elif ch in bn._PASSTHROUGH:
            out.append(ch)
        else:
            raise UnmappedCodepoint(ch, i)
    return "".join(out)


@given(st.text(st.one_of(st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
                         st.sampled_from(sorted(bn._PASSTHROUGH)),
                         st.characters(exclude_categories=("Cs",))), max_size=30))
def test_to_bn_matches_the_character_loop(text):
    try:
        expected = to_bn_by_character(text)
    except UnmappedCodepoint as exc:
        with pytest.raises(UnmappedCodepoint) as err:
            bn.to_bn(text)
        assert (err.value.char, err.value.position, str(err.value)) == (exc.char, exc.position, str(exc))
    else:
        assert bn.to_bn(text) == expected


def test_one_pass_keeps_the_set_rule_over_the_bmp():
    # Every BMP code point alone, after an Arabic letter and before one: the
    # one translate pass must give what the set rule gives (transliterate a
    # text whose every character is the table's Arabic or passthrough, else
    # keep it as written), and to_bn must refuse exactly where it keeps.
    known = set(bn._AR2BN) | bn._PASSTHROUGH
    table = str.maketrans(bn._AR2BN)
    for text in (t for c in map(chr, range(0x10000)) for t in (c, "ب" + c, c + "ب")):
        if known.issuperset(text):
            assert bn.to_bn_if_known(text) == bn.to_bn(text) == text.translate(table), ascii(text)
            continue
        assert bn.to_bn_if_known(text) == text, ascii(text)
        first = min(i for i, ch in enumerate(text) if ch not in known)
        try:
            bn.to_bn(text)
        except UnmappedCodepoint as exc:
            assert (exc.position, exc.char) == (first, text[first]), ascii(text)
        else:
            pytest.fail(f"to_bn took {ascii(text)}")
