"""The contract of the library records: each compares and hashes by its
fields, which cannot be set, and the records that are more than a plain
named tuple (``FeatureBundle``, ``SurfaceRoot`` and those that keep a
value they compute once) keep what their callers rely on."""

import pathlib

import pytest

from taksir import cli, lexicon
from taksir.codes import SurfaceRoot, parse_code
from taksir.paradigm import FeatureBundle

SEED_PATH = pathlib.Path(__file__).parents[1] / "src" / "taksir" / "data" / "seed_lexicon.txt"


def tag_fields(tag: str) -> tuple:
    """The features a tag names, read without ``from_tag``."""
    _, gender_number, definiteness, case, *pro = tag.split(":")
    return gender_number[:-1] or "none", gender_number[-1], definiteness, case, pro == ["+pro"]


def test_bundle_equals_the_bundle_of_its_tag(compiled):
    tags = {payload.features.tag() for payloads in compiled.payloads_by_rank for payload in payloads}
    assert len(tags) > 50
    for tag in tags:
        bundle, interned = FeatureBundle(*tag_fields(tag)), FeatureBundle.from_tag(tag)
        assert bundle == interned and hash(bundle) == hash(interned), tag
        assert bundle.tag() == tag and bundle == tag_fields(tag)
        assert {interned: tag}[bundle] == tag


def test_bundle_is_checked_and_tagged_however_made():
    bundle = FeatureBundle("m", "s", "a", "N")
    assert bundle._replace(pro_compat=True).tag() == "N:ms:a:N:+pro"
    assert bundle._asdict() == {"gender": "m", "number": "s", "definiteness": "a", "case": "N", "pro_compat": False}
    with pytest.raises(ValueError, match="no gender"):
        bundle._replace(number="q")


def test_surface_root_fills_its_geminate_flags():
    root = SurfaceRoot(("E", "q", "d"))
    explicit = SurfaceRoot(("E", "q", "d"), (False, False, False))
    assert root == explicit and hash(root) == hash(explicit)
    assert len(root) == 3 and str(root) == "Eqd"
    assert root != SurfaceRoot(("E", "q", "d"), (False, False, True))
    assert root != ("E", "q", "d")


def test_surface_root_replaces_and_counts_its_radicals():
    # A named tuple of three fields whose len() counts radicals: _replace
    # must not check the field count through len().
    root = SurfaceRoot(("M", "d", "d"), (False, True, True), (1, 3, 3))
    moved = root._replace(positions=(1, 3, 5))
    assert type(moved) is SurfaceRoot and moved == (("M", "d", "d"), (False, True, True), (1, 3, 5))
    assert len(moved) == 3 and moved.radicals == root.radicals
    longer = root._replace(radicals=("M", "d", "d", "r"), geminate_flags=())
    assert len(longer) == 4 and longer.geminate_flags == (False,) * 4


def test_a_replaced_code_recomputes_its_text():
    code = parse_code("$N300-m-FvEvL-FuEuL-123")
    assert code.text == "N300-m-FvEvL-FuEuL-123"
    assert code._replace(human=True).text == "N300-m-FvEvL-FuEuL-123+Hum"
    assert code == tuple(code) and hash(code) == hash(tuple(code))


def test_compiling_the_seed_extracts_each_root_once(monkeypatch, tmp_path, capsys):
    calls = []
    extract = lexicon.extract_root
    monkeypatch.setattr(lexicon, "extract_root", lambda *args: calls.append(args) or extract(*args))
    assert cli.main(["compile", str(SEED_PATH), "--out", str(tmp_path / "seed.primdict")]) == 0
    lex, _ = lexicon.parse_lexicon(SEED_PATH.read_text(encoding="utf-8"))
    assert len(calls) == len(lex.entries)
