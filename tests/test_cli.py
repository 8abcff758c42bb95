import pathlib
import sys

import pytest

from taksir import cli
from taksir.cli import main
from taksir.codes import extract_root
from taksir.formdict import FormDictionary, Payload
from taksir.lexicon import load_seed

from conftest import ID_FIELDS, corrupt_id

SEED_PATH = pathlib.Path(__file__).parents[1] / "src" / "taksir" / "data" / "seed_lexicon.txt"


@pytest.fixture(scope="module")
def dict_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("dict") / "seed.primdict"
    status = main(["compile", str(SEED_PATH), "--out", str(out)])
    assert status == 0
    return out


class TestCompile:
    def test_success_prints_stats(self, dict_path, capsys):
        out = dict_path.parent / "again.primdict"
        assert main(["compile", str(SEED_PATH), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "forms\t" in printed and "serialized_bytes\t" in printed
        assert out.read_bytes() == dict_path.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compile", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_partial_lexicon_still_compiles(self, tmp_path, capsys):
        lex = tmp_path / "bad.txt"
        lex.write_text(
            "Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot\n"
            "garbage line here\n"
            "kitaAob,$N300-m-FvEvL-FuEuL-123 / book\n",
            encoding="utf-8",
        )
        out = tmp_path / "bad.primdict"
        assert main(["compile", str(lex), "--out", str(out)]) == 1
        assert out.exists()
        printed = capsys.readouterr()
        assert "invalid:" in printed.err
        assert main(["analyze", str(write_text(tmp_path, "kutubu\n")), "--dict", str(out)]) == 0

    def test_invalid_entry_reported_at_its_line(self, tmp_path, capsys):
        lex = write_text(tmp_path, "Euqodap,$N3ap-f-FvEvL-FuEaL-123 / knot\nEuqodap,$N3ap-f-FvEvL-FiEaaL-123\n", "l.txt")
        assert main(["compile", str(lex), "--out", str(tmp_path / "l.primdict")]) == 1
        assert "invalid: 2:" in capsys.readouterr().err
        assert main(["validate", str(lex)]) == 1
        assert capsys.readouterr().out.startswith("2:")

    def test_root_extracted_once_per_entry(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return extract_root(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("taksir")]:
            if getattr(module, "extract_root", None) is extract_root:
                monkeypatch.setattr(module, "extract_root", counting)
        assert main(["compile", str(SEED_PATH), "--out", str(tmp_path / "seed.primdict")]) == 0
        assert sorted(calls) == sorted(e.lemma for e in load_seed().entries)

    def test_format_overflow_exits_2(self, tmp_path, capsys, monkeypatch):
        d = FormDictionary.build({"kutubN": [Payload(300, "", "$N300-m-FvEvL-FuEuL-123", "N:q:i:G", True)]})
        monkeypatch.setattr(cli, "compile_lexicon", lambda lex, registry: (d, []))
        out = tmp_path / "x.primdict"
        with pytest.raises(SystemExit) as err:
            main(["compile", str(SEED_PATH), "--out", str(out)])
        assert err.value.code == 2
        assert "error: payload.drop 300 exceeds the format v1 limit of 255" in capsys.readouterr().err
        assert not out.exists()


def write_text(tmp_path, content, name="text.txt"):
    p = tmp_path / name
    p.write_text(content, encoding="utf-8")
    return p


class TestGen:
    def test_fixed_gender_paradigm(self, capsys):
        assert main(["gen", "Euqodap,$N3ap-f-FvEvL-FuEaL-123"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 30  # 27 base + 3 pronoun-bound variants
        assert any(l.startswith("Euqad") for l in lines)
        assert "AlEuqadu\tN:q:D:N" in lines

    def test_gender_inflecting_paradigm(self, capsys):
        assert main(["gen", "kaAotib,$N300-g-FvvEvL-FuEEaL-123"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 48  # 45 base + 3 bound variants of the feminine -ap stem
        assert "kutGaAobN\tN:q:i:N" in lines
        assert "kaAotibatu\tN:fs:a:N:+pro" in lines

    def test_malformed_spec(self, capsys):
        assert main(["gen", "Euqodap,$N3ap-f-FvEvL"]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_arabic_display(self, capsys):
        assert main(["gen", "Euqodap,$N3ap-f-FvEvL-FuEaL-123", "--arabic"]) == 0
        out = capsys.readouterr().out
        assert "عُقَد" in out

    def test_deterministic(self, capsys):
        main(["gen", "Euqodap,$N3ap-f-FvEvL-FuEaL-123"])
        first = capsys.readouterr().out
        main(["gen", "Euqodap,$N3ap-f-FvEvL-FuEaL-123"])
        assert capsys.readouterr().out == first


class TestAnalyze:
    def test_figure_tokens(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "liEuquwdK maSaAyid AlminoTaqapi OasmaAkihaA\nOanoMiTatihaA\n")
        assert main(["analyze", str(text), "--dict", str(dict_path), "--lexicon", str(SEED_PATH)]) == 0
        out = capsys.readouterr().out
        assert "liEuquwdK\tli/PREP+EuquwdK/N\tEaqod,N300-m-FvEvL-FuEuuL-123\tN:q:i:G" in out
        assert "OanoMiTatihaA\tOanoMiTati/N+haA/PRO+Gen" in out

    def test_empty_file(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "")
        assert main(["analyze", str(text), "--dict", str(dict_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_unknown_token(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "qwerty\n")
        main(["analyze", str(text), "--dict", str(dict_path)])
        assert "qwerty\tUNK" in capsys.readouterr().out

    def test_strict_mode_misses_bare_skeleton(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "Eqd\n")
        main(["analyze", str(text), "--dict", str(dict_path), "--mode", "strict"])
        assert "UNK" in capsys.readouterr().out

    @pytest.mark.parametrize("corruption", sorted(ID_FIELDS) + ["trailing bytes"])
    def test_corrupt_artifact_exits_2(self, dict_path, tmp_path, capsys, corruption):
        data = dict_path.read_bytes()
        bad = tmp_path / "bad.primdict"
        bad.write_bytes(data + b"garbage" if corruption == "trailing bytes" else corrupt_id(data, corruption))
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "kutubu\n")), "--dict", str(bad)])
        assert err.value.code == 2
        printed = capsys.readouterr().err
        assert printed.startswith("error: ") and corruption in printed and "Traceback" not in printed


class TestValidateCmd:
    def test_seed_clean(self, capsys):
        assert main(["validate", str(SEED_PATH)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_bad_entry(self, tmp_path, capsys):
        lex = write_text(tmp_path, "Eqdap,$N3ap-f-FvEvL-FuEaL-123 / broken\n", "l.txt")
        assert main(["validate", str(lex)]) == 1


class TestStatsCmd:
    def test_lexicon_stats(self, capsys):
        assert main(["stats", "--lexicon", str(SEED_PATH)]) == 0
        assert capsys.readouterr().out.startswith("entries\t")

    def test_coverage_report(self, dict_path, compiled, tmp_path, capsys):
        from taksir.segment import segment

        # 30 forms of 30 distinct lemmas (each token unambiguous about its
        # lemma) plus 5 unknown lemmas.
        known = []
        seen = set()
        for surface, payloads in compiled.forms():
            if not payloads[0].standalone:
                continue
            lattice = segment(surface, compiled, "diacritic-optional")
            lemmas = {r.noun.lemma for r in lattice.readings}
            if len(lemmas) == 1 and lemmas.isdisjoint(seen):
                seen.update(lemmas)
                known.append(surface)
            if len(known) == 30:
                break
        assert len(known) == 30
        unknown = ["blorp", "snark", "wibble", "quux", "zonk"]
        text = write_text(tmp_path, " ".join(known + unknown) + "\n")
        assert main(["stats", "--dict", str(dict_path), "--lexicon", str(SEED_PATH), "--text", str(text)]) == 0
        out = capsys.readouterr().out
        assert "tokens\t35" in out
        assert "tokens_covered\t30" in out
        assert "lemmas_covered\t30\t85.7%" in out
        assert out.count("uncovered\t") == 5


class TestConcordCmd:
    def test_mask_listing(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "qaroOa AlkaAtibu EuqadK kaviyrapF\n")
        assert main(["concord", str(text), "--dict", str(dict_path), "--mask", "N:q"]) == 0
        out = capsys.readouterr().out
        assert "EuqadK" in out
        assert "AlkaAtibu" not in out.split("EuqadK")[1]


class TestArabicInput:
    def test_arabic_script_tokens_analyzed(self, dict_path, tmp_path, capsys):
        from taksir import bn

        text = write_text(tmp_path, bn.to_arabic("liEuquwdK") + " " + bn.to_arabic("AlminoTaqapi") + "\n", "ar.txt")
        assert main(["analyze", str(text), "--dict", str(dict_path)]) == 0
        out = capsys.readouterr().out
        assert "li/PREP+EuquwdK/N" in out
        assert "Al/DET+minoTaqapi/N" in out

    def test_arabic_display_round_trip(self, dict_path, tmp_path, capsys):
        from taksir import bn

        text = write_text(tmp_path, "EuqadK\n", "one.txt")
        assert main(["analyze", str(text), "--dict", str(dict_path), "--arabic"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(bn.to_arabic("EuqadK") + "\t")

    def test_arabic_punctuation_and_tatweel(self, dict_path, tmp_path, capsys):
        # U+060C after the first word, U+061B and tatweel (U+0640) in the second.
        text = write_text(tmp_path, "كتب، عقدة؛ عقـــدة؟\n", "punct.txt")
        assert main(["analyze", str(text), "--dict", str(dict_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ktb\tktb/N\tkitaAob,N300-m-FvEvL-FuEuL-123\tN:q:i:N" in lines
        knot = "Eqdp\tEqdp/N\tEuqodap,N3ap-f-FvEvL-FuEaL-123\tN:fs:i:N"
        assert lines.count(knot) == 2
        assert not any("UNK" in line for line in lines)

    @pytest.mark.parametrize("arabic", [False, True])
    def test_unmapped_codepoint_is_unk(self, dict_path, tmp_path, capsys, arabic):
        text = write_text(tmp_path, "كتب٣ عقدة\n", "digit.txt")
        argv = ["analyze", str(text), "--dict", str(dict_path)] + (["--arabic"] if arabic else [])
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "كتب٣\tUNK"
        assert len(lines) > 1 and "UNK" not in lines[1]
