import gc
import os
import pathlib
import shutil
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import taksir.classes
import taksir.compiler
import taksir.formdict
import taksir.lexicon
from taksir import bn, cli
from taksir.classes import parse_registry
from taksir.cli import main
from taksir.codes import extract_root
from taksir.errors import UnmappedCodepoint
from taksir.compiler import Unit
from taksir.formdict import FormDictionary
from taksir.lexicon import LexicalEntry, load_seed

from conftest import (ID_FIELDS, V1_ARTIFACT, V2_ARTIFACT, V3_ARTIFACT, V4_ARTIFACT, V5_ARTIFACT, corrupt_id,
                      cyclic_artifact, misflagged_artifact, overreaching_artifact, repeated_label_artifact,
                      retagged_artifact)
from test_classes import GEMINATE_ROW

SEED_PATH = pathlib.Path(__file__).parents[1] / "src" / "taksir" / "data" / "seed_lexicon.txt"
DATA = pathlib.Path(__file__).parent / "data"


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

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compile", str(SEED_PATH), "--out", str(tmp_path / "missing" / "x.primdict")])
        assert err.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("error: ") and "x.primdict" in printed.err

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

    def test_each_bad_entry_reported_once(self, tmp_path, capsys, monkeypatch):
        bad, good = "xyz,$N300-m-FvEvL-FuEuL-123", "kitaAob,$N300-m-FvEvL-FuEuL-123"
        failed = "failed: xyz,N300-m-FvEvL-FuEuL-123: lemma 'xyz' is not fully diacritized (position 1)"

        def reported(text):
            out = tmp_path / "l.primdict"
            assert main(["compile", str(write_text(tmp_path, text, "l.txt")), "--out", str(out)]) == 1
            assert {a.lemma for a in FormDictionary.load(out).lookup("kutubu")} == {"kitaAob"}
            return [l for l in capsys.readouterr().err.splitlines() if l.startswith(("invalid:", "failed:"))]

        assert reported(f"{bad}\n{good}\n") == [
            "invalid: 1:1 NotFullyDiacritized lemma 'xyz' is not fully diacritized (position 1)"]
        # Unflagged by validation, the entry is reported where generation
        # fails, and a repeat of it only as a duplicate.
        monkeypatch.setattr(taksir.lexicon, "validate_entry", lambda entry, registry: [])
        assert reported(f"{bad}\n{good}\n") == [failed]
        assert reported(f"{bad}\n{good}\n{bad}\n") == [
            "invalid: 3:1 E_DUP duplicate of line 1: xyz,N300-m-FvEvL-FuEuL-123", failed]

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

    def test_lexicon_and_units_freed_before_the_arc_tables(self, tmp_path, monkeypatch):
        # Each stage hands its output on: once the fill has read the entries
        # and build's isolation pass the units, nothing keeps them, so none
        # is alive when build makes its arc tables.
        gc.collect()
        earlier = [o for o in gc.get_objects() if type(o) in (LexicalEntry, Unit)]   # held: their ids stay theirs
        known, left, arc_tables = set(map(id, earlier)), [], taksir.compiler._arc_tables

        def checked(*args):
            if not left:
                gc.collect()
                left.append(Counter(type(o).__name__ for o in gc.get_objects()
                                    if type(o) in (LexicalEntry, Unit) and id(o) not in known))
            return arc_tables(*args)

        monkeypatch.setattr(taksir.compiler, "_arc_tables", checked)
        assert main(["compile", str(SEED_PATH), "--out", str(tmp_path / "seed.primdict")]) == 0
        assert left == [Counter()]

    def test_compiles_beyond_v1_limits(self, beyond_v1, tmp_path, monkeypatch):
        monkeypatch.setattr(taksir.compiler, "compile_lexicon", lambda lex, registry: (beyond_v1, []))
        out = tmp_path / "x.primdict"
        assert main(["compile", str(SEED_PATH), "--out", str(out)]) == 0
        assert out.read_bytes() == beyond_v1.to_bytes()
        assert FormDictionary.load(out).dump_text() == beyond_v1.dump_text()


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}", "--dict", "{dict}"],
    ["validate", "{bad}"],
    ["compile", "{bad}", "--out", "{out}"],
    ["concord", "{bad}", "--dict", "{dict}"],
    ["stats", "--lexicon", "{bad}"],
])
def test_non_utf8_input_exits_2(argv, dict_path, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"kutubu \xff\n")
    with pytest.raises(SystemExit) as err:
        main([arg.format(bad=bad, dict=dict_path, out=tmp_path / "x.primdict") for arg in argv])
    assert err.value.code == 2
    printed = capsys.readouterr().err
    assert printed.startswith(f"error: {bad} is not UTF-8 text: ") and "Traceback" not in printed


@pytest.mark.parametrize("argv", [
    ["compile", "{lex}", "--out", "{out}"],
    ["gen", "kitaAob,$N300-m-FvEvL-FuEuL-123"],
    ["validate", "{lex}"],
], ids=["compile", "gen", "validate"])
def test_refused_registry_exits_2(argv, tmp_path, capsys, monkeypatch):
    text = "N300-FvEvL-FuEuL-123\t1u2u3\ttriptote\ttriptote\nN300-FvEvL-FuEuuL-123\t1u2uwo3o4\ttriptote\ttriptote\n"
    monkeypatch.setattr(taksir.classes, "load_registry", lambda: parse_registry(text))
    assert main([arg.format(lex=SEED_PATH, out=tmp_path / "x.primdict") for arg in argv]) == 2
    printed = capsys.readouterr().err
    assert printed.startswith("error: classes registry line 2: template 1u2uwo3o4 ") and "Traceback" not in printed
    assert not (tmp_path / "x.primdict").exists()


def package_with_rows(tmp_path, rows: dict[str, str]) -> pathlib.Path:
    """The directory of a copy of the package with each row appended to its
    data file; a row ``-KIND`` instead deletes the file's rows of that kind."""
    copy = tmp_path / "taksir"
    shutil.copytree(pathlib.Path(cli.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for name, row in rows.items():
        table = copy / "data" / name
        lines = table.read_text("utf-8").splitlines()
        if row.startswith("-"):
            lines = [line for line in lines if line.split("\t")[0] != row[1:]]
        else:
            lines.append(row)
        table.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return tmp_path


def run_package(path, argv):
    env = {**os.environ, "PYTHONPATH": str(path)}
    return subprocess.run([sys.executable, "-m", "taksir", *argv], env=env, capture_output=True, text=True)


GEN = ["gen", "kitaAob,$N300-m-FvEvL-FuEuL-123"]


@pytest.mark.parametrize("name, row, argv, message", [
    ("classes.tsv", "N300-FvEvL-FuEuL-G\tabc\ttriptote\ttriptote", ["validate", "{seed}"],
     "classes registry line {line}: G in root code 'G' has no radical before it to geminate"),
    ("codes.tsv", "tag\tM300\t-", ["validate", "{seed}"],
     "code table line {line}: tag 'M300' is not N, a slot count of 2 to 6, then letters or digits"),
    # The refusal names the field at fault: a bad ending or respelling, not the row's name.
    ("codes.tsv", "tag\tN3xy\ta1", ["validate", "{seed}"], "code table line {line}: 'a1' for tag N3xy is not written in letters"),
    ("codes.tsv", "respell\tFvEvL\tF1", ["validate", "{seed}"],
     "code table line {line}: 'F1' for respell FvEvL is not written in letters"),
    ("codes.tsv", "tag\tN300\t-", ["validate", "{seed}"], "code table line {line}: duplicate tag N300"),
    ("codes.tsv", "label\tFu-L", ["validate", "{seed}"], "code table line {line}: label 'Fu-L' is not written in letters"),
    ("paradigms.tsv", "case\tpentaptote\tu\ta\ti", GEN, "paradigm table line {line}: expected 11 tab-separated fields"),
    ("paradigms.tsv", "case\ttriptote\tu\ta\ti\tN\tFA\tK\tu\ta\ti", GEN, "paradigm table line {line}: a second row for triptote"),
    ("paradigms.tsv", "case\tpentaptote\t#\ta\ti\tN\tFA\tK\tu\ta\ti", GEN, "paradigm table line {line}: malformed cell '#'"),
    ("paradigms.tsv", "case\tpentaptote\ti/drop-y\ta\ti\tN\tFA\tK\tu\ta\ti", GEN,
     "paradigm table line {line}: malformed cell 'i/drop-y'"),
    ("paradigms.tsv", "-dual", GEN, "paradigm table line {line}: the table has no dual row"),
    ("clitics.tsv", "suffix\tna", ["analyze", "{text}", "--dict", "{dict}"],
     "clitic table line {line}: unknown kind 'suffix'; expected one of conj, prep, det, pro"),
    ("clitics.tsv", "det\tAlo", ["analyze", "{text}", "--dict", "{dict}"], "clitic table line {line}: a second det row"),
    ("bn_table.txt", "0700", ["analyze", "{text}", "--dict", "{dict}"],
     "codec table line {line}: expected 2 tab-separated fields"),
    # One translate pass tells known text by its ASCII result: the table
    # must map non-ASCII code points to single ASCII letters.
    ("bn_table.txt", "0041\tx", ["analyze", "{text}", "--dict", "{dict}"],
     "codec table line {line}: expected a non-ASCII code point and one ASCII letter"),
    ("bn_table.txt", "0700\t\u00e9", ["analyze", "{text}", "--dict", "{dict}"],
     "codec table line {line}: expected a non-ASCII code point and one ASCII letter"),
    # A repeated code point or letter would leave the codec no bijection.
    ("bn_table.txt", "0628\tB", ["analyze", "{text}", "--dict", "{dict}"], "codec table line {line}: duplicate code point 0628"),
    ("bn_table.txt", "0750\tb", ["analyze", "{text}", "--dict", "{dict}"], "codec table line {line}: duplicate letter b"),
], ids=["classes", "codes", "codes-ending", "codes-respelling", "codes-repeated-tag", "codes-label", "paradigms",
        "paradigms-repeated-row", "paradigms-cell", "paradigms-transform", "paradigms-no-dual", "clitics",
        "clitics-det", "codec", "codec-ascii-point", "codec-latin", "codec-repeated-point", "codec-repeated-letter"])
def test_refused_data_row_exits_2(name, row, argv, message, dict_path, tmp_path):
    # An unknown clitic kind crashed analyze with a KeyError.  The row at
    # fault, or the table's end where a row is missing, is its last line.
    text = write_text(tmp_path, "kutubu")
    path = package_with_rows(tmp_path, {name: row})
    line = len((path / "taksir" / "data" / name).read_text("utf-8").splitlines())
    done = run_package(path, [arg.format(seed=SEED_PATH, text=text, dict=dict_path) for arg in argv])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message.format(line=line)}\n")


def test_clitic_table_without_det_row_exits_2(dict_path, tmp_path):
    path = package_with_rows(tmp_path, {"clitics.tsv": "-det"})
    lines = (path / "taksir" / "data" / "clitics.tsv").read_text("utf-8").splitlines()
    done = run_package(path, ["analyze", str(write_text(tmp_path, "kutubu")), "--dict", str(dict_path)])
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: clitic table line {len(lines)}: the table has no det row\n")


def test_class_added_through_data_only(tmp_path):
    # A new tag, a new label and a class of both: three rows, no code.
    path = package_with_rows(tmp_path, {"codes.tsv": "tag\tN3xx\t-\nlabel\tFuEuLaA",
                                        "classes.tsv": "N3xx-FvEvL-FuEuLaA-123\t1u2u3aA\ttriptote\tinvariable-aY"})
    done = run_package(path, ["gen", "kitaAob,$N3xx-m-FvEvL-FuEuLaA-123"])
    assert done.returncode == 0, done.stderr
    assert "kutubaA\tN:q:i:N" in done.stdout.splitlines()
    assert done.stderr == "# base forms: 27 (expected 27); with pro variants: 27\n"


@pytest.mark.parametrize("words", [20000, 1], ids=["large", "buffered"])
def test_closed_stdout_exits_2_quietly(words, dict_path, tmp_path):
    # `analyze BIG | head -1` printed a BrokenPipeError traceback and exited 1.
    # The large output meets the closed pipe while it prints; the small one
    # stays buffered until the flush at the end, which is why
    # PYTHONUNBUFFERED is left out.
    text = write_text(tmp_path, "kutubu " * words)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    read, write = os.pipe()
    if words == 1:
        os.close(read)      # the reader is gone before the child writes anything
    proc = subprocess.Popen([sys.executable, "-m", "taksir", "analyze", str(text), "--dict", str(dict_path)],
                            stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    if words > 1:
        with open(read, "rb") as out:
            assert out.readline().startswith(b"kutubu\t")    # far more than a pipe holds is still to come
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


def test_import_reads_data_without_importlib_resources():
    # importlib.resources and pathlib cost milliseconds to import; every
    # bundled data file is read by its path beside the package.
    # The read commands leave the generator out, so it is imported here.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import taksir.cli, taksir.codes, taksir.classes, taksir.lexicon; m = sys.modules; "
            "m['taksir.bn']._codec(); m['taksir.codes'].code_tables(); m['taksir.classes'].load_paradigms(); "
            "m['taksir.classes'].load_registry(); m['taksir.lexicon'].load_seed(); m['taksir.segment'].load_clitics(); "
            "print(sorted({'importlib.resources', 'pathlib'} & set(m)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(pathlib.Path(cli.__file__).parents[1])],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_import_leaves_out_dataclasses():
    # dataclasses, with the inspect, ast and dis it imports, took about a
    # third of the package import, and typing a few milliseconds more; the
    # records are collections.namedtuple subclasses or plain classes.  No
    # site packages and no test runner run first in a bare interpreter, so
    # none of them can have imported these already.  taksir.cli leaves the
    # generator out, so it is imported too.
    code = ("import sys, taksir.cli, taksir.paradigm, taksir.lexicon; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_import_leaves_out_argparse():
    # argparse, with the gettext and re it imports, was about a third of a
    # bare ``import taksir.cli``; only a command line to parse needs it, not
    # a library user of tokenize.  -X importtime names every module imported.
    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-B", "-X", "importtime", "-c", "import taksir.cli"],
                          capture_output=True, text=True, env=env)
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
    assert done.returncode == 0 and "taksir.cli" in imported, done.stderr
    assert not {"argparse", "gettext", "re"} & imported


#: The generator's modules and the writer: only the commands that compile or
#: generate import them.
GENERATOR = ["taksir.classes", "taksir.codes", "taksir.compiler", "taksir.lexicon", "taksir.paradigm"]


def bare_run(code: str) -> str:
    """The stderr of ``code`` run by a bare interpreter that finds only the
    package under test, and writes no bytecode beside it; it must exit 0."""
    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stderr


@pytest.mark.parametrize("argv, loaded", [
    (["analyze", "{text}", "--dict", "{dict}"], []),
    (["concord", "{text}", "--dict", "{dict}"], []),
    (["stats", "--dict", "{dict}", "--text", "{text}"], []),
    (["compile", "{lex}", "--out", "{out}"], GENERATOR),
], ids=["analyze", "concord", "stats-dict", "compile"])
def test_command_imports_generator_only_when_it_runs_it(argv, loaded, dict_path, tmp_path):
    # Reading a compiled dictionary needs none of the generator and not the
    # writer; compile, the control, needs all of them.
    text = write_text(tmp_path, "kutubu wabiAlokutubi")
    argv = [a.format(text=text, dict=dict_path, lex=SEED_PATH, out=tmp_path / "x.primdict") for a in argv]
    code = (f"import sys; from taksir import cli; assert cli.main({argv!r}) == 0; "
            f"print(sorted(set({GENERATOR!r}) & set(sys.modules)), file=sys.stderr)")
    assert bare_run(code).splitlines()[-1] == str(loaded)    # compile's timing line comes first


def test_package_names_resolve_without_the_generator_loaded():
    code = (f"import sys, taksir; print(sorted(set({GENERATOR!r}) & set(sys.modules)), file=sys.stderr); "
            "import taksir.cli; from taksir import segment; assert callable(segment) and taksir.segment is segment; "
            "assert all(getattr(taksir, name) is not None and name in dir(taksir) for name in taksir.__all__); "
            "from taksir import *; print(inflect.__module__, load_registry.__module__, compile_lexicon.__module__, "
            "file=sys.stderr)")
    assert bare_run(code) == "[]\ntaksir.paradigm taksir.classes taksir.compiler\n"


def test_names_the_bench_reads_resolve():
    # bench/tracing.py wraps these FormDictionary methods and compile_lexicon
    # by name in taksir.formdict, and bench/inputs.py imports dictionary_key
    # from it, although the writer lives in taksir.compiler.
    for attr in ("build", "to_bytes", "from_bytes", "dump_text", "lookup"):
        assert attr in vars(FormDictionary), attr
    assert taksir.formdict.compile_lexicon is taksir.compiler.compile_lexicon
    assert callable(taksir.formdict.dictionary_key)


def test_compile_calls_through_the_names_the_bench_wraps(tmp_path, monkeypatch):
    # A traced compile times build and to_bytes where the bench wraps them,
    # so neither span may be bypassed by a direct call into the writer.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FormDictionary, "build", classmethod(counted("build", vars(FormDictionary)["build"].__func__)))
    monkeypatch.setattr(FormDictionary, "to_bytes", counted("to_bytes", FormDictionary.to_bytes))
    monkeypatch.setattr(taksir.compiler, "compile_lexicon", counted("compile_lexicon", taksir.formdict.compile_lexicon))
    assert main(["compile", str(SEED_PATH), "--out", str(tmp_path / "seed.primdict")]) == 0
    assert calls == {"compile_lexicon": 1, "build": 1, "to_bytes": 1}


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

    @pytest.mark.parametrize("spec", ["# kitaAob,$N300-m-FvEvL-FuEuL-123", ""])
    def test_spec_without_an_entry(self, spec, capsys):
        assert main(["gen", spec]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "invalid: 1:1 E_FORMAT expected one 'lemma,$code' entry\n"

    def test_lone_geminate_root_code(self, capsys):
        # G with no radical before it died with an IndexError in apply_root_code.
        assert main(["gen", "jabal,$N300-m-FvEvL-FuEuL-G"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invalid: 1:7 E_CODE G in root code 'G' has no radical before it to geminate\n"

    def test_lemma_outside_the_alphabet(self, capsys):
        # The apostrophe used to pass and gave forms such as Alba'osu.
        assert main(["gen", "ba'os,$N300-m-FvEvL-FuEuuL-123"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid: ") and "not a transliteration character" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec, err", [
        ("SaAoruwox,$N400-m-FvEvLvvB-FaEaaLiiB-1w34",
         "warning: 1:3 W_LONGROOT long vowel 'A' encoded as radical 2; prefer a vv pattern code\n"
         "invalid: 1:1 UnknownClass no inflection class registered for N400-FvEvLvvB-FaEaaLiiB-1w34; "
         "nearest known: N400-FvEvLvvB-FaEaaLiiB-1234, N400-FvEvLvvB-FaEaaLiiB-h234\n"),
        ("Euqodap,$N300-f-FvEvL-FuEaL-123", "invalid: 1:1 E_SUFFIX lemma ends in -ap but tag N300 strips nothing\n"),
    ], ids=["warning", "error"])
    def test_entry_diagnostics_at_line_1(self, spec, err, capsys):
        # The entry is line 1, as its parse diagnostics say.
        assert main(["gen", spec]) == 1
        assert capsys.readouterr() == ("", err)

    def test_entry_that_fails_generation(self, capsys, monkeypatch):
        # The entry validates, but its class's template geminates a radical
        # that differs from the one before it.
        monkeypatch.setattr(taksir.classes, "load_registry", lambda: parse_registry(GEMINATE_ROW))
        assert main(["gen", "kitaAob,$N300-m-FvEvL-FaEaaLiB-1223"]) == 1
        assert capsys.readouterr() == (
            "", "invalid: template 1a2aAo3=4 geminates radical 4, which differs from its neighbour\n")

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
        assert main(["analyze", str(text), "--dict", str(dict_path)]) == 0
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

    def test_optional_is_short_for_diacritic_optional(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "kutub AlkutubK liEuquwdK Eqd qwerty\n")
        outs = []
        for mode in ("optional", "diacritic-optional"):
            assert main(["analyze", str(text), "--dict", str(dict_path), "--mode", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "\tkitaAob," in outs[0]

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

    def test_v1_artifact_exits_2(self, tmp_path, capsys):
        old = tmp_path / "v1.primdict"
        old.write_bytes(V1_ARTIFACT)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(old)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: unsupported dictionary version 1\n"

    def test_v2_artifact_exits_2(self, tmp_path, capsys):
        old = tmp_path / "v2.primdict"
        old.write_bytes(V2_ARTIFACT)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(old)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: unsupported dictionary version 2\n"

    def test_v3_artifact_exits_2(self, tmp_path, capsys):
        old = tmp_path / "v3.primdict"
        old.write_bytes(V3_ARTIFACT)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(old)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: unsupported dictionary version 3\n"

    def test_v4_artifact_exits_2(self, tmp_path, capsys):
        old = tmp_path / "v4.primdict"
        old.write_bytes(V4_ARTIFACT)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(old)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: unsupported dictionary version 4\n"

    def test_v5_artifact_exits_2(self, tmp_path, capsys):
        old = tmp_path / "v5.primdict"
        old.write_bytes(V5_ARTIFACT)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(old)])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: unsupported dictionary version 5\n"

    @pytest.mark.parametrize("argv", [["analyze", "{text}", "--dict", "{dict}"],
                                      ["stats", "--dict", "{dict}", "--text", "{text}"],
                                      ["analyze", "{text}", "--dict", "{dict}", "--mode", "strict"]])
    def test_rewrite_past_its_form_exits_2(self, tmp_path, capsys, argv):
        # Loaded, a drop of 9 from the form "ab" printed the tail alone as its lemma.
        bad = tmp_path / "bad.primdict"
        bad.write_bytes(overreaching_artifact(2 * 9 + 1))
        text = write_text(tmp_path, "ab\n")
        assert main([arg.format(text=text, dict=bad) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert "\tab\t" not in out and "\tx," not in out    # no line with a lemma
        assert err == ("error: corrupt dictionary: the lemma rewrite [0:-9]+'x' reaches past the form 'ab' "
                       "that carries it\n")

    def test_cyclic_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cyclic.primdict"
        bad.write_bytes(cyclic_artifact())
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "a\n")), "--dict", str(bad)])
        assert err.value.code == 2
        printed = capsys.readouterr().err
        assert printed == "error: corrupt dictionary: a trans.target is not below the state it leaves\n"

    @pytest.mark.parametrize("artifact, message", [
        (lambda: retagged_artifact("N:q:zz:yy"), "malformed feature tag 'N:q:zz:yy'"),
        (repeated_label_artifact, "a state's trans.labels do not strictly increase"),
        (lambda: misflagged_artifact("no arc"), "a state.shape flags the last arc of a state with no arc"),
        (lambda: misflagged_artifact("state 0"), "state 0's state.shape flags an arc to a state before it"),
        (lambda: misflagged_artifact("label"), "a state's trans.labels do not strictly increase"),
    ], ids=["tag value", "repeated label", "flag without arc", "flag on state 0", "flagged label"])
    def test_artifact_the_analyses_cannot_trust_exits_2(self, tmp_path, capsys, artifact, message):
        bad = tmp_path / "bad.primdict"
        bad.write_bytes(artifact())
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(write_text(tmp_path, "ab\n")), "--dict", str(bad)])
        assert err.value.code == 2
        printed = capsys.readouterr().err
        assert printed.startswith("error: ") and message in printed and "Traceback" not in printed


class TestValidateCmd:
    def test_seed_clean(self, capsys):
        assert main(["validate", str(SEED_PATH)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_bad_entry(self, tmp_path, capsys):
        lex = write_text(tmp_path, "Eqdap,$N3ap-f-FvEvL-FuEaL-123 / broken\n", "l.txt")
        assert main(["validate", str(lex)]) == 1

    def test_report_on_bad_lemmas(self, capsys):
        # The report as it was before the pattern parse was memoised per
        # lemma shape, byte for byte.
        assert main(["validate", str(DATA / "bad_lemmas.txt")]) == 1
        assert capsys.readouterr().out == (DATA / "bad_lemmas.validate.txt").read_text("utf-8")


class TestStatsCmd:
    def test_lexicon_stats(self, capsys):
        assert main(["stats", "--lexicon", str(SEED_PATH)]) == 0
        assert capsys.readouterr().out.startswith("entries\t")

    def test_lexicon_with_a_malformed_line(self, tmp_path, capsys):
        # The report counts the entries that parse; the status says a line did not.
        lex = write_text(tmp_path, "garbage line here\nkitaAob,$N300-m-FvEvL-FuEuL-123 / book\n", "l.txt")
        assert main(["stats", "--lexicon", str(lex)]) == 1
        assert capsys.readouterr() == ("entries\t1\nFuEuL\t1\n  FvEvL\t1\n", "")

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

    def test_dict_stats_take_the_file_size(self, dict_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("stats --dict must not serialise the dictionary again")

        monkeypatch.setattr(FormDictionary, "to_bytes", refuse)
        assert main(["stats", "--dict", str(dict_path)]) == 0
        assert f"serialized_bytes\t{dict_path.stat().st_size}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["stats"], ["stats", "--text", "{text}"],
                                      ["stats", "--lexicon", "{lexicon}", "--text", "{text}"]])
    def test_nothing_to_report_is_a_usage_error(self, argv, tmp_path, capsys):
        text = write_text(tmp_path, "kutubu\n")
        with pytest.raises(SystemExit) as err:
            main([a.format(text=text, lexicon=SEED_PATH) for a in argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stats needs --lexicon or --dict, and --text needs --dict\n"


class TestConcordCmd:
    def test_mask_listing(self, dict_path, tmp_path, capsys):
        text = write_text(tmp_path, "qaroOa AlkaAtibu EuqadK kaviyrapF\n")
        assert main(["concord", str(text), "--dict", str(dict_path), "--mask", "N:q"]) == 0
        out = capsys.readouterr().out
        assert "EuqadK" in out
        assert "AlkaAtibu" not in out.split("EuqadK")[1]

    @pytest.mark.parametrize("mask, message", [("N:zz", "bad mask component 'zz' in 'N:zz'"),
                                               ("V:q", "unsupported mask 'V:q'"), ("N:", "bad mask component ''"),
                                               ("N:q:s", "number set twice in 'N:q:s'"),
                                               ("N:D:i", "definiteness set twice in 'N:D:i'"),
                                               ("N:fs:q", "number set twice in 'N:fs:q'")])
    def test_bad_mask_is_a_usage_error(self, dict_path, tmp_path, capsys, mask, message):
        text = write_text(tmp_path, "EuqadK\n")
        with pytest.raises(SystemExit) as err:
            main(["concord", str(text), "--dict", str(dict_path), "--mask", mask])
        assert err.value.code == 2
        printed = capsys.readouterr().err
        assert f"error: argument --mask: {message}" in printed and "Traceback" not in printed


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


def tokenize_in_two_steps(text: str) -> list[str]:
    """The rule ``cli.tokenize`` keeps, written out: strip, then transliterate
    a token with Arabic in it, keeping one the codec refuses as written."""
    tokens = []
    for raw in text.split():
        token = raw.replace("\u0640", "").strip(cli._PUNCT)
        if token and bn.looks_arabic(token):
            try:
                token = bn.to_bn(token)
            except UnmappedCodepoint:
                pass
        if token:
            tokens.append(token)
    return tokens


#: Codec Arabic, transliteration letters, digits and ASCII punctuation,
#: tatweel, the Arabic comma, semicolon and question mark, code points
#: outside the table (a lam-alif ligature, an Arabic-Indic digit, Latin
#: with an accent) and whitespace.
TOKENIZE_CHARACTERS = sorted({*bn._AR2BN, *bn.ALPHABET, *"0123456789", *bn._PASSTHROUGH, *cli._PUNCT,
                              "\u0640", "\u060c", "\u061b", "\u061f", "\ufefb", "\u0663", "\u00e9", " ", "\t", "\n"})


@given(st.text(st.sampled_from(TOKENIZE_CHARACTERS), max_size=40))
@example("12 3.5 ... -_/ \u0663")
@example("\u0643\u062a\u0628\u0663 \ufefb kitaAob \u0643\u062a\u0640\u0628\u060c")
def test_tokenize_keeps_its_rule(text):
    assert cli.tokenize(text) == tokenize_in_two_steps(text)
