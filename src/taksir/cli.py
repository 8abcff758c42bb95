"""Command-line front end.

Commands: compile, gen, analyze, validate, stats, concord.  Exit codes:
0 success, 1 validation failures, 2 usage or I/O problems.  Output is the
transliteration by default; --arabic switches display only, never storage.
"""

import argparse
import os
import sys
import time

from . import bn
from .classes import load_registry
from .errors import DataError, InvalidBnChar, TaksirError, UnmappedCodepoint
from .formdict import FormDictionary, compile_lexicon
from .lexicon import Diagnostic, lexicon_stats, parse_lexicon, validate_entry
from .paradigm import form_count, inflect
from .rewrite import CorruptDictionary
from .segment import concordance, format_reading, parse_mask, segment

#: Stripped from both ends of a token: ASCII punctuation and the Arabic
#: comma, semicolon and question mark.
_PUNCT = ".,;:!?()[]{}\"'«»…\u060c\u061b\u061f"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = str(exc)
    except UnicodeDecodeError as exc:
        reason = f"{path} is not UTF-8 text: {exc}"
    print(f"error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _check_lexicon(path: str, registry):
    """The lexicon and its parse diagnostics, then each entry's."""
    lex, diagnostics = parse_lexicon(_read(path))
    for entry in lex.entries:
        diagnostics += validate_entry(entry, registry)
    return lex, diagnostics


def _load_dictionary(args) -> FormDictionary:
    try:
        return FormDictionary.load(args.dict)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def tokenize(text: str) -> list[str]:
    tokens = []
    for raw in text.split():
        token = raw.replace("\u0640", "").strip(_PUNCT)  # tatweel only stretches letters
        if not token:
            continue
        if bn.looks_arabic(token):
            try:
                token = bn.to_bn(token)
            except UnmappedCodepoint:
                pass  # kept as written: no dictionary form can match it, so it is UNK
        tokens.append(token)
    return tokens


def _display(surface: str, arabic: bool) -> str:
    if arabic:
        try:
            return bn.to_arabic(surface)
        except InvalidBnChar:
            pass  # a token that could not be transliterated is shown as written
    return surface


def cmd_compile(args) -> int:
    registry = load_registry()
    lex, diagnostics = _check_lexicon(args.lexicon, registry)
    errors = [d for d in diagnostics if d.severity == "error"]
    started = time.perf_counter()
    dictionary, failures = compile_lexicon(lex, registry)
    elapsed = time.perf_counter() - started
    try:
        stats = dictionary.stats(dictionary.save(args.out))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    print(f"wrote {args.out}")
    for key, value in stats.items():
        print(f"{key}\t{value}")
    # wall time on stderr: stdout stays byte-identical across runs
    print(f"compile_seconds\t{elapsed:.3f}", file=sys.stderr)
    for d in errors:
        print(f"invalid: {d}", file=sys.stderr)
    # An entry already reported invalid is not reported again.
    invalid = {d.line for d in errors}
    for entry, error in failures:
        if entry.line not in invalid:
            print(f"failed: {entry.lemma},{entry.code}: {error}", file=sys.stderr)
    return 1 if errors or failures else 0


def cmd_gen(args) -> int:
    registry = load_registry()
    lex, diagnostics = parse_lexicon(args.entry)
    if not diagnostics and len(lex.entries) != 1:   # a comment, or several lines
        diagnostics.append(Diagnostic(1, 1, "E_FORMAT", "expected one 'lemma,$code' entry"))
    for d in diagnostics:
        print(f"invalid: {d}", file=sys.stderr)
    if diagnostics:
        return 1
    (entry,) = lex.entries
    try:
        for d in validate_entry(entry, registry):
            if d.severity == "error":
                print(f"invalid: {d}", file=sys.stderr)
                return 1
            print(f"warning: {d}", file=sys.stderr)
        forms = inflect(entry, registry)
    except TaksirError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    base = sum(1 for f in forms if f.standalone)
    for f in forms:
        print(f"{_display(f.surface, args.arabic)}\t{f.features.tag()}")
    print(f"# base forms: {base} (expected {form_count(entry)}); with pro variants: {len(forms)}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    dictionary = _load_dictionary(args)
    text = _read(args.text)
    for token in tokenize(text):
        lattice = segment(token, dictionary, args.mode)
        if not lattice.readings:
            print(f"{_display(token, args.arabic)}\tUNK")
            continue
        for reading in lattice.readings:
            line = format_reading(token, reading)
            if args.arabic:
                head, rest = line.split("\t", 1)
                line = f"{bn.to_arabic(head)}\t{rest}"
            print(line)
    return 0


def cmd_validate(args) -> int:
    lex, diagnostics = _check_lexicon(args.lexicon, load_registry())
    for d in diagnostics:
        print(str(d))
    errors = [d for d in diagnostics if d.severity == "error"]
    print(f"# {len(lex.entries)} entries, {len(errors)} errors, {len(diagnostics) - len(errors)} warnings")
    return 1 if errors else 0


def cmd_stats(args) -> int:
    if not (args.lexicon or args.dict) or (args.text and not args.dict):
        print("error: stats needs --lexicon or --dict, and --text needs --dict", file=sys.stderr)
        raise SystemExit(2)
    status = 0
    if args.lexicon:
        lex, diagnostics = parse_lexicon(_read(args.lexicon))
        if any(d.severity == "error" for d in diagnostics):
            status = 1
        print(lexicon_stats(lex).format(), end="")
    if args.dict:
        dictionary = _load_dictionary(args)
        stats = dictionary.stats(os.path.getsize(args.dict))
        for key, value in stats.items():
            print(f"{key}\t{value}")
        if args.text:
            tokens = tokenize(_read(args.text))
            covered_tokens = 0
            covered_lemmas: set[str] = set()
            unknown: list[str] = []
            for token in tokens:
                lattice = segment(token, dictionary, args.mode)
                if lattice.readings:
                    covered_tokens += 1
                    covered_lemmas.update(r.noun.lemma for r in lattice.readings)
                else:
                    unknown.append(token)
            unknown_types = sorted(set(unknown))
            total_lemmas = len(covered_lemmas) + len(unknown_types)
            print(f"tokens\t{len(tokens)}")
            print(f"tokens_covered\t{covered_tokens}\t{100.0 * covered_tokens / len(tokens):.1f}%" if tokens else "tokens_covered\t0")
            print(f"lemmas\t{total_lemmas}")
            print(f"lemmas_covered\t{len(covered_lemmas)}\t{100.0 * len(covered_lemmas) / total_lemmas:.1f}%" if total_lemmas else "lemmas_covered\t0")
            for u in unknown_types:
                print(f"uncovered\t{u}")
    return status


def cmd_concord(args) -> int:
    dictionary = _load_dictionary(args)
    tokens = tokenize(_read(args.text))
    for line in concordance(tokens, dictionary, args.mask, args.mode):
        print(line)
    return 0


def _mask(text: str) -> str:
    """A --mask value, checked when the arguments are parsed."""
    try:
        parse_mask(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_mode(p):
    p.add_argument("--mode", choices=["strict", "optional", "diacritic-optional"],
                   default="diacritic-optional",
                   help="lookup mode; 'optional' is short for diacritic-optional")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taksir", description="Arabic broken-plural morphology toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a lexicon into a form dictionary")
    p.add_argument("lexicon")
    p.add_argument("--out", default="forms.primdict")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("gen", help="print the full paradigm of one entry")
    p.add_argument("entry", help="lemma,$code")
    p.add_argument("--arabic", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="segment and tag the tokens of a text")
    p.add_argument("text")
    p.add_argument("--dict", required=True)
    _add_mode(p)
    p.add_argument("--arabic", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="check a lexicon file")
    p.add_argument("lexicon")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="lexicon/dictionary statistics and text coverage")
    p.add_argument("--lexicon")
    p.add_argument("--dict")
    p.add_argument("--text")
    _add_mode(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("concord", help="concordance of tokens matching a lexical mask")
    p.add_argument("text")
    p.add_argument("--dict", required=True)
    p.add_argument("--mask", default="N:q", type=_mask)
    _add_mode(p)
    p.set_defaults(func=cmd_concord)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "mode", None) == "optional":
        args.mode = "diacritic-optional"
    try:
        return args.func(args)
    except TaksirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CorruptDictionary, DataError) as exc:   # a dictionary fault found where it is used, or a refused data row
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
