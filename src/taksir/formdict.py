"""Compiled full-form dictionary: a minimized acyclic automaton.

The automaton is the minimal deterministic acyclic automaton of the surface
strings alone, made a perfect hash (Lucchesi & Kowaltowski 1993): each arc
carries a rank offset, the number of forms that end at its source state or
below its smaller-labelled sibling arcs, so the offsets along a matched path
sum to the form's lexicographic rank, which indexes its analysis payload
list.  Suffix tails stay shared across the whole lexicon, which is what
makes the serialized artifact small.  ``taksir.compiler`` builds and writes it.

Payloads do not name entries directly: they hold the cell's interned
``FeatureBundle`` (a tag string id in the artifact, parsed once per load),
the inflectional code and a positional rewrite that rebuilds the lemma from
the matched surface (``taksir.rewrite``), so entries of the same class share
payload records.  In memory, built or loaded, each distinct record is one
``Payload`` and forms with equal payload sets share one tuple of them, so
serialising resolves each set once.

Definite cells are stored without the article: Al- is a determiner segment
(the segmenter restores it), so a definite surface in the automaton is the
noun part only, carrying the D feature.

One iterative walk serves both lookup modes.  In diacritic-optional mode it
may also skip dictionary diacritics the query omits, but a diacritic present
in the query must match the dictionary exactly.  Strict mode never skips:
its walk follows one path and reports its matches in end order, so only
optional mode de-duplicates and sorts them.
Optional mode reads what lies past skipped diacritics from a skip table,
built per state on first use and never stored: the word ends so reached
and, per next letter, the arcs that take it, so the walk branches only
where that letter goes on.  A walk reports the forms ending at each of
several positions of its text, so the segmenter walks a token once per noun
start.
"""

import struct
import sys
from array import array
from contextlib import contextmanager
from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate, chain, islice, repeat

from . import bn
from .features import FeatureBundle
from .rewrite import Rewrite

MAGIC = b"TKDC"
VERSION = 6

_HEADER = struct.Struct("<4sH12Q")    # see the byte layout below

#: Struct codes of the column widths, narrowest first.
_WIDTHS = "BHIQ"


class Payload(namedtuple("Payload", "rewrite code features standalone")):
    """Analysis record attached to a form (entry-independent): the rewrite
    that gives the lemma from the surface, the full code text, the interned
    features (stored as their tag) and whether it stands without a pronoun."""

    __slots__ = ()

    def sort_key(self):
        return (self.code, self.features.tag(), self.rewrite, not self.standalone)


class Analysis(namedtuple("Analysis", "surface lemma code features standalone")):
    """A payload read for the dictionary form that matched."""

    __slots__ = ()

    def line(self) -> str:
        return f"{self.surface}\t{self.lemma}\t{self.code}\t{self.features.tag()}"


class FormDictionary:
    """Minimal acyclic automaton plus rank-indexed analysis payloads."""

    def __init__(self, arcs, finals, payloads_by_rank):
        self.arcs = arcs                      # per state: {label: (target, rank offset)}, label-sorted
        self.finals = finals                  # per state: 1 where a word ends, else 0
        self.payloads_by_rank = payloads_by_rank
        self.root = len(arcs) - 1             # states come in postorder: every target before its source

    @classmethod
    def build(cls, units) -> "FormDictionary":     # bench/tracing.py wraps this name
        from .compiler import build
        return build(units)

    # -- lookup ------------------------------------------------------------

    def analysis(self, form: str, payload: Payload) -> Analysis:
        """The analysis a payload gives the dictionary form that carries it."""
        return Analysis(form, payload.rewrite.apply(form), payload.code, payload.features, payload.standalone)

    def lookup(self, surface: str, mode: str = "strict") -> list[Analysis]:
        """Analyses of a surface string; empty list when absent.

        strict: exact traversal.  diacritic-optional: dictionary diacritics
        may be skipped, but any diacritic present in the query must match.
        """
        return [self.analysis(form, p) for _, form, rank in self.walk(surface, 0, (len(surface),), mode)
                for p in self.payloads_by_rank[rank]]

    @cached_property
    def skip_table(self) -> "SkipTable":
        return SkipTable(self.arcs, self.finals)

    def walk(self, text: str, start: int, ends, mode: str) -> list[tuple[int, str, int]]:
        """Every (end, dictionary form, rank) where ``text[start:end]`` matches
        a form and ``end`` is one of ``ends``, sorted: per end, forms come in
        rank order, which is form order.  The inner loop follows the text's
        letters.  A strict walk is one path, so its stack never grows and its
        matches come once each, in end order.  In diacritic-optional mode each
        state it reaches also reads its skip table entry: the word ends past
        skipped diacritics, and the moves on the next letter, each of which
        starts a stack entry, whose form is ``built + text[at:qi]``."""
        if mode not in ("strict", "diacritic-optional"):
            raise ValueError(f"unknown lookup mode {mode!r}")
        arcs, finals, last = self.arcs, self.finals, max(ends)
        skip_table = self.skip_table if mode == "diacritic-optional" else None
        found = []
        stack = [(self.root, 0, start, "", start)]
        while stack:
            state, rank, qi, built, at = stack.pop()
            while True:
                if finals[state] and qi in ends:
                    found.append((qi, built + text[at:qi], rank))
                if skip_table is not None:
                    word_ends, moves = skip_table[state]
                    if word_ends and qi in ends:
                        for offset, skipped in word_ends:
                            found.append((qi, built + text[at:qi] + skipped, rank + offset))
                    if qi < last and text[qi] in moves:
                        for target, offset, skipped in moves[text[qi]]:
                            stack.append((target, rank + offset, qi + 1, built + text[at:qi] + skipped, qi))
                if qi >= last:
                    break
                arc = arcs[state].get(text[qi])
                if arc is None:
                    break
                state, offset = arc
                rank += offset
                qi += 1
        # Skipping can reach a form along several alignments, in any order.
        # A rank names one form, and ranks follow form order, so sorting the
        # distinct matches sorts them by (end, rank).
        return found if skip_table is None else sorted(set(found))

    # -- enumeration -------------------------------------------------------

    def forms(self):
        """Yield (surface, payloads) in lexicographic (= rank) order."""
        rank = 0
        stack = [(self.root, "")]
        while stack:
            state, prefix = stack.pop()
            if self.finals[state]:
                yield prefix, self.payloads_by_rank[rank]
                rank += 1
            for ch, (target, _) in reversed(self.arcs[state].items()):
                stack.append((target, prefix + ch))

    def dump_text(self) -> str:
        lines = []
        for surface, payloads in self.forms():
            for p in payloads:
                lines.append(self.analysis(surface, p).line())
        return "\n".join(lines) + ("\n" if lines else "")

    # -- stats -------------------------------------------------------------

    def stats(self, serialized_bytes: int) -> dict:
        """Sizes of the dictionary, in the order the CLI prints them, with
        the artifact's size as the caller knows it (``save`` returns it)."""
        return {
            "forms": len(self.payloads_by_rank),
            "analyses": sum(len(p) for p in self.payloads_by_rank),
            "states": len(self.arcs),
            "transitions": sum(len(t) for t in self.arcs),
            "serialized_bytes": serialized_bytes,
        }

    # -- serialization -----------------------------------------------------
    #
    # Little-endian byte layout, in order:
    #   header:  magic "TKDC", u16 version, then a u64 count each of states,
    #            transitions, forms, tokens, tuples, tuple refs, payload
    #            sets, set refs, payloads, rewrites, rewrite pieces, strings
    #   columns: one per integer field below, each a struct code (B, H, I
    #            or Q) and then one value per record at that width, the
    #            narrowest that holds the column's largest value:
    #     state:   shape = 4 fanout + 2 next + final  (postorder: every target
    #                                               before its source, the
    #                                               root last)
    #     trans:   label (code point), target      (per state, label-sorted;
    #              none for a last arc flagged next: it leads to state - 1)
    #     token:   tuple_id                        (rank order, see _tokens)
    #     tuple:   length                          (ids in first-use order)
    #     tupleref: set_id                         (concatenated tuples)
    #     set:     length                          (ids in first-use order)
    #     setref:  payload_id                      (concatenated set contents)
    #     payload: tag = 2 tag_id + standalone, code_id (string ids), rewrite_id
    #     rewrite: length (its pieces)             (ids in first-use order)
    #     piece:   start, stop, literal_id         (concatenated rewrites; a
    #              stop s from the start is stored as 2s, a stop k letters
    #              back from the end as 2k + 1)
    #     string:  length in utf-8 bytes           (ids in first-use order
    #                                               over the three id columns)
    #   strings: their utf-8 bytes, concatenated
    #
    # Neither word counts nor rank offsets are stored: loading takes the
    # states in order and derives each state's arcs' rank offsets and word
    # count, its own word plus its targets', from its targets' counts.

    def to_bytes(self) -> bytes:     # bench/tracing.py wraps this name
        from .compiler import to_bytes
        return to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FormDictionary":
        view, off = memoryview(data), 0

        def take(size: int) -> memoryview:
            nonlocal off
            start, off = off, off + size
            if off > len(data):
                raise ValueError("truncated dictionary")
            return view[start:off]

        def column(n: int) -> array:
            code = chr(take(1)[0])
            if code not in _WIDTHS:
                raise ValueError(f"corrupt dictionary: unknown column width code {code!r}")
            values = array(code)
            values.frombytes(take(n * values.itemsize))
            if sys.byteorder == "big":
                values.byteswap()
            return values

        # Magic and version first: an artifact of another version is named
        # as such, however its header is laid out.
        magic, version = struct.unpack("<4sH", take(6))
        if magic != MAGIC:
            raise ValueError("not a compiled dictionary (bad magic bytes)")
        if version != VERSION:
            raise ValueError(f"unsupported dictionary version {version}")
        (n_states, n_trans, n_forms, n_tokens, n_tuples, n_tuple_refs, n_sets, n_refs, n_payloads, n_rewrites,
         n_pieces, n_strings) = struct.unpack("<12Q", take(_HEADER.size - 6))
        shapes = column(n_states)
        # The flags size the target column, so the shapes are checked first.
        shape_counts = Counter(shapes)
        if sum((shape >> 2) * n for shape, n in shape_counts.items()) != n_trans:
            raise ValueError(f"corrupt dictionary: state fanouts do not sum to the {n_trans} transitions")
        if 2 in shape_counts or 3 in shape_counts:
            raise ValueError("corrupt dictionary: a state.shape flags the last arc of a state with no arc")
        if n_states and shapes[0] & 2:
            raise ValueError("corrupt dictionary: state 0's state.shape flags an arc to a state before it")
        labels, targets, token_ids, tuple_lens, tuple_refs, set_lens, refs = map(column, (
            n_trans, n_trans - sum(n for shape, n in shape_counts.items() if shape & 2), n_tokens, n_tuples,
            n_tuple_refs, n_sets, n_refs))
        tags, codes, rewrite_ids = (column(n_payloads) for _ in range(3))
        rewrite_lens = column(n_rewrites)
        starts, stops, literals = (column(n_pieces) for _ in range(3))
        lengths = column(n_strings)
        bounds = list(accumulate(lengths, initial=0))
        blob = take(bounds[-1])
        string_table = [str(blob[start:end], "utf-8") for start, end in zip(bounds, bounds[1:])]
        if off != len(data):
            raise ValueError(f"trailing bytes after the dictionary: {len(data) - off}")

        if any(label > 0x10FFFF or 0xD800 <= label < 0xE000 for label in set(labels)):
            raise ValueError("corrupt dictionary: a trans.label is not a character")
        arcs, counts = _arc_tables(shapes, map(chr, labels), targets)
        if not counts or counts[-1] != n_forms:
            raise ValueError(f"corrupt dictionary: the root does not count the {n_forms} forms")

        string = string_table.__getitem__
        for name, lengths, n, parts in (("rewrite", rewrite_lens, n_pieces, "rewrite pieces"),
                                        ("set", set_lens, n_refs, "set refs"),
                                        ("tuple", tuple_lens, n_tuple_refs, "tuple refs")):
            if sum(lengths) != n:
                raise ValueError(f"corrupt dictionary: {name} lengths do not sum to the {n} {parts}")
        stops = [stop >> 1 if stop & 1 == 0 else ~(stop >> 1) for stop in stops]
        if any(0 <= stop < start for start, stop in zip(starts, stops)):
            raise ValueError("corrupt dictionary: a rewrite piece stops before it starts")
        with _ids_below(n_strings, "piece.literal_id", "strings"):
            pieces = zip(starts, stops, map(string, literals))
            rewrites = [Rewrite(islice(pieces, n)) for n in rewrite_lens]
        with _ids_below(n_rewrites, "payload.rewrite_id", "rewrites"):
            payload_rewrites = list(map(rewrites.__getitem__, rewrite_ids))
        with _ids_below(n_strings, "payload.tag string id", "strings"):     # a malformed tag raises here, once
            features_of = {tag: FeatureBundle.from_tag(string(tag >> 1)) for tag in set(tags)}
        standalone_of = {tag: tag & 1 == 1 for tag in features_of}
        with _ids_below(n_strings, "payload string id", "strings"):     # tuple.__new__: no Python-level call per record
            payloads = list(map(tuple.__new__, repeat(Payload), zip(payload_rewrites, map(string, codes),
                                map(features_of.__getitem__, tags), map(standalone_of.__getitem__, tags))))
        with _ids_below(n_payloads, "setref.payload_id", "payloads"):
            members = map(payloads.__getitem__, refs)
            set_contents = [tuple(islice(members, n)) for n in set_lens]
        with _ids_below(n_sets, "tupleref.set_id", "payload sets"):
            members = map(set_contents.__getitem__, tuple_refs)
            tuple_contents = [tuple(islice(members, n)) for n in tuple_lens]
        with _ids_below(n_tuples, "token.tuple_id", "tuples"):
            token_tuples = list(map(tuple_contents.__getitem__, token_ids))
        if sum(map(len, token_tuples)) != n_forms:
            raise ValueError(f"corrupt dictionary: the tokens' tuples do not hold the {n_forms} forms")
        return cls(arcs, list(map((1).__and__, shapes)), list(chain.from_iterable(token_tuples)))

    def save(self, path) -> int:
        """Write the artifact; returns its size in bytes."""
        data = self.to_bytes()
        with open(path, "wb") as fh:
            return fh.write(data)

    @classmethod
    def load(cls, path) -> "FormDictionary":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


_NO_SKIPS = ((), {})


class SkipTable(dict):
    """Per state, made on first lookup, ``(word_ends, moves)`` of the states
    that one or more of its diacritic arcs lead to: the (rank offset,
    skipped diacritics) of each final one, and per label the (target, rank
    offset, skipped) of each arc leaving one.  States without a diacritic
    arc share one empty entry.  It holds no reference to the dictionary."""

    def __init__(self, arcs, finals):
        self.arcs, self.finals = arcs, finals

    def __missing__(self, state: int) -> tuple:
        arcs, diacritics, word_ends, moves = self.arcs, bn.DIACRITICS, [], {}
        skips = [(target, offset, label) for label, (target, offset) in arcs[state].items() if label in diacritics]
        for at, rank, skipped in skips:     # grows as it goes: the automaton is acyclic
            if self.finals[at]:
                word_ends.append((rank, skipped))
            for label, (target, offset) in arcs[at].items():
                moves.setdefault(label, []).append((target, rank + offset, skipped))
                if label in diacritics:
                    skips.append((target, rank + offset, skipped + label))
        entry = self[state] = (tuple(word_ends), moves) if skips else _NO_SKIPS
        return entry


@contextmanager
def _ids_below(count: int, field: str, what: str):
    """An id out of range in the block is a corrupt artifact: ValueError
    naming the field, not IndexError."""
    try:
        yield
    except IndexError:
        raise ValueError(f"corrupt dictionary: a {field} is not below the {count} {what}") from None


def _arc_tables(shapes, labels, targets) -> tuple[list[dict[str, tuple[int, int]]], list[int]]:
    """Per state, its arcs, label -> (target, rank offset), and the words
    accepted in its subtree: its own word and its targets'.  A state's shape
    gives its finality, how many of its arcs take a target from ``targets``
    and whether one more, flagged, leads to the state just below; ``labels``
    is an iterator of every arc's label.  Each target must come before its
    source, which rules out a cycle, so taken in order every state's targets
    are counted before it is; and labels must strictly increase within a
    state, as a repeated one would hide an arc.  A state that breaks either
    is a corrupt artifact: ValueError."""
    kinds = {shape: (shape & 1, (shape >> 2) - (shape >> 1 & 1), shape & 2) for shape in set(shapes)}
    arcs, counts, edges = [], [], zip(labels, targets)
    for state, (offset, explicit, flagged) in enumerate(map(kinds.__getitem__, shapes)):
        table, last = {}, ""
        if explicit:    # most flagged states have no other arc: no islice for them
            for label, target in islice(edges, explicit):
                if label <= last:
                    raise ValueError("corrupt dictionary: a state's trans.labels do not strictly increase")
                if target >= state:
                    raise ValueError("corrupt dictionary: a trans.target is not below the state it leaves")
                table[label] = (target, offset)
                offset += counts[target]
                last = label
        if flagged:
            label = next(labels)
            if label <= last:
                raise ValueError("corrupt dictionary: a state's trans.labels do not strictly increase")
            table[label] = (state - 1, offset)
            offset += counts[-1]
        arcs.append(table)
        counts.append(offset)
    return arcs, counts


def dictionary_key(form) -> str:
    """Automaton key of a generated form (definites drop the article)."""
    if form.features.definiteness == "D":
        return form.surface[2:]
    return form.surface


def __getattr__(name: str):     # bench/tracing.py reads compile_lexicon here
    if name != "compile_lexicon":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .compiler import compile_lexicon
    return compile_lexicon
