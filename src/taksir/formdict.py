"""Compiled full-form dictionary: a minimized acyclic automaton.

The automaton is the minimal deterministic acyclic automaton of the surface
strings alone, made a perfect hash (Lucchesi & Kowaltowski 1993): each arc
carries a rank offset, the number of forms that end at its source state or
below its smaller-labelled sibling arcs, so the offsets along a matched path
sum to the form's lexicographic rank, which indexes its analysis payload
list.  Suffix tails stay shared across the whole lexicon, which is what
makes the serialized artifact small.  It is built in one pass over the
sorted forms (Daciuk, Mihov, Watson & Watson 2000), so construction never
holds more than the minimal automaton plus one word's path.  States are
numbered as they are registered, which makes the numbering canonical.

Every compiled form comes in a unit: the rows of an entry's singular row
tables, or of its plural's, each filled from its stem, all starting with
one base.  Where no other form starts with a unit's base, the states below
the base depend only on the unit's suffixes, so the pass registers that
sub-automaton once per distinct suffix tuple and takes the base as one
item whose last arc leads into it, built where that arc is added; any
other unit is expanded into its forms.

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
from operator import itemgetter

from . import bn
from .errors import TaksirError
from .features import FeatureBundle
from .rewrite import Rewrite, RewritePool, common_prefix_length, cut_pieces, past_the_form, radical_rewrite

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


class Unit:
    """The forms of one or more row tables, each filled from a stem, after
    the stems' common prefix up to the tables' largest cuts: ``head``,
    their common prefix, then one of ``tails``, sorted and distinct, each
    carrying ``lists[i]``.  ``parts`` are ``(end, table, payloads)``,
    ``end`` the stem past that prefix.  Every entry whose stems have the
    same tables, ends and payloads shares the unit."""

    __slots__ = ("head", "tails", "lists")

    def __init__(self, parts):
        by_suffix: dict[str, list[Payload]] = {}
        for end, table, payloads in parts:
            for row, payload in zip(table.rows, payloads):
                by_suffix.setdefault(end[: len(end) - row[0]] + row[1], []).append(payload)
        suffixes = sorted(by_suffix)
        n = common_prefix_length(suffixes[0], suffixes[-1])
        self.head = suffixes[0][:n]
        self.tails = tuple(suffix[n:] for suffix in suffixes)
        self.lists = [by_suffix[suffix] for suffix in suffixes]


class FormDictionary:
    """Minimal acyclic automaton plus rank-indexed analysis payloads."""

    def __init__(self, arcs, finals, payloads_by_rank):
        self.arcs = arcs                      # per state: {label: (target, rank offset)}, label-sorted
        self.finals = finals                  # per state: 1 where a word ends, else 0
        self.payloads_by_rank = payloads_by_rank
        self.root = len(arcs) - 1             # states come in postorder: every target before its source

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, units) -> "FormDictionary":
        """One pass over the sorted forms (Daciuk, Mihov, Watson & Watson 2000).

        Only the previous word's path is unregistered.  Where the next word
        leaves it, the states below the divergence are frozen, deepest first:
        each is registered under its (final, arcs) signature, merging it with
        any equal state, and numbered as it is registered: after the states
        below it and its smaller siblings' subtrees, which is the canonical
        postorder of a depth-first walk, children in label order.

        ``units`` are ``(base, Unit)`` pairs, a unit holding the forms of
        one or more row tables (an entry's masculine and feminine singular
        make one).  A non-empty base that starts no other form (no other
        base, equal ones included, and no form of a unit whose base is a
        proper prefix of it) is one item whose last arc leads into the
        sub-automaton of the unit's tails, registered once per distinct
        tuple of tails.  Other units are expanded into words, as is one
        with a tied set or a rewrite that reaches past a form; an expanded
        form shorter than its set's reach is refused.

        Forms with equal payload sets share one payload tuple.  ``units``
        is any iterable, read once and never changed, and no ``Unit``
        outlives the isolation pass."""
        shared: dict[frozenset, tuple] = {}     # per distinct set: the tuple, its reach and whether it is tied

        def payload_set(members) -> tuple:
            members = frozenset(members)
            known = shared.get(members)
            if known is None:
                payloads = tuple(sorted(members, key=Payload.sort_key))
                known = shared[members] = (payloads, *_reach_and_tie(payloads))
            return known

        def unit_sets(unit: Unit):
            """The unit's payload sets, the base length its rewrites need
            and its tails; None where a set is tied."""
            known = [payload_set(payloads) for payloads in unit.lists]
            if any(tied for _, _, tied in known):
                return None
            return (tuple(payloads for payloads, _, _ in known),
                    max(reach - len(t) for (_, reach, _), t in zip(known, unit.tails)), unit.tails)

        pairs = sorted(units, key=itemgetter(0))
        sets = {unit: unit_sets(unit) for unit in dict.fromkeys(unit for _, unit in pairs)}
        entries: dict[str, list | tuple] = {}           # expanded words, and isolated bases' unit_sets
        ancestors: list[tuple[str, Unit]] = []          # the earlier bases that are prefixes of this one
        for i, (base, unit) in enumerate(pairs):
            while ancestors and not base.startswith(ancestors[-1][0]):
                ancestors.pop()
            known = sets[unit]
            if (base and known and len(base) >= known[1]
                    and not (i + 1 < len(pairs) and pairs[i + 1][0].startswith(base))
                    and not any(t.startswith(base[len(b):]) for b, u in ancestors for t in u.tails)):
                entries[base] = known
            else:
                for tail, payloads in zip(unit.tails, unit.lists):
                    listed = entries.get(base + tail)
                    entries[base + tail] = payloads if listed is None else listed + payloads
            ancestors.append((base, unit))
        pairs = sets = ancestors = unit = None      # no Unit outlives the isolation pass

        # Two states merge iff finality and labelled successors agree: that
        # is right-language equality in an acyclic automaton.
        registry: dict[tuple, int] = {}
        min_trans: list[tuple] = []
        min_final: list[int] = []
        subs: dict[tuple, int] = {}     # per distinct tuple of tails: its sub-automaton

        def register(final: int, edges: list) -> int:
            signature = (final, tuple(edges))
            state = registry.get(signature)
            if state is None:
                state = registry[signature] = len(min_trans)
                min_trans.append(signature[1])
                min_final.append(final)
            return state

        def minimal(items) -> int:
            """The root of sorted ``(string, target)`` items: a word where
            the target is None, else a path whose last arc leads to the
            sub-automaton of the target, a tuple of tails, built (or found
            in ``subs``) where that arc is added: after the states it
            follows in postorder are frozen, before those it precedes."""
            # Per depth of the previous item's path: finality, and the arcs
            # to registered states, in label order (the arc to the next path
            # state is added when that state is frozen).
            path_final, path_edges, prev = [0], [[]], ""

            def freeze(depth: int) -> None:
                while len(path_edges) > depth + 1:
                    state = register(path_final.pop(), path_edges.pop())
                    path_edges[-1].append((prev[len(path_edges) - 1], state))

            for word, target in items:
                common = common_prefix_length(prev, word)
                freeze(common)
                grow = len(word) - common - (target is not None)
                path_final.extend([0] * grow)
                path_edges.extend([[] for _ in range(grow)])
                if target is None:
                    path_final[-1] = 1
                else:
                    if target not in subs:
                        subs[target] = minimal((tail, None) for tail in target)
                    path_edges[-1].append((word[-1], subs[target]))
                prev = word
            freeze(0)
            return register(path_final[0], path_edges[0])

        payloads_by_rank: list[tuple] = []
        orders: dict[tuple, tuple] = {}

        def ranked():
            """The items in rank order, ranking payload sets on the way."""
            for key in sorted(entries):
                value = entries[key]
                if type(value) is tuple:
                    payloads_by_rank.extend(value[0])
                    yield key, value[2]
                    continue
                payloads, reach, tied = payload_set(value)
                if reach > len(key):
                    raise past_the_form(next(p.rewrite for p in payloads if p.rewrite.reach > len(key)), key)
                if tied:
                    payloads = _form_order(key, payloads)
                    payloads = orders.setdefault(payloads, payloads)
                payloads_by_rank.append(payloads)
                yield key, None

        minimal(ranked())
        # Freed before the arc tables are built; minimal calls itself, so
        # only deleting it frees what it holds without the cycle collector.
        del registry, shared, entries, subs, minimal
        arcs, _ = _arc_tables([final | len(e) << 2 for final, e in zip(min_final, min_trans)],
                              (ch for e in min_trans for ch, _ in e), [t for e in min_trans for _, t in e])
        return cls(arcs, min_final, payloads_by_rank)

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

    def to_bytes(self) -> bytes:
        arcs, sets, tuples, payload_ids, rewrites, strings = self.arcs, {}, {}, {}, {}, {}
        # One column at a time, each listed and encoded before the next; set,
        # tuple, payload, rewrite and string ids are assigned in first-use order.
        out = bytearray(_HEADER.size)     # the header is packed in last
        nexts = [bool(t) and next(reversed(t.values()))[0] == state - 1 for state, t in enumerate(arcs)]
        out += _column(final | nxt << 1 | len(t) << 2 for final, nxt, t in zip(self.finals, nexts, arcs))
        out += _column(ord(ch) for t in arcs for ch in t)
        out += _column(target for t, nxt in zip(arcs, nexts) for target, _ in islice(t.values(), len(t) - nxt))
        # Forms share set tuples, so each distinct object is hashed once, in first-use order.
        set_of = {key: sets.setdefault(payloads, len(sets))
                  for key, payloads in {id(payloads): payloads for payloads in self.payloads_by_rank}.items()}
        set_ids = [set_of[id(payloads)] for payloads in self.payloads_by_rank]
        tokens = [tuples.setdefault(t, len(tuples)) for t in _tokens(arcs, self.finals, set_ids)]
        out += _column(tokens)
        out += _column(map(len, tuples))
        out += _column(set_id for t in tuples for set_id in t)
        out += _column(map(len, sets))
        out += _column(payload_ids.setdefault(p, len(payload_ids)) for payloads in sets for p in payloads)
        # Tags and codes are few: interned first, they keep narrow ids.
        out += _column(2 * strings.setdefault(p.features.tag(), len(strings)) + p.standalone for p in payload_ids)
        out += _column(strings.setdefault(p.code, len(strings)) for p in payload_ids)
        out += _column(rewrites.setdefault(p.rewrite, len(rewrites)) for p in payload_ids)
        out += _column(len(r) for r in rewrites)
        out += _column(start for r in rewrites for start, _, _ in r)
        out += _column(2 * stop if stop >= 0 else 2 * ~stop + 1 for r in rewrites for _, stop, _ in r)
        out += _column(strings.setdefault(literal, len(strings)) for r in rewrites for _, _, literal in r)
        out += _column(len(s.encode("utf-8")) for s in strings)
        out += "".join(strings).encode("utf-8")
        _HEADER.pack_into(out, 0, MAGIC, VERSION, len(arcs), sum(map(len, arcs)), len(set_ids), len(tokens),
                          len(tuples), sum(map(len, tuples)), len(sets), sum(map(len, sets)), len(payload_ids),
                          len(rewrites), sum(map(len, rewrites)), len(strings))
        return bytes(out)

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


def _column(values) -> bytes:
    """One column: the struct code of the narrowest width that holds every
    value, then the values at that width."""
    values = list(values)
    top = max(values, default=0)
    code = next(c for c in _WIDTHS if top >> 8 * array(c).itemsize == 0)
    column = array(code, values)
    if sys.byteorder == "big":
        column.byteswap()
    return code.encode() + column.tobytes()


def _tokens(arcs, finals, set_ids):
    """The ranks' set ids cut into tokens by a walk from the root in rank
    order: a state that two arcs enter (never the root) and that counts two
    or more words is one token of all its words, not descended into; any
    other final state is a token of its own word."""
    indegree = Counter(target for table in arcs for target, _ in table.values())
    stack = [(len(arcs) - 1, 0, len(set_ids))]
    while stack:
        state, rank, count = stack.pop()
        if count >= 2 and indegree[state] >= 2:
            yield tuple(set_ids[rank:rank + count])
            continue
        if finals[state]:
            yield (set_ids[rank],)
        for target, offset in reversed(arcs[state].values()):
            stack.append((target, rank + offset, count - offset))
            count = offset      # the previous arc's target counts up to this one's offset


def _form_order(form: str, payloads: tuple) -> tuple:
    """Payloads of one code and tag come in the order of their lemmas as
    the form sees them: the longer the prefix a lemma shares with the form,
    the sooner, and then alphabetically."""
    def key(p):
        lemma = p.rewrite.apply(form)
        return (p.code, p.features.tag(), -common_prefix_length(form, lemma), lemma, not p.standalone)

    return tuple(sorted(payloads, key=key))


def _reach_and_tie(payloads) -> tuple[int, bool]:
    """The reach of a sorted payload set's rewrites, and whether two of its
    payloads share a code and features."""
    reach, tied, code, features = 0, False, None, None
    for rewrite, next_code, next_features, _ in payloads:
        reach = max(reach, rewrite.reach)
        tied = tied or (next_code == code and next_features == features)
        code, features = next_code, next_features
    return reach, tied


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


Failure = tuple["LexicalEntry", TaksirError]


def compile_lexicon(lex: "Iterable[LexicalEntry]", registry: "ClassRegistry") -> tuple[FormDictionary, list[Failure]]:
    """Generate every entry's paradigm and build the automaton.  Entries
    whose generation fails are reported with their error, not fatal; the
    dictionary is built from the rest.  ``lex`` is any iterable of entries,
    a ``LexiconFile`` among them, and is never changed.  An iterator's
    entries are freed once the fill has read them, the units once ``build``
    has."""
    units, failures = fill_lexicon(lex, registry)
    units = iter(units)     # build's sort then holds the only list of them
    return FormDictionary.build(units), failures


def fill_lexicon(lex: "Iterable[LexicalEntry]", registry: "ClassRegistry") -> tuple[list[tuple[str, Unit]], list[Failure]]:
    """The ``(base, Unit)`` pairs of every entry's paradigm for
    ``FormDictionary.build``, and ``(entry, error)`` per failed entry.
    ``lex`` is iterated once and never changed; no entry is kept but a
    failed one.

    Each stem of an entry is filled into its row table: a form's key is
    the stem with the row's cut and tail.  A singular stem (the lemma, or
    the feminine in -ap) extends its lemma, so every key of its table keeps
    the lemma up to the row's cut, and a row's one-piece rewrite depends
    only on the code, the row and what follows that prefix in the stem and
    in the lemma.  The payloads of a table filled from such a stem are
    therefore made once per (code, table, stem end, lemma end).

    The broken-plural stem gets a positional stem-to-lemma rewrite from
    where its class template put each radical (``radical_rewrite``); the
    entries of a class that spell their pattern letters alike get the same
    one, whatever their radicals.  A row keeps that rewrite, except that
    letters its cut removes are spelled out, so the payloads of a table
    are made once per (code, table, rewrite, stem length, stem end).

    The tables of the singular stems make one ``Unit``, and the plural's
    another, one per tuple of payload keys: the stems up to the tables'
    largest cut are the unit's base (the masculine stem, which the feminine
    extends, leads), and the keys fix every letter after it.  The end tables
    of ``paradigm._table`` live in ``ends`` for this fill.  A unit with an
    empty base, from a table that cuts its whole stem, is not kept for reuse:
    its keys hold whole stems and lemmas, so it cannot repeat.
    """
    from .paradigm import stem_tables   # here, so that loading a dictionary never imports the generator
    units: list[tuple[str, Unit]] = []
    records: dict[tuple, Payload] = {}     # one Payload per distinct record
    rewrites = RewritePool()
    filled: dict[tuple, Unit] = {}
    ends: dict[tuple, "RowTable"] = {}
    failures: list[Failure] = []

    def fill(stem: str, table, lemma: str, code: str, rewrite) -> list[Payload]:
        """The payload of each row; ``rewrite`` is the plural's, None for a singular."""
        payloads, keep = [], len(stem)
        for cut, tail, features, standalone in table.rows:
            kept, tag = keep - cut, features.tag()
            if rewrite is None:
                # A word that keeps more of the stem than the lemma spells
                # shares all of the lemma.  The record is (drop, tail, ...),
                # its rewrite made only if new.
                lcp = len(lemma) if len(lemma) < kept else common_prefix_length(stem[:kept] + tail, lemma)
                record = (kept + len(tail) - lcp, lemma[lcp:], code, tag, standalone)
            else:
                pieces = rewrite if kept >= rewrite.reach else cut_pieces(rewrite, stem, lemma, kept, tail)
                record = (pieces, code, tag, standalone)
            payload = records.get(record)
            if payload is None:
                pieces = ((0, ~record[0], record[1]),) if rewrite is None else record[0]
                payload = records[record] = Payload(rewrites[pieces], code, features, standalone)
            payloads.append(payload)
        return payloads

    for entry in lex:
        try:
            singulars, (bp_stem, bp_table), cls = stem_tables(entry, registry, ends)
        except TaksirError as exc:
            failures.append((entry, exc))
            continue
        lemma, code = entry.lemma, entry.code.text
        singular = []   # (stem, table, key, rewrite) of each table
        for stem, table in singulars:
            prefix = min(len(lemma), len(stem) - table.cut)
            singular.append((stem, table, (code, table, stem[prefix:], lemma[prefix:]), None))
        rewrite, keep = rewrites[radical_rewrite(entry, bp_stem, *cls.radical_copies)], len(bp_stem)
        plural = [(bp_stem, bp_table, (code, bp_table, rewrite, keep, bp_stem[keep - bp_table.cut:]), rewrite)]
        for group in (singular, plural):
            base = min(len(stem) - table.cut for stem, table, _, _ in group)
            key = tuple(part[2] for part in group)
            unit = filled.get(key)
            if unit is None:
                unit = Unit([(stem[base:], table, fill(stem, table, lemma, code, rewrite))
                             for stem, table, _, rewrite in group])
                if base:
                    filled[key] = unit
            units.append((group[0][0][:base] + unit.head, unit))
    return units, failures
