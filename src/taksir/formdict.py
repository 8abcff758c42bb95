"""Compiled full-form dictionary: a minimized acyclic automaton.

The automaton is the minimal deterministic acyclic automaton of the surface
strings alone, made a perfect hash (Lucchesi & Kowaltowski 1993): each arc
carries a rank offset, the number of forms that end at its source state or
below its smaller-labelled sibling arcs, so the offsets along a matched path
sum to the form's lexicographic rank, which indexes its analysis payload
list.  Suffix tails stay shared across the whole lexicon, which is what
makes the serialized artifact small.  It is built in one pass over the
sorted forms (Daciuk, Mihov, Watson & Watson 2000), so construction never
holds more than the minimal automaton plus one word's path.

Payloads do not name entries directly: they hold the feature tag, the
inflectional code and a rewrite that reconstructs the lemma from the matched
surface (drop k characters, append a tail).  Entries of the same class
therefore share payload records, and entry ids are recovered from
(lemma, code) when the dictionary is loaded.  In memory, built or loaded,
each distinct record is one ``Payload`` tuple and forms with equal payload
sets share one tuple of them, so serialising resolves each set once.

Definite cells are stored without the article: Al- is a determiner segment
(the segmenter restores it), so a definite surface in the automaton is the
noun part only, carrying the D feature.

One iterative walk serves both lookup modes.  In diacritic-optional mode it
may also skip dictionary diacritics the query omits, but a diacritic present
in the query must match the dictionary exactly; strict mode never skips.
"""

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from . import bn
from .classes import ClassRegistry
from .lexicon import LexiconFile
from .paradigm import FeatureBundle, inflect

MAGIC = b"TKDC"
VERSION = 1


class Payload(NamedTuple):
    """Analysis record attached to a form (entry-independent)."""

    drop: int           # characters to drop from the surface ...
    append: str         # ... and tail to append, giving the lemma
    code: str           # full inflectional code text
    tag: str            # feature tag, e.g. N:q:i:G
    standalone: bool    # usable without an attached pronoun

    def sort_key(self):
        return (self.code, self.tag, self.drop, self.append, not self.standalone)


@dataclass(frozen=True)
class Analysis:
    surface: str        # the dictionary form that matched
    lemma: str
    code: str
    features: FeatureBundle
    standalone: bool
    entry_id: int

    def line(self) -> str:
        return f"{self.surface}\t{self.lemma}\t{self.code}\t{self.features.tag()}"


class FormDictionary:
    """Minimal acyclic automaton plus rank-indexed analysis payloads."""

    def __init__(self, arcs, finals, counts, payloads_by_rank):
        self.arcs = arcs                      # per state: {label: (target, rank offset)}, label-sorted
        self.finals = finals                  # per state: bool
        self.counts = counts                  # per state: words accepted in its subtree
        self.payloads_by_rank = payloads_by_rank
        self.root = 0
        self._entry_ids: dict[tuple[str, str], int] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, words: dict[str, list["Payload"]]) -> "FormDictionary":
        """One pass over the sorted words (Daciuk, Mihov, Watson & Watson 2000).

        Only the previous word's path is unregistered.  Where the next word
        leaves it, the states below the divergence are frozen, deepest first:
        each is registered under its (final, arcs) signature, merging it with
        any equal state, and its subtree word count is taken then.

        Forms with equal payload sets share one payload tuple."""
        # Two states merge iff finality and labelled successors agree: that
        # is right-language equality in an acyclic automaton.
        registry: dict[tuple, int] = {}
        min_trans: list[tuple] = []
        min_final: list[bool] = []
        min_counts: list[int] = []

        def register(final: bool, edges: list) -> int:
            signature = (final, tuple(edges))
            state = registry.get(signature)
            if state is None:
                state = registry[signature] = len(min_trans)
                min_trans.append(signature[1])
                min_final.append(final)
                min_counts.append(int(final) + sum(min_counts[t] for _, t in edges))
            return state

        # Per depth of the previous word's path: finality, and the arcs to
        # registered states, in label order (the arc to the next path state
        # is added when that state is frozen).
        path_final, path_edges, prev = [False], [[]], ""

        def freeze(depth: int) -> None:
            while len(path_edges) > depth + 1:
                state = register(path_final.pop(), path_edges.pop())
                path_edges[-1].append((prev[len(path_edges) - 1], state))

        ordered = sorted(words)
        for word in ordered:
            common = _common_prefix_length(prev, word)
            freeze(common)
            path_final.extend([False] * (len(word) - common))
            path_edges.extend([[] for _ in range(len(word) - common)])
            path_final[-1] = True
            prev = word
        freeze(0)
        root = register(path_final[0], path_edges[0])

        # Renumber breadth-first from the root so the artifact is canonical.
        order = [root]
        seen = {root}
        for state in order:
            for _, target in min_trans[state]:
                if target not in seen:
                    seen.add(target)
                    order.append(target)
        remap = {old: new for new, old in enumerate(order)}
        finals = [min_final[old] for old in order]
        counts = [min_counts[old] for old in order]
        arcs = [_arc_table(min_final[old], min_counts[old], ((ch, remap[t]) for ch, t in min_trans[old]), counts)
                for old in order]
        shared: dict[frozenset, tuple] = {}
        payloads_by_rank = []
        for w in ordered:
            members = frozenset(words[w])
            payloads = shared.get(members)
            if payloads is None:
                payloads = shared[members] = tuple(sorted(members, key=Payload.sort_key))
            payloads_by_rank.append(payloads)
        return cls(arcs, finals, counts, payloads_by_rank)

    def attach_lexicon(self, lex: LexiconFile) -> None:
        self._entry_ids = {e.key: e.entry_id for e in lex.entries}

    # -- lookup ------------------------------------------------------------

    def _analysis(self, path: str, payload: Payload) -> Analysis:
        lemma = path[: len(path) - payload.drop] + payload.append
        entry_id = self._entry_ids.get((lemma, payload.code), -1)
        return Analysis(path, lemma, payload.code, FeatureBundle.from_tag(payload.tag), payload.standalone, entry_id)

    def lookup(self, surface: str, mode: str = "strict") -> list[Analysis]:
        """Analyses of a surface string; empty list when absent.

        strict: exact traversal.  diacritic-optional: dictionary diacritics
        may be skipped, but any diacritic present in the query must match.
        """
        if mode not in ("strict", "diacritic-optional"):
            raise ValueError(f"unknown lookup mode {mode!r}")
        skip = mode == "diacritic-optional"
        arcs, finals, diacritics, end = self.arcs, self.finals, bn.DIACRITICS, len(surface)
        # Ranks of the matched dictionary forms.  Skipping can reach one form
        # along several alignments with the query; each form counts once.
        matched: dict[str, int] = {}
        stack = [(self.root, 0, 0, "")]
        while stack:
            state, rank, qi, path = stack.pop()
            table = arcs[state]
            if qi < end:
                arc = table.get(surface[qi])
                if arc is not None:
                    stack.append((arc[0], rank + arc[1], qi + 1, path + surface[qi]))
            elif finals[state]:
                matched[path] = rank
            if skip:
                for label, (target, offset) in table.items():
                    if label in diacritics:
                        stack.append((target, rank + offset, qi, path + label))
        # A form's payloads are already in (code, tag) order.
        return [self._analysis(path, p) for path in sorted(matched) for p in self.payloads_by_rank[matched[path]]]

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
                lines.append(self._analysis(surface, p).line())
        return "\n".join(lines) + ("\n" if lines else "")

    # -- stats -------------------------------------------------------------

    def stats(self, serialized_bytes: int | None = None) -> dict:
        """Sizes of the dictionary.  ``listing_bytes`` is the UTF-8 size of
        ``dump_text()``, counted without building it; ``serialized_bytes`` is
        the caller's when known (``save`` returns it), else measured."""
        listing = 0
        for surface, payloads in self.forms():
            surface_bytes = len(surface.encode("utf-8"))
            for p in payloads:
                # surface TAB lemma TAB code TAB tag NEWLINE
                lemma_bytes = len(surface[: len(surface) - p.drop].encode("utf-8")) + len(p.append.encode("utf-8"))
                listing += surface_bytes + lemma_bytes + len(p.code.encode("utf-8")) + len(p.tag.encode("utf-8")) + 4
        return {
            "forms": len(self.payloads_by_rank),
            "analyses": sum(len(p) for p in self.payloads_by_rank),
            "states": len(self.arcs),
            "transitions": sum(len(t) for t in self.arcs),
            "serialized_bytes": len(self.to_bytes()) if serialized_bytes is None else serialized_bytes,
            "listing_bytes": listing,
        }

    # -- serialization -----------------------------------------------------
    #
    # Little-endian byte layout, in order:
    #   header:  magic "TKDC", u16 version, u32 states, u32 transitions,
    #            u32 forms, u32 payload sets, u32 set refs, u32 payloads,
    #            u32 strings
    #   state:   u32 subtree word count, u8 flags (bit0 final), u8 fanout
    #   trans:   u8 label, u32 target            (per state, label-sorted)
    #   form:    u16 payload-set id              (rank order)
    #   set:     u8 length                       (ids assigned in first-use order)
    #   setref:  u16 payload id                  (concatenated set contents)
    #   payload: u16 append string id, u16 code string id, u16 tag string id,
    #            u8 drop, u8 flags (bit0 standalone)
    #   string:  u16 byte length, utf-8 bytes    (ids in first-use order)
    #
    # Rank offsets are not stored: loading recomputes them from the counts.

    def to_bytes(self) -> bytes:
        strings: dict[str, int] = {}
        blob = bytearray()

        def intern(s: str) -> int:
            if s not in strings:
                strings[s] = len(strings)
                raw = s.encode("utf-8")
                blob.extend(_pack("<H", "string.length", len(raw)))
                blob.extend(raw)
            return strings[s]

        payload_ids: dict[Payload, int] = {}
        payload_rows = bytearray()

        def payload_id(p: Payload) -> int:
            if p not in payload_ids:
                payload_ids[p] = len(payload_ids)
                payload_rows.extend(_pack(
                    "<HHHBB", "payload.append_id payload.code_id payload.tag_id payload.drop payload.flags",
                    intern(p.append), intern(p.code), intern(p.tag), p.drop, 1 if p.standalone else 0,
                ))
            return payload_ids[p]

        sets: dict[tuple[Payload, ...], int] = {}
        set_lens = bytearray()
        set_refs = bytearray()
        form_rows = bytearray()
        for payloads in self.payloads_by_rank:
            set_id = sets.get(payloads)
            if set_id is None:
                set_id = sets[payloads] = len(sets)
                set_lens.extend(_pack("<B", "set.length", len(payloads)))
                for p in payloads:
                    set_refs.extend(_pack("<H", "setref.payload_id", payload_id(p)))
            form_rows.extend(_pack("<H", "form.set_id", set_id))

        states = bytearray()
        trans = bytearray()
        for state, table in enumerate(self.arcs):
            states.extend(_pack("<IBB", "state.count state.flags state.fanout",
                                self.counts[state], 1 if self.finals[state] else 0, len(table)))
            for ch, (target, _) in table.items():
                trans.extend(_pack("<BI", "trans.label trans.target", ord(ch), target))

        header = struct.pack(
            "<4sHIIIIIII",
            MAGIC, VERSION,
            len(self.arcs), len(trans) // 5, len(self.payloads_by_rank),
            len(sets), len(set_refs) // 2, len(payload_ids), len(strings),
        )
        return bytes(header + states + trans + form_rows + set_lens + set_refs + payload_rows + blob)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FormDictionary":
        view, off = memoryview(data), 0

        def take(size: int) -> memoryview:
            nonlocal off
            start, off = off, off + size
            if off > len(data):
                raise ValueError("truncated dictionary")
            return view[start:off]

        def records(fmt: str, n: int):
            """The next n fixed-size records, decoded lazily."""
            return struct.iter_unpack(fmt, take(struct.calcsize(fmt) * n))

        ((magic, version, n_states, n_trans, n_forms, n_sets, n_refs, n_payloads, n_strings),) = records("<4sHIIIIIII", 1)
        if magic != MAGIC:
            raise ValueError("not a compiled dictionary (bad magic bytes)")
        if version != VERSION:
            raise ValueError(f"unsupported dictionary version {version}")
        state_rows = list(records("<IBB", n_states))
        trans_rows = records("<BI", n_trans)
        form_rows = records("<H", n_forms)
        set_lens = records("<B", n_sets)
        ref_rows = records("<H", n_refs)
        payload_rows = records("<HHHBB", n_payloads)

        string_table = []
        for _ in range(n_strings):
            length = int.from_bytes(take(2), "little")
            string_table.append(str(take(length), "utf-8"))
        if off != len(data):
            raise ValueError(f"trailing bytes after the dictionary: {len(data) - off}")

        counts = [count for count, _, _ in state_rows]
        finals = [bool(flags & 1) for _, flags, _ in state_rows]
        if not counts or counts[0] != n_forms:
            raise ValueError(f"corrupt dictionary: the root does not count the {n_forms} forms")
        if sum(fanout for _, _, fanout in state_rows) != n_trans:
            raise ValueError(f"corrupt dictionary: state fanouts do not sum to the {n_trans} transitions")
        with _ids_below(n_states, "trans.target", "states"):
            arcs = [_arc_table(final, count, ((chr(label), target) for label, target in islice(trans_rows, fanout)), counts)
                    for final, (count, _, fanout) in zip(finals, state_rows)]

        with _ids_below(n_strings, "payload string id", "strings"):
            payloads = [
                Payload(drop, string_table[a], string_table[c], string_table[t], bool(flag & 1))
                for a, c, t, drop, flag in payload_rows
            ]
        for tag in {p.tag for p in payloads}:
            FeatureBundle.from_tag(tag)  # a malformed tag raises ValueError here, not at lookup
        set_lens = list(set_lens)
        if sum(n for (n,) in set_lens) != n_refs:
            raise ValueError(f"corrupt dictionary: set lengths do not sum to the {n_refs} set refs")
        with _ids_below(n_payloads, "setref.payload_id", "payloads"):
            refs = (payloads[pid] for (pid,) in ref_rows)
            set_contents = [tuple(islice(refs, n)) for (n,) in set_lens]
        with _ids_below(n_sets, "form.set_id", "payload sets"):
            payloads_by_rank = [set_contents[sid] for (sid,) in form_rows]
        return cls(arcs, finals, counts, payloads_by_rank)

    def save(self, path) -> int:
        """Write the artifact; returns its size in bytes."""
        data = self.to_bytes()  # before opening: a format overflow leaves no file behind
        with open(path, "wb") as fh:
            return fh.write(data)

    @classmethod
    def load(cls, path, lexicon: LexiconFile | None = None) -> "FormDictionary":
        with open(path, "rb") as fh:
            d = cls.from_bytes(fh.read())
        if lexicon is not None:
            d.attach_lexicon(lexicon)
        return d


def _pack(fmt: str, fields: str, *values: int) -> bytes:
    """One record of unsigned fields, named in ``fields``; a value too wide
    for its v1 field raises ValueError naming the field and its limit."""
    try:
        return struct.pack(fmt, *values)
    except struct.error:
        for name, code, value in zip(fields.split(), fmt[1:], values):
            limit = 256 ** struct.calcsize(code) - 1
            if not 0 <= value <= limit:
                raise ValueError(f"{name} {value} exceeds the format v1 limit of {limit}") from None
        raise


def _common_prefix_length(a: str, b: str) -> int:
    # A plain loop: os.path.commonprefix costs about four times as much on
    # these short strings.
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


@contextmanager
def _ids_below(count: int, field: str, what: str):
    """An id out of range in the block is a corrupt artifact: ValueError
    naming the field, not IndexError."""
    try:
        yield
    except IndexError:
        raise ValueError(f"corrupt dictionary: a {field} is not below the {count} {what}") from None


def _arc_table(final: bool, count: int, edges, counts: list[int]) -> dict[str, tuple[int, int]]:
    """One state's arcs, label -> (target, rank offset); counts are per-state
    subtree word counts.  A state whose ``count`` is not its own word plus
    its targets' is corrupt: its ranks could address forms that do not exist."""
    offset, table = int(final), {}
    for label, target in edges:
        table[label] = (target, offset)
        offset += counts[target]
    if offset != count:
        raise ValueError(f"corrupt dictionary: a state.count of {count} where its arcs hold {offset} words")
    return table


def dictionary_key(form) -> str:
    """Automaton key of a generated form (definites drop the article)."""
    if form.features.definiteness == "D":
        return form.surface[2:]
    return form.surface


def compile_lexicon(lex: LexiconFile, registry: ClassRegistry) -> tuple[FormDictionary, list[str]]:
    """Generate every entry's paradigm and build the automaton.

    Entries whose generation fails are reported, not fatal; the dictionary is
    built from the rest.
    """
    words: dict[str, list[Payload]] = {}
    payloads: dict[tuple, Payload] = {}     # one Payload per distinct record
    failures: list[str] = []
    for entry in lex.entries:
        try:
            forms = inflect(entry, registry)
        except Exception as exc:  # noqa: BLE001 - reported per entry
            failures.append(f"{entry.lemma},{entry.code}: {exc}")
            continue
        lemma, code = entry.lemma, entry.code.text
        for form in forms:
            key = dictionary_key(form)
            if key.startswith(lemma):
                drop, append = len(key) - len(lemma), ""
            else:
                lcp = _common_prefix_length(key, lemma)
                drop, append = len(key) - lcp, lemma[lcp:]
            record = (drop, append, code, form.features.tag(), form.standalone)
            payload = payloads.get(record)
            if payload is None:
                payload = payloads[record] = Payload(*record)
            words.setdefault(key, []).append(payload)
    d = FormDictionary.build(words)
    d.attach_lexicon(lex)
    return d, failures
