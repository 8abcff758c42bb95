"""The writer: builds a ``taksir.formdict.FormDictionary`` in one pass over
the sorted forms (Daciuk, Mihov, Watson & Watson 2000), holding only the
minimal automaton and one word's path, and writes the artifact laid out as
``taksir.formdict`` documents; reading a dictionary never imports it.

Every compiled form comes in a unit: the rows of an entry's singular row
tables, or of its plural's, each filled from its stem, all starting with
one base.  Where no other form starts with a unit's base, the states below
the base depend only on the unit's suffixes, so the pass registers that
sub-automaton once per distinct suffix tuple and takes the base as one
item whose last arc leads into it, built where that arc is added; any
other unit is expanded into its forms.
"""

import sys
from array import array
from collections import Counter
from itertools import islice
from operator import itemgetter

from .errors import TaksirError
from .formdict import _HEADER, _WIDTHS, MAGIC, VERSION, FormDictionary, Payload, _arc_tables
from .rewrite import Rewrite, past_the_form


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


def build(units) -> FormDictionary:
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
    return FormDictionary(arcs, min_final, payloads_by_rank)


def to_bytes(dictionary: FormDictionary) -> bytes:
    arcs, sets, tuples, payload_ids, rewrites, strings = dictionary.arcs, {}, {}, {}, {}, {}
    # One column at a time, each listed and encoded before the next; set,
    # tuple, payload, rewrite and string ids are assigned in first-use order.
    out = bytearray(_HEADER.size)     # the header is packed in last
    nexts = [bool(t) and next(reversed(t.values()))[0] == state - 1 for state, t in enumerate(arcs)]
    out += _column(final | nxt << 1 | len(t) << 2 for final, nxt, t in zip(dictionary.finals, nexts, arcs))
    out += _column(ord(ch) for t in arcs for ch in t)
    out += _column(target for t, nxt in zip(arcs, nexts) for target, _ in islice(t.values(), len(t) - nxt))
    # Forms share set tuples, so each distinct object is hashed once, in first-use order.
    set_of = {key: sets.setdefault(payloads, len(sets))
              for key, payloads in {id(payloads): payloads for payloads in dictionary.payloads_by_rank}.items()}
    set_ids = [set_of[id(payloads)] for payloads in dictionary.payloads_by_rank]
    tokens = [tuples.setdefault(t, len(tuples)) for t in _tokens(arcs, dictionary.finals, set_ids)]
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
    return FormDictionary.build(units), failures     # through the name bench/tracing.py wraps


def fill_lexicon(lex: "Iterable[LexicalEntry]", registry: "ClassRegistry") -> tuple[list[tuple[str, Unit]], list[Failure]]:
    """The ``(base, Unit)`` pairs of every entry's paradigm for ``build``,
    and ``(entry, error)`` per failed entry.  ``lex`` is iterated once and
    never changed; no entry is kept but a failed one.

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
    from .paradigm import stem_tables   # here, so that importing the writer never imports the generator
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


def common_prefix_length(a: str, b: str) -> int:
    # A plain loop: os.path.commonprefix costs about four times as much on
    # these short strings.
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class RewritePool(dict):
    """One Rewrite per distinct list of pieces, made on first lookup."""

    def __missing__(self, pieces: tuple) -> Rewrite:
        rewrite = self[pieces] = Rewrite(pieces)
        return rewrite


def cut_pieces(rewrite: Rewrite, stem: str, lemma: str, kept: int, tail: str) -> tuple:
    """The stem's rewrite for the word ``stem[:kept] + tail``: a copy past
    what the word shares with the stem becomes a literal of the letters it
    copied."""
    word = stem[:kept] + tail
    if word.startswith(stem[: rewrite.reach]):     # it keeps every copied letter
        return rewrite
    kept = common_prefix_length(word, stem)
    source, i = {}, 0       # lemma index -> stem index
    for start, stop, literal in rewrite:
        for at in range(start, min(stop, kept)):
            source[i + at - start] = at
        i += stop - start + len(literal)
    return _pieces(lemma, source)


def radical_rewrite(entry, stem: str, copies: tuple, length: int) -> tuple:
    """The pieces of the entry's own stem-to-lemma rewrite: each radical of
    the lemma that the plural keeps is copied from where the template put
    it (``copies`` and ``length``, the class's ``radical_copies``), every
    other letter of the lemma is a literal.  A radical is copied only where
    the stem spells it as the lemma does, so the pieces always give back
    the lemma.  A madda contraction shortens the stem and moves the
    radicals after it back, so each is looked for there too."""
    lemma, positions = entry.lemma, entry.sg_root.positions
    if "C" in lemma:    # radical positions count each madda C as four letters
        index = [i for i, c in enumerate(lemma) for _ in range(4 if c == "C" else 1)]
        positions = [index[p - 1] + 1 for p in positions]
    source: dict[int, int] = {}     # lemma index -> stem index
    for k, slot in copies:
        i = positions[k - 1] - 1
        for at in (slot, slot + len(stem) - length):
            if 0 <= at < len(stem) and stem[at] == lemma[i]:
                source.setdefault(i, at)
    return _pieces(lemma, source)


def _pieces(lemma: str, source: dict[int, int]) -> tuple:
    """The pieces that spell the lemma, copying each letter that ``source``
    maps to an index of the form and writing every other as a literal."""
    pieces: list[list] = []
    for i, letter in enumerate(lemma):
        at = source.get(i)
        if at is None:
            if pieces:
                pieces[-1][2] += letter
            else:
                pieces.append([0, 0, letter])
        elif pieces and pieces[-1][1] == at and not pieces[-1][2]:
            pieces[-1][1] += 1
        else:
            pieces.append([at, at + 1, ""])
    return tuple(map(tuple, pieces))
