import struct
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import strategies as st

from taksir import compile_lexicon, load_registry, load_seed
from taksir.codes import HAMZA
from taksir.features import FeatureBundle
from taksir.compiler import Unit
from taksir.formdict import FormDictionary, Payload
from taksir.lexicon import LexicalEntry
from taksir.rewrite import Rewrite


def tail(drop: int, append: str) -> Rewrite:
    """The one-piece rewrite: all but the last ``drop`` letters, then ``append``."""
    return Rewrite(((0, ~drop, append),))


PAYLOAD = Payload(tail(0, ""), "$N300-m-FvEvL-FuEuL-123", FeatureBundle.from_tag("N:q:i:G"), True)


def tagged(tag: str) -> Payload:
    """``PAYLOAD`` with the features of ``tag``."""
    return PAYLOAD._replace(features=FeatureBundle.from_tag(tag))


def word_units(words: dict[str, list[Payload]]) -> list[tuple[str, Unit]]:
    """The units of a dictionary built word by word: one per word, under an
    empty base, with head "" and the word as its one tail.  ``build``
    expands every unit with an empty base, so each form is ranked alone."""
    units = []
    for word, payloads in words.items():
        unit = Unit.__new__(Unit)
        unit.head, unit.tails, unit.lists = "", (word,), [list(payloads)]
        units.append(("", unit))
    return units


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(scope="session")
def seed(registry):
    return load_seed()


@pytest.fixture(scope="session")
def compiled(seed, registry):
    dictionary, failures = compile_lexicon(seed, registry)
    assert not failures, failures
    return dictionary


#: Consonants a strong radical may be replaced with: no weak letter, taa
#: marbuta or glottal-stop spelling.
STRONG = "btvjHxdJrzsMSDTZEgfqklmnh"


def _strong_slots(e):
    """Lemma indices of the strong radicals of an entry (a madda letter C
    stands for four positions of the expanded stem)."""
    index = [i for i, c in enumerate(e.lemma) for _ in range(4 if c == "C" else 1)]
    return sorted({index[pos - 1] for radical, pos in zip(e.sg_root.radicals, e.sg_root.positions)
                   if radical not in (HAMZA, "w", "y", "A", "Y")})


#: Each seed entry with the lemma indices of its strong radicals.
SEED_SLOTS = [(e, _strong_slots(e)) for e in load_seed().entries]


def seed_variant(choose):
    """A seed entry with its strong radicals redrawn; ``choose`` picks one
    item of a sequence."""
    e, slots = choose(SEED_SLOTS)
    lemma = list(e.lemma)
    for i in slots:
        lemma[i] = choose(STRONG)
    return LexicalEntry("".join(lemma), e.code)


@st.composite
def seed_variants(draw):
    """A seed entry with its strong radicals redrawn."""
    return seed_variant(lambda items: draw(st.sampled_from(items)))


def load_golden():
    """Rows of tests/data/golden_bp.tsv: (ref, lemma, code, expected, note)."""
    import pathlib

    rows = []
    path = pathlib.Path(__file__).parent / "data" / "golden_bp.tsv"
    for line in path.read_text("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        ref, lemma, code, expected, note = (line.split("\t") + [""])[:5]
        rows.append((ref, lemma, code, expected, note))
    return rows


#: The columns of a format v6 artifact in file order, each with the index of
#: the header count that gives its length (states, transitions, forms,
#: tokens, tuples, tuple refs, payload sets, set refs, payloads, rewrites,
#: rewrite pieces, strings).  The forms count has no column of its own, and
#: trans.target is shorter than the transitions count by the flagged states.
COLUMNS = (
    ("state.shape", 0), ("trans.label", 1), ("trans.target", 1),
    ("token.tuple_id", 3), ("tuple.length", 4), ("tupleref.set_id", 5), ("set.length", 6), ("setref.payload_id", 7),
    ("payload.tag", 8), ("payload.code_id", 8), ("payload.rewrite_id", 8),
    ("rewrite.length", 9), ("piece.start", 10), ("piece.stop", 10), ("piece.literal_id", 10), ("string.length", 11),
)

#: Id field -> (its column, the index of the header count it must stay below).
ID_FIELDS = {
    "trans.target": ("trans.target", 0),
    "token.tuple_id": ("token.tuple_id", 4),
    "tupleref.set_id": ("tupleref.set_id", 6),
    "setref.payload_id": ("setref.payload_id", 8),
    "payload.tag string id": ("payload.tag_id", 11),
    "payload string id": ("payload.code_id", 11),
    "payload.rewrite_id": ("payload.rewrite_id", 9),
    "piece.literal_id": ("piece.literal_id", 11),
}

HEADER = struct.Struct("<4sH12Q")

#: A format v1 artifact: the word "ab" with one payload.
V1_ARTIFACT = bytes.fromhex(
    "544b4443010003000000020000000100000001000000010000000100000003000000010000000001010000000001010000000100610100"
    "000062020000000000010000000001000200000100001700244e3330302d6d2d467645764c2d467545754c2d31323307004e3a713a693a47"
)

#: A format v2 artifact: the word "ab" with one payload.
V2_ARTIFACT = bytes.fromhex(
    "544b444302000300000000000000020000000000000001000000000000000100000000000000010000000000000001000000000000000300"
    "00000000000042010101420000014201010042616242010242004201420042004201420242004201420717004e3a713a693a47244e333030"
    "2d6d2d467645764c2d467545754c2d313233"
)

#: A format v3 artifact: the word "ab" with one payload.
V3_ARTIFACT = bytes.fromhex(
    "544b444303000300000000000000020000000000000001000000000000000100000000000000010000000000000001000000000000000100"
    "000000000000010000000000000003000000000000004201010142000001420101004261624201024200420142004200420142004201420142"
    "0042014202420717004e3a713a693a47244e3330302d6d2d467645764c2d467545754c2d313233"
)

#: A format v4 artifact: the word "ab" with one payload.
V4_ARTIFACT = bytes.fromhex(
    "544b444304000300000000000000020000000000000001000000000000000100000000000000010000000000000001000000000000000100"
    "00000000000001000000000000000300000000000000420100004200010142626142000142004201420042004201420042014201420042"
    "014202420717004e3a713a693a47244e3330302d6d2d467645764c2d467545754c2d313233"
)


#: A format v5 artifact: the word "ab" with one payload.
V5_ARTIFACT = bytes.fromhex(
    "544b4443050003000000000000000200000000000000010000000000000001000000000000000100000000000000010000000000000001000"
    "0000000000001000000000000000100000000000000010000000000000001000000000000000300000000000000420100004200010142626"
    "14200014200420142004201420042004201420042014201420042014202420717004e3a713a693a47244e3330302d6d2d467645764c2d46"
    "7545754c2d313233"
)


def narrowest(values) -> str:
    """The struct code of the narrowest column width that holds ``values``."""
    return next(code for code in "BHIQ" if max(values, default=0) < 256 ** struct.calcsize(code))


@dataclass
class Artifact:
    """A format v6 artifact decoded field by field with ``struct``, apart
    from the loader, so that tests can edit it and encode it again.  It
    holds the logical columns: state.final, state.fanout and every
    trans.target in place of state.shape and the targets stored, and
    payload.tag_id and payload.standalone in place of payload.tag."""

    counts: list[int]                   # the twelve header counts
    columns: dict[str, list[int]]
    widths: dict[str, str]              # stored column -> struct code, as stored
    strings: bytes
    shapes: dict[int, int] = field(default_factory=dict)    # state -> a state.shape to store as it is

    @classmethod
    def decode(cls, data: bytes) -> "Artifact":
        magic, version, *counts = HEADER.unpack_from(data)
        assert (magic, version) == (b"TKDC", 6)
        columns, widths, off = {}, {}, HEADER.size
        for name, count in COLUMNS:
            code, n = chr(data[off]), counts[count]
            if name == "trans.target":
                n -= sum(shape >> 1 & 1 for shape in columns["state.shape"])
            widths[name] = code
            columns[name] = list(struct.unpack_from(f"<{n}{code}", data, off + 1))
            off += 1 + n * struct.calcsize(code)
        shapes, stored, tags = columns.pop("state.shape"), iter(columns["trans.target"]), columns.pop("payload.tag")
        targets = []
        for state, shape in enumerate(shapes):
            targets += [next(stored) for _ in range((shape >> 2) - (shape >> 1 & 1))] + [state - 1] * (shape >> 1 & 1)
        columns.update({"state.final": [shape & 1 for shape in shapes], "state.fanout": [shape >> 2 for shape in shapes],
                        "trans.target": targets, "payload.tag_id": [tag >> 1 for tag in tags],
                        "payload.standalone": [tag & 1 for tag in tags]})
        return cls(counts, columns, widths, data[off:])

    def stored(self) -> dict[str, list[int]]:
        """The stored columns: a state's last arc is flagged where it leads
        to the state just below, and its target then left out; a state in
        ``shapes`` gets that shape instead, and the targets its shape
        flags are left out."""
        columns, targets = self.columns, self.columns["trans.target"]
        at, shapes, stored = 0, [], []
        for state, (final, fanout) in enumerate(zip(columns["state.final"], columns["state.fanout"])):
            at += fanout
            shapes.append(fanout << 2 | (targets[at - fanout:at][-1:] == [state - 1]) << 1 | final)
        shapes = [self.shapes.get(state, shape) for state, shape in enumerate(shapes)]
        at = 0
        for shape in shapes:
            at += shape >> 2
            stored += targets[at - (shape >> 2):at - (shape >> 1 & 1)]
        tags = [2 * tag + standalone for tag, standalone in zip(columns["payload.tag_id"], columns["payload.standalone"])]
        packed = {"state.shape": shapes, "trans.target": stored, "payload.tag": tags}
        return {name: packed[name] if name in packed else columns[name] for name, _ in COLUMNS}

    def encode(self) -> bytes:
        """The artifact, each column at its narrowest width."""
        out = HEADER.pack(b"TKDC", 6, *self.counts)
        for values in self.stored().values():
            code = narrowest(values)
            out += code.encode() + struct.pack(f"<{len(values)}{code}", *values)
        return out + self.strings

    def split(self, values: str, lengths: str) -> list[tuple[int, ...]]:
        """The ``values`` column cut into records of the ``lengths`` column's lengths."""
        items = iter(self.columns[values])
        return [tuple(next(items) for _ in range(n)) for n in self.columns[lengths]]

    def token_rule(self, set_ids: list[int]) -> list[tuple[int, ...]]:
        """The tokens of the format's rule over the decoded automaton, given
        the set id of each rank.  The walk goes from the root in rank order,
        children in label order.  A state other than the root that two or
        more transitions enter and that counts two or more words gives the
        set ids of all its words as one token, and the walk does not descend;
        any other final state gives its own word's."""
        finals, targets = self.columns["state.final"], self.columns["trans.target"]
        children, at = [], 0
        for fanout in self.columns["state.fanout"]:
            children.append(targets[at:at + fanout])
            at += fanout
        words = []
        for state, final in enumerate(finals):      # postorder: targets first
            words.append(final + sum(words[target] for target in children[state]))
        entered, root, tokens = Counter(targets), len(finals) - 1, []

        def walk(state, rank):
            if state != root and entered[state] >= 2 and words[state] >= 2:
                tokens.append(tuple(set_ids[rank:rank + words[state]]))
                return rank + words[state]
            if finals[state]:
                tokens.append((set_ids[rank],))
                rank += 1
            for target in children[state]:
                rank = walk(target, rank)
            return rank

        assert walk(root, 0) == len(set_ids)
        return tokens


def corrupt_id(data: bytes, field: str) -> bytes:
    """The artifact with the first ``field`` set one past its valid range."""
    artifact = Artifact.decode(data)
    column, bound = ID_FIELDS[field]
    artifact.columns[column][0] = artifact.counts[bound]
    return artifact.encode()


def cyclic_artifact() -> bytes:
    """The artifact of the one word "aub" with its last arc, b -> state 0
    (states come in postorder, the root last), rewritten to u -> state 2.
    States 1 and 2 then form a cycle of non-final one-arc states."""
    artifact = Artifact.decode(FormDictionary.build(word_units({"aub": [PAYLOAD]})).to_bytes())
    assert artifact.columns["trans.label"] == [ord("b"), ord("u"), ord("a")]
    artifact.columns["trans.label"][0] = ord("u")
    artifact.columns["trans.target"][0] = 2
    return artifact.encode()


def misflagged_artifact(case: str) -> bytes:
    """An artifact with a next flag that names no arc below its state.
    "no arc": final state 0 of {"ab", "b"}, which has no arc, flagged.
    "state 0": that state 0 given one arc, flagged, and the root one arc in
    place of two, so that the fanouts still sum to the transitions.
    "label": the flagged last arc of the root of {"ab", "ba"} relabelled
    with the label of the arc before it."""
    words = {"ab": [PAYLOAD], "ba" if case == "label" else "b": [PAYLOAD]}
    artifact = Artifact.decode(FormDictionary.build(word_units(words)).to_bytes())
    shapes = artifact.stored()["state.shape"]
    if case == "label":
        labels = artifact.columns["trans.label"]
        assert shapes[-1] == 2 << 2 | 2 and labels[-2:] == [ord("a"), ord("b")]     # the root: a, then b flagged
        labels[-1] = labels[-2]
    else:
        assert shapes == [1, 1 << 2 | 2, 2 << 2]
        artifact.shapes = {0: 3} if case == "no arc" else {0: 1 << 2 | 2 | 1, 2: 1 << 2}
    return artifact.encode()


def retagged_artifact(tag: str) -> bytes:
    """The artifact of the one word "ab" with its one tag rewritten.  Tags
    are interned first, so the tag is string 0."""
    artifact = Artifact.decode(FormDictionary.build(word_units({"ab": [PAYLOAD]})).to_bytes())
    old = len(PAYLOAD.features.tag().encode("utf-8"))
    artifact.columns["string.length"][0] = len(tag.encode("utf-8"))
    artifact.strings = tag.encode("utf-8") + artifact.strings[old:]
    return artifact.encode()


def overreaching_artifact(stop: int) -> bytes:
    """The artifact of the one word "ab" whose one rewrite, ``[0:-2]+'x'``,
    gets ``stop`` as its stored stop (2s for s from the start, 2k + 1 for
    k back from the end)."""
    words = {"ab": [PAYLOAD._replace(rewrite=tail(2, "x"))]}
    artifact = Artifact.decode(FormDictionary.build(word_units(words)).to_bytes())
    artifact.columns["piece.stop"][0] = stop
    return artifact.encode()


def repeated_label_artifact() -> bytes:
    """The artifact of {"ab", "ac"} with the label c rewritten to b: the
    state after "a" then holds two arcs labelled b."""
    words = {"ab": [PAYLOAD], "ac": [tagged("N:q:i:A")]}
    artifact = Artifact.decode(FormDictionary.build(word_units(words)).to_bytes())
    labels = artifact.columns["trans.label"]
    labels[labels.index(ord("c"))] = ord("b")
    return artifact.encode()


@pytest.fixture(scope="session")
def beyond_v1():
    """A dictionary that format v1's fixed widths could not hold: a drop of
    300, a set of 300 payloads, 72,000 distinct payloads and strings, and a
    root with 300 labels above U+00FF."""
    words = {"kutubN" * 50: [PAYLOAD._replace(rewrite=tail(300, ""))]}
    for i in range(300):
        word = chr(0x100 + i)
        if i < 240:
            words[word] = [PAYLOAD._replace(rewrite=tail(0, f"{i}.{j}")) for j in range(300)]
        else:
            words[word] = [PAYLOAD]
    return FormDictionary.build(word_units(words))
