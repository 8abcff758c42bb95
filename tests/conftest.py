import struct

import pytest

from taksir import compile_lexicon, load_registry, load_seed


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


#: Per fixed-size section of a format v1 artifact, in file order: the header
#: field counting its records, and the record size in bytes.
SECTIONS = (("state", 2, 6), ("trans", 3, 5), ("form", 4, 2), ("set", 5, 1), ("setref", 6, 2), ("payload", 7, 8))

#: Id field -> (section, byte offset in its record, struct code, the header
#: field counting what the id indexes).
ID_FIELDS = {
    "trans.target": ("trans", 1, "<I", 2),
    "form.set_id": ("form", 0, "<H", 5),
    "setref.payload_id": ("setref", 0, "<H", 7),
    "payload string id": ("payload", 0, "<H", 8),
}


def section_offsets(data: bytes) -> tuple[tuple, dict[str, int]]:
    """The header fields of an artifact and the byte offset of each section."""
    header = struct.unpack_from("<4sHIIIIIII", data)
    offsets, off = {}, struct.calcsize("<4sHIIIIIII")
    for name, count_index, size in SECTIONS:
        offsets[name] = off
        off += size * header[count_index]
    return header, offsets


def corrupt_id(data: bytes, field: str) -> bytes:
    """The artifact with the first ``field`` set one past its valid range."""
    header, offsets = section_offsets(data)
    section, at, code, bound_index = ID_FIELDS[field]
    out = bytearray(data)
    struct.pack_into(code, out, offsets[section] + at, header[bound_index])
    return bytes(out)
