"""The Python-level peak memory of ``taksir compile``, checked against a ceiling.

Usage: ``PYTHONPATH=src python tests/compile_memory.py LEXICON OUT``

Every module that compile imports is imported first, so the trace counts
what the compile itself allocates: the parsed lexicon, the filled units, the
automaton and the artifact's bytes.  Prints the peak in MiB, with compile's
own stdout above it, and exits 1 when the peak is above ``CEILING_MIB``.
"""

import sys
import tracemalloc

from taksir import cli, classes, codes, compiler, formdict, lexicon, paradigm, rewrite  # noqa: F401

#: For bench lexicon 7 at 20,000 entries, which peaks at 22.0 MiB under
#: Python 3.11.7 and 23.2 MiB under 3.10.13, and at 37.0 MiB when the lexicon
#: and the units stay alive through the automaton's construction.
CEILING_MIB = 28


def main(argv: list[str]) -> int:
    path, out = argv
    tracemalloc.start()
    status = cli.main(["compile", path, "--out", out])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mib = peak / 2**20
    print(f"compile_peak_mib\t{peak_mib:.2f}\t(ceiling {CEILING_MIB})")
    if status != 0:
        print(f"compile exited {status}", file=sys.stderr)
        return status
    return 1 if peak_mib > CEILING_MIB else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
