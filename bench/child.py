"""One benchmark run in a fresh process: ``python child.py SPEC.json``.

The spec (written by run.py) names the workload, the input files and
whether to trace.  The run prints one JSON object on its last stdout line:
its timed samples, the checks that failed, the output digests, and with
tracing the per-layer numbers.  Peak memory is read by the parent.

Every timed sample is stored as [seconds, reference seconds]: the second
number is the time of a fixed piece of pure-Python work run right before
and right after the sample, which run.py uses to normalise the sample to
a reference CPU speed (see README.md, "Normalised times").
"""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import statistics
import sys
from time import perf_counter


def reference_work() -> dict:
    counts: dict[str, int] = {}
    for i in range(8000):
        key = "r" + str(i % 613)
        counts[key] = counts.get(key, 0) + len(key[1:])
    return counts


def reference_s() -> float:
    """Median seconds of three runs of the reference work."""
    times = []
    for _ in range(3):
        started = perf_counter()
        reference_work()
        times.append(perf_counter() - started)
    return statistics.median(times)


class Clock:
    """Times samples and brackets each with reference measurements."""

    def __init__(self):
        self.refs: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Take a fresh opening reference, after untimed work."""
        self.before = reference_s()
        self.refs.append(self.before)
        self.started = perf_counter()

    def sample(self) -> list[float]:
        """Seconds since the last mark or sample, with the mean of its
        opening and closing references; the closing reference is the next
        sample's opening one."""
        elapsed = perf_counter() - self.started
        after = reference_s()
        self.refs.append(after)
        ref = (self.before + after) / 2
        self.before = after
        self.started = perf_counter()
        return [elapsed, ref]


with open(sys.argv[1], encoding="utf-8") as fh:
    spec = json.load(fh)
sys.path.insert(0, spec["src"])
CLOCK = Clock()
from taksir import cli  # noqa: E402
from taksir.formdict import FormDictionary  # noqa: E402

#: Raw tokens per timed chunk of the analysis loop.
CHUNK = 1000


def compile_cli(lexicon: str, artifact: str) -> tuple[int, str, str]:
    """``taksir compile`` in-process with output captured: exit code,
    stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compile", lexicon, "--out", artifact])
    return code, out.getvalue(), err.getvalue()


def timed_compiles(lexicon: str, artifact: str, repeats: int) -> list[list[float]]:
    samples = []
    CLOCK.mark()
    for _ in range(repeats):
        compile_cli(lexicon, artifact)
        samples.append(CLOCK.sample())
    return samples


def timed_loads(artifact: str, repeats: int) -> list[list[float]]:
    """Each FormDictionary.load timed from a collected heap."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        CLOCK.mark()
        FormDictionary.load(artifact)
        samples.append(CLOCK.sample())
    gc.collect()
    return samples


def read_chunks(path: str):
    """The rows of a TSV input file, CHUNK at a time, so that only one
    chunk of the harness's input is in memory at once."""
    with open(path, encoding="utf-8") as fh:
        while batch := [line.rstrip("\n").split("\t", 1) for line in itertools.islice(fh, CHUNK)]:
            yield batch


def analyze(path: str, dictionary, mode: str, label: str, clock: Clock | None = None):
    """Run the steps of ``taksir analyze`` on each raw token and check them.

    The raw tokens and their expected lines are read from ``path`` one
    chunk of CHUNK tokens at a time, outside the timed part.  Each raw
    token is tokenized, segmented with no inventory passed, and each
    reading (or an UNK line) formatted into an output buffer.  A raised
    exception fails that token only.  The buffer is checked and hashed per
    chunk, outside the timed part, then dropped.

    Returns (chunks, sha256 of the output, check errors, attempted, failed),
    where with a clock, chunks holds [tokens analysed, seconds, reference
    seconds].
    """
    tokenize, segment, format_reading = cli.tokenize, cli.segment, cli.format_reading
    chunks: list[list[float]] = []
    errors: list[str] = []
    output = hashlib.sha256()
    first = failed = 0
    for batch in read_chunks(path):
        lines: list[str] = []
        starts: list[int] = []
        failed_before = failed
        if clock:
            clock.mark()
        for raw, _ in batch:
            starts.append(len(lines))
            try:
                for token in tokenize(raw):
                    lattice = segment(token, dictionary, mode)
                    if not lattice.readings:
                        lines.append(f"{token}\tUNK")
                        continue
                    for reading in lattice.readings:
                        lines.append(format_reading(token, reading))
            except Exception:  # noqa: BLE001 - counted per token, the run goes on
                failed += 1
                del lines[starts[-1]:]
        if clock:
            chunks.append([len(batch) - (failed - failed_before), *clock.sample()])
        starts.append(len(lines))
        errors += check_readings(batch, lines, starts, label, first)
        output.update("".join(line + "\n" for line in lines).encode("utf-8"))
        first += len(batch)
    return chunks, output.hexdigest(), errors, first, failed


def check_readings(batch, lines, starts, label: str, first: int) -> list[str]:
    """Each planted word's lines include its expected line; a planted
    non-word (expected line ending in UNK) has exactly that line."""
    errors = []
    for i, (_, expected) in enumerate(batch):
        got = lines[starts[i]:starts[i + 1]]
        if not got:
            continue  # the token raised; counted as failed
        ok = got == [expected] if expected.endswith("\tUNK") else expected in got
        if not ok:
            errors.append(f"{label} token {first + i}: expected {expected!r}, got {got[:3]!r}")
    return errors


def run_compile(result: dict, untrace) -> None:
    result["setup"] = CLOCK.sample()
    CLOCK.mark()
    code, out, err = compile_cli(spec["lexicon"], spec["artifact"])
    result["compile_samples"] = [CLOCK.sample()]
    failures = [l for l in err.splitlines() if l.startswith(("failed:", "invalid:"))]
    result.update(stdout=out, attempted=spec["entries"], failed=len(failures))
    if code != 0 or failures:
        result["errors"].append(f"compile exited {code} with {len(failures)} failed entries: {failures[:3]}")
    result["load_samples"] = timed_loads(spec["artifact"], spec["load_repeats"])
    result["artifact_bytes"] = os.path.getsize(spec["artifact"])
    dictionary = FormDictionary.load(spec["artifact"])
    chunks, result["digest"], errors, _, failed = analyze(spec["tokens"], dictionary, "diacritic-optional",
                                                          "sample", CLOCK)
    result["chunks"] = chunks
    untrace()
    result["errors"] += errors + ([f"{failed} sample tokens raised"] if failed else [])
    for batch in read_chunks(spec["lookups"]):
        for key, expected in batch:
            found = {"\t".join((a.lemma, a.code, a.features.tag())) for a in dictionary.lookup(key, "strict")}
            if expected not in found:
                result["errors"].append(f"lookup {key!r}: {expected!r} not among {sorted(found)[:3]}")


def run_analyze(result: dict, untrace) -> None:
    code, out, err = compile_cli(spec["lexicon"], spec["artifact"])
    dictionary = FormDictionary.load(spec["artifact"])
    result["setup"] = CLOCK.sample()
    result.update(stdout=out, artifact_bytes=os.path.getsize(spec["artifact"]))
    if code != 0:
        result["errors"].append(f"seed compile exited {code}: {err[:300]}")
    result["compile_samples"] = timed_compiles(spec["lexicon"], spec["artifact"], spec["compile_repeats"])
    result["load_samples"] = timed_loads(spec["artifact"], spec["load_repeats"])
    chunks, result["digest"], errors, attempted, failed = analyze(spec["tokens"], dictionary, spec["mode"],
                                                                  "text", CLOCK)
    result.update(chunks=chunks, attempted=attempted, failed=failed)
    untrace()
    # The punctuation probe runs after the measured loop, untraced.
    _, _, probe_errors, probe_attempted, probe_failed = analyze(spec["probe"], dictionary, spec["mode"], "probe")
    result.update(probe_attempted=probe_attempted, probe_failed=probe_failed)
    result["errors"] += errors + probe_errors


def layer_metrics(tracer, stdout: str) -> dict:
    """Per-layer numbers of this run from the span tree and counters."""
    layers = tracer.layers()
    c = tracer.counters

    def span(name, i):
        return layers.get(name, [0, 0.0, 0.0])[i]

    def ratio(a, b):
        return a / b if b else 0.0

    counts = dict(line.split("\t") for line in stdout.splitlines() if "\t" in line)
    lookups = span("formdict.lookup.strict", 0) + span("formdict.lookup.optional", 0)
    out = {
        "codes.extract_root.calls": span("codes.extract_root", 0),
        "codes.extract_root.s": span("codes.extract_root", 1),
        "lexicon.parse_lexicon.s": span("lexicon.parse_lexicon", 1),
        "lexicon.validate_entry.s": span("lexicon.validate_entry", 1),
        "lexicon.validate_entry.calls": span("lexicon.validate_entry", 0),
        "cli.cmd_compile.self_s": span("cli.cmd_compile", 2),
        "classes.render_bp_stem.s": span("classes.render_bp_stem", 1),
        "paradigm.inflect.s": span("paradigm.inflect", 2),
        "paradigm.forms_generated": c.get("forms_generated", 0),
        "formdict.compile_lexicon.self_s": span("formdict.compile_lexicon", 2),
        "formdict.build.s": span("formdict.build", 1),
        "formdict.to_bytes.s": span("formdict.to_bytes", 1),
        "formdict.to_bytes.calls": span("formdict.to_bytes", 0),
        "formdict.dump_text.s": span("formdict.dump_text", 1),
        "formdict.from_bytes.s": span("formdict.from_bytes", 1),
        "segment.load_clitics.calls": span("segment.load_clitics", 0),
        "segment.load_clitics.s": span("segment.load_clitics", 1),
        "formdict.lookup.hit_ratio": ratio(c.get("lookup.hits", 0), lookups),
        "formdict.lookup.distinct_ratio": ratio(c.get("segment.distinct", 0), c.get("segment.lookups", 0)),
        "segment.segment.self_s": span("segment.segment", 2),
        "segment.kept_ratio": ratio(c.get("segment.readings", 0), c.get("segment.analyses", 0)),
        "segment.readings": c.get("segment.readings", 0),
        "segment.unk": c.get("segment.unk", 0),
        "paradigm.from_tag.calls": span("paradigm.from_tag", 0),
        "cli.tokenize.s": span("cli.tokenize", 1),
        "bn.to_bn.s": span("bn.to_bn", 1),
        "segment.format_reading.s": span("segment.format_reading", 1),
    }
    for mode in ("strict", "optional"):
        out[f"formdict.lookup.{mode}.s"] = span(f"formdict.lookup.{mode}", 1)
        out[f"formdict.lookup.{mode}.calls"] = span(f"formdict.lookup.{mode}", 0)
    for key in ("states", "transitions", "forms", "analyses"):
        out[f"formdict.{key}"] = int(counts.get(key, 0))
    return out


def main() -> int:
    result = {"errors": []}
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    run = {"compile": run_compile, "analyze": run_analyze}[spec["kind"]]
    run(result, tracer.uninstall if tracer else lambda: None)
    result["reference_s"] = statistics.median(CLOCK.refs)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["stdout"])
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.tree(), "counters": tracer.counters}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
