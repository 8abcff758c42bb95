"""taksir benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload compile-5k --seed 1 --seconds 35 --trace 0

Inputs are generated from ``--seed`` (see inputs.py).  Each run of the
program is a fresh child process (child.py); children run one at a time
until ``--seconds`` are used, and the parent reads each child's peak RSS
with ``os.wait4``.  Metrics are medians over the children.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` traced and untraced children alternate, and it carries the
per-layer metrics of the traced ones plus the tracing overhead.  The exit
code is 1 if any correctness check fails, 2 on a usage or set-up error.
See README.md for the workloads and the metric definitions.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150

#: Seconds the reference work in child.py takes on an uncontended core of
#: the machine the baseline was measured on.  A sample timed while the
#: reference took ``ref`` seconds is scaled by (REF_NOMINAL_S / ref) **
#: SCALE_EXPONENT: the program slows down less under contention than the
#: reference does, and full scaling over-corrects (see README.md).
REF_NOMINAL_S = 0.004
SCALE_EXPONENT = 0.75

WORKLOADS = {
    "compile-5k": {"kind": "compile", "entries": 5000, "sample": 4000, "load_repeats": 3},
    "analyze-optional": {"kind": "analyze", "mode": "diacritic-optional", "tokens": 20000,
                         "types": 4000, "probe": 300, "compile_repeats": 5, "load_repeats": 20},
    "analyze-strict": {"kind": "analyze", "mode": "strict", "tokens": 30000, "probe": 300,
                       "compile_repeats": 5, "load_repeats": 20},
}

#: End-to-end metric -> unit.  failed_share is printed in the summary, not
#: in the result line (it is 0 where nothing fails; see README.md).
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "load_s": "s",
    "artifact_bytes": "bytes",
    "peak_rss_mib": "MiB",
    "analyze_tok_per_s": "tok/s",
}

LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
LAYER_RATIOS = ("formdict.lookup.hit_ratio", "formdict.lookup.distinct_ratio", "segment.kept_ratio",
                "failed_share", "probe.punct_failed_share", "trace.overhead")

#: Layer numbers that cannot be taken from outside the program.
MISSING = ("formdict.build.trie_s", "formdict.build.minimize_s", "formdict.build.count_s",
           "formdict.lookup.states_visited", "segment.splits_tried", "segment.rejected_by_constraint")


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs; return the child spec (without trace).

    The inputs are generated in a process of their own (inputs.py): a
    child's ru_maxrss counts the RSS of the process it was forked from, so
    this parent must stay smaller than any child.
    """
    cfg = WORKLOADS[workload]
    subprocess.run([sys.executable, str(BENCH / "inputs.py"), json.dumps(cfg), str(seed), str(work)],
                   cwd=ROOT, check=True)
    spec = {"kind": cfg["kind"], "src": str(SRC), "load_repeats": cfg["load_repeats"],
            "artifact": str(work / "out.primdict"), "tokens": str(work / "tokens.tsv")}
    if cfg["kind"] == "compile":
        spec.update(lexicon=str(work / "lexicon.txt"), entries=cfg["entries"], lookups=str(work / "lookups.tsv"))
    else:
        spec.update(lexicon=str(SRC / "taksir" / "data" / "seed_lexicon.txt"), mode=cfg["mode"],
                    compile_repeats=cfg["compile_repeats"], probe=str(work / "probe.tsv"))
    return spec


def run_child(spec: dict, path: Path) -> dict:
    """Run one child to completion; its result with peak RSS and duration."""
    path.write_text(json.dumps(spec), encoding="utf-8")
    out_path, err_path = path.with_suffix(".out"), path.with_suffix(".err")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(path)],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        pid = 0
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            while not pid and time.perf_counter() < started + CHILD_TIMEOUT_S:
                time.sleep(0.005)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:  # timed out, or the parent is being stopped
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - started
    lines = out_path.read_text(encoding="utf-8").splitlines()
    if proc.returncode != 0 or not lines:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"errors": [f"child exited {proc.returncode}: {tail}"], "crashed": True, "wall_s": elapsed}
    result = json.loads(lines[-1])
    result.update(peak_rss_mib=usage.ru_maxrss / 1024, wall_s=elapsed)
    return result


def samples(runs: list[dict], normalise: bool = True) -> dict[str, list[float]]:
    """Every sample of each end-to-end metric, pooled over the children.
    Times are scaled to the reference speed unless ``normalise`` is off."""

    def t(seconds: float, ref: float) -> float:
        return seconds * (REF_NOMINAL_S / ref) ** SCALE_EXPONENT if normalise else seconds

    return {
        "setup_s": [t(*r["setup"]) for r in runs],
        "compile_s": [t(*s) for r in runs for s in r["compile_samples"]],
        "load_s": [t(*s) for r in runs for s in r["load_samples"]],
        "artifact_bytes": [r["artifact_bytes"] for r in runs],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
        "analyze_tok_per_s": [n / t(s, ref) for r in runs for n, s, ref in r["chunks"]],
    }


def end_to_end(runs: list[dict], normalise: bool = True) -> dict:
    return {name: statistics.median(values) for name, values in samples(runs, normalise).items()}


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def consistency_errors(runs: list[dict]) -> list[str]:
    """Outputs that must repeat exactly across the children of one run."""
    errors = []
    for key in ("stdout", "digest", "artifact_bytes"):
        values = {json.dumps(r.get(key)) for r in runs}
        if len(values) > 1:
            errors.append(f"{key} differs between runs: {sorted(values)[:2]}")
    return errors


def layer_metrics(traced: list[dict], plain: list[dict], kind: str, failed_share: float) -> dict:
    def value(r: dict, name: str) -> float:
        v = r["layers"][name]
        return v * (REF_NOMINAL_S / r["reference_s"]) ** SCALE_EXPONENT if layer_unit(name) == "s" else v

    layers = {name: statistics.median(value(r, name) for r in traced) for name in traced[0]["layers"]}
    layers["failed_share"] = failed_share
    probe = [r["probe_failed"] / r["probe_attempted"] for r in traced if "probe_attempted" in r]
    layers["probe.punct_failed_share"] = statistics.median(probe) if probe else 0.0
    # Overhead: traced over untraced time of the workload's main operation.
    if kind == "compile":
        main = [end_to_end(rs)["compile_s"] for rs in (traced, plain)]
    else:
        main = [1 / end_to_end(rs)["analyze_tok_per_s"] for rs in (traced, plain)]
    layers["trace.overhead"] = main[0] / main[1] - 1
    return layers


def layer_unit(name: str) -> str:
    if name in LAYER_RATIOS:
        return "ratio"
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopping the parent raises SystemExit, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "taksir" / "__init__.py").is_file():
        print(f"error: no taksir sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    spec = prepare(args.workload, args.seed, work)
    print(f"inputs_generated_s\t{time.perf_counter() - started:.3f}")

    plain: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    min_children = 4 if args.trace else 3
    started = time.perf_counter()
    while True:
        done = plain + traced
        elapsed = time.perf_counter() - started
        if done and len(done) >= min_children:
            typical = statistics.median(r["wall_s"] for r in done)
            if elapsed + typical / 2 > args.seconds:
                break
        trace = bool(args.trace) and len(traced) < len(plain)
        n = len(done)
        child_spec = dict(spec, trace=trace, trace_out=str(work / f"spans-{n}.json"))
        result = run_child(child_spec, work / f"child-{n}.json")
        errors += [f"child {n}: {e}" for e in result["errors"][:5]]
        if result.get("crashed"):
            break
        (traced if trace else plain).append(result)

    runs = plain + traced
    if runs:
        errors += consistency_errors(runs)
    if not plain or (args.trace and not traced):
        errors.append("no complete run")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # failed_share counts the punctuation probe too; the result line's
    # attempted and failed cover the measured operations only.
    probe_attempted = sum(r.get("probe_attempted", 0) for r in runs)
    probe_failed = sum(r.get("probe_failed", 0) for r in runs)
    failed_share = (failed + probe_failed) / (attempted + probe_attempted)
    e2e = end_to_end(plain)
    print(f"children\t{len(plain)} untraced, {len(traced)} traced, {time.perf_counter() - started:.1f}s")
    pooled, raw = samples(plain), end_to_end(plain, normalise=False)
    for name, unit in END_TO_END.items():
        print(f"{name}\t{e2e[name]:.6g}\t{unit}\t{spread(pooled[name])}\tunscaled {raw[name]:.6g}")
    refs = [r["reference_s"] for r in plain]
    print(f"reference_s\t{statistics.median(refs):.6g}\ts\t{spread(refs)}\tnominal {REF_NOMINAL_S}")
    print(f"failed_share\t{failed_share:.6g}\tratio\tmeasured {failed} of {attempted}, "
          f"punctuation probe {probe_failed} of {probe_attempted}")
    if probe_attempted:
        print(f"punct_probe_failed_share\t{probe_failed / probe_attempted:.6g}\tratio\t"
              f"{probe_failed} of {probe_attempted} tokens with Arabic punctuation raise in tokenize()")

    if args.trace:
        t_e2e = end_to_end(traced)
        for name, unit in END_TO_END.items():
            print(f"traced {name}\t{t_e2e[name]:.6g}\t{unit}\tuntraced {e2e[name]:.6g}")
        layers = layer_metrics(traced, plain, spec["kind"], failed_share)
        print("missing (needs spans inside the program)\t" + " ".join(MISSING))
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
