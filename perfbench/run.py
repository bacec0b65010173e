#!/usr/bin/env python3
"""End-to-end benchmark of the qfs-forge pipeline, with a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

One process generates the workload's seeded JSONL inputs, then runs passes
over the whole chain (annotate -> write/load triplets -> classify -> stats
-> unify -> compose -> evaluate) through the package's public functions,
with the mock backend behind a fault-injecting wrapper and the numpy kernel
path. The first pass is checked against brute-force oracles; passes repeat
until ``--seconds`` have elapsed (checks excluded), and every pass must
write byte-identical outputs. The first pass is timed too: a command-line
user pays its cold caches on every run. Each end-to-end metric is the
median of its samples, scaled to reference machine speed (``speed.py``):
before every stage, and after the last, a fixed reference workload is
timed, and the CPU-busy share of each pass's timings is scaled by the speed
sampled during that pass, so the drift of a shared host's CPU speed
cancels. The raw medians are printed too.

With ``--trace 1`` the passes alternate untraced and traced, and the last
line reports the per-layer metrics of the traced passes instead; the span
trace is written to ``.perfbench_work/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 if a check fails, and the
program refuses to run (exit 1, no result) without ``src/qfs_forge``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

import checks
import inputs
from faults import FaultyBackend
from speed import Calibration, at_reference, import_speed
from tracer import Tracer, self_seconds, totals, units_under

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

RETRIES = 2
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "annotate_pairs_per_s": "pairs/s",
    "stats_triplets_per_s": "triplets/s",
    "compose_clusters_per_s": "clusters/s",
    "evaluate_examples_per_s": "examples/s",
    "peak_rss_mb": "MiB",
    "failed_frac": "fraction",
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import qfs_forge
backend = qfs_forge.MockBackend(seed={seed})
specs = {{d: qfs_forge.default_spec(d, "wh") for d in ("news", "dialogue")}}
print(time.perf_counter() - start)
"""


def import_package():
    if not os.path.isfile(os.path.join(SRC, "qfs_forge", "__init__.py")):
        sys.exit("perfbench: src/qfs_forge not found; run from the repository root")
    sys.path.insert(0, SRC)
    import qfs_forge

    if not os.path.abspath(qfs_forge.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported qfs_forge from {qfs_forge.__file__}, not {SRC}")
    return qfs_forge


def time_setup(code: str) -> tuple[float, float]:
    """Import + backend + prompt specs in a fresh interpreter.

    Returns the seconds it took, raw and at reference speed; the speed is
    sampled just before, in another fresh interpreter.
    """
    speed = import_speed()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    seconds = float(done.stdout.split()[-1])
    return seconds, seconds * speed


@dataclass
class PassResult:
    seconds: float
    stage_seconds: dict
    outcomes: dict  # pair id -> (status, attempts)
    selected: int
    summarized: int
    backend_ms: list
    digests: dict
    speed: float  # machine speed during the pass, relative to the reference
    stage_reference_seconds: dict  # stage_seconds at reference speed

    @property
    def reference_seconds(self) -> float:
        return sum(self.stage_reference_seconds.values())


@dataclass
class Context:
    pkg: object
    workload: inputs.Workload
    files: inputs.InputFiles
    backend: FaultyBackend
    specs: dict
    out: str

    def path(self, name: str) -> str:
        return os.path.join(self.out, name + ".jsonl")


OUTPUTS = ("triplets", "audit", "classify", "stats", "unify", "compose", "evaluate")


def run_pass(ctx: Context, tracer: Tracer | None) -> PassResult:
    pkg, w, files, backend = ctx.pkg, ctx.workload, ctx.files, ctx.backend
    backend.reset()
    stage_seconds, stage_cpu = {}, {}
    calibration = Calibration()

    @contextmanager
    def stage(name):
        backend.stage = name
        calibration.sample()
        start, cpu = time.perf_counter(), time.process_time()
        with tracer.stage_span("stage." + name) if tracer else nullcontext():
            yield
        stage_seconds[name] = time.perf_counter() - start
        stage_cpu[name] = time.process_time() - cpu

    with stage("annotate"):
        pairs = pkg.load_corpus(files.pairs)
        outcomes = {}
        for domain in sorted({p.domain for p in pairs}):
            group = [p for p in pairs if p.domain == domain]
            results = pkg.annotate_corpus(group, ctx.specs[domain], backend,
                                          parallelism=w.parallelism, retries=RETRIES)
            outcomes.update(zip((p.id for p in group), results))
        pkg.write_triplets([outcomes[p.id].triplet for p in pairs if outcomes[p.id].ok],
                           ctx.path("triplets"))
        inputs.write_jsonl(ctx.path("audit"), (
            {"id": p.id, "status": o.status, "attempts": o.attempts,
             "raw_completion": o.raw_completion}
            for p in pairs if not (o := outcomes[p.id]).ok))

    with stage("classify"):
        by_mode = {}
        for triplet in pkg.load_triplets(ctx.path("triplets")):
            by_mode.setdefault(triplet.mode, []).extend(
                pkg.classify_query(q) for q in triplet.queries)
        inputs.write_jsonl(ctx.path("classify"), (
            {"row": mode, **pkg.aggregate_distribution(types).to_record()}
            for mode, types in sorted(by_mode.items())))

    with stage("stats"):
        result = pkg.corpus_stats(pkg.load_triplets(ctx.path("triplets")))
        inputs.write_jsonl(ctx.path("stats"), [{"row": "corpus", **result.to_record()}])

    with stage("unify"):
        records = inputs.read_jsonl(files.unify)
        generator = pkg.unify.PromptedGenerator(backend, ctx.specs["news"])
        unified = pkg.unify.unify_batch([r["document"] for r in records],
                                        [r["query"] for r in records],
                                        generator, parallelism=w.parallelism)
        inputs.write_jsonl(ctx.path("unify"), (
            {"id": r["id"], "document": r["document"], "query": q}
            for r, q in zip(records, unified)))

    with stage("compose"):
        cfg = pkg.CompositionConfig(backend=backend, token_budget=w.token_budget,
                                    parallelism=w.parallelism)
        composed = []
        for cluster in inputs.read_jsonl(files.clusters):
            result = pkg.compose_cluster(list(cluster["documents"]), cluster["query"], cfg)
            composed.append({"cluster_id": cluster["cluster_id"], "summary": result.summary,
                             "selected_doc_indices": list(result.selected_doc_indices),
                             "truncated": result.truncated})
        inputs.write_jsonl(ctx.path("compose"), composed)

    with stage("evaluate"):
        report = pkg.evaluate_run(files.predictions, files.references)
        inputs.write_jsonl(ctx.path("evaluate"), report.to_records())
    calibration.sample()
    speed = calibration.speed()

    return PassResult(
        seconds=sum(stage_seconds.values()),
        stage_seconds=stage_seconds,
        outcomes={pid: (o.status, o.attempts) for pid, o in outcomes.items()},
        selected=sum(len(r["selected_doc_indices"]) for r in composed),
        summarized=backend.calls_by_stage["compose"],
        backend_ms=sorted(1000.0 * d for d in backend.durations),
        digests={name: checks.digest(ctx.path(name)) for name in OUTPUTS},
        speed=speed,
        stage_reference_seconds={name: at_reference(seconds, stage_cpu[name], speed)
                                 for name, seconds in stage_seconds.items()},
    )


def check_outputs(ctx: Context, first: PassResult) -> list[str]:
    pkg, w, files = ctx.pkg, ctx.workload, ctx.files
    tokenize = pkg.tokenize
    errors = checks.check_annotation(first.outcomes, files.fault_classes, RETRIES)
    errors += checks.check_stats(tokenize, inputs.read_jsonl(ctx.path("triplets")),
                                 inputs.read_jsonl(ctx.path("stats"))[0])
    errors += checks.check_rouge(tokenize, files.predictions, files.references,
                                 ctx.path("evaluate"), np.random.default_rng(0))
    errors += checks.check_compose(tokenize, pkg.rank_documents,
                                   inputs.read_jsonl(files.clusters),
                                   inputs.read_jsonl(ctx.path("compose")), w.token_budget)
    return errors


def install_tracer(pkg, tracer: Tracer) -> None:
    """Wrap the package's functions where the pipeline imports and calls them."""
    from qfs_forge import _kernels, annotate, compose, rouge, stats, taxonomy, tokenizer, unify

    def size(index):
        return lambda args, result: os.path.getsize(args[index])

    n_tokens = lambda args, result: len(result)  # noqa: E731
    for module in (tokenizer, annotate, compose, rouge, stats, taxonomy):
        tracer.patch(module, "tokenize", "tokenizer.tokenize", units=n_tokens)
    tracer.patch(_kernels, "lcs_length", "kernels.lcs",
                 units=lambda args, result: int(args[0].size) * int(args[1].size))
    tracer.patch(_kernels, "clipped_overlap", "kernels.overlap")
    tracer.patch(rouge, "score_pair", "rouge.score_pair")
    tracer.patch(rouge, "score_multi_reference", "rouge.example", span=True)
    tracer.patch(rouge, "_load_id_text_records", "corpus.read", units=size(0))
    tracer.patch(pkg, "evaluate_run", "rouge.evaluate_run", span=True)
    tracer.patch(pkg, "load_corpus", "corpus.read", units=size(0))
    tracer.patch(pkg, "load_triplets", "corpus.read", units=size(0))
    tracer.patch(pkg, "write_triplets", "corpus.write", units=size(1))
    tracer.patch(inputs, "read_jsonl", "corpus.read", units=size(0))
    tracer.patch(inputs, "write_jsonl", "corpus.write", units=size(0))
    tracer.patch(annotate, "annotate_pair", "annotate.pair", span=True)
    tracer.patch(annotate, "parse_completion", "annotate.parse")
    tracer.patch(annotate, "truncate_document", "annotate.truncate",
                 units=lambda args, result: int(result != args[0]))
    tracer.patch(annotate, "build_annotation_prompt", "prompts.build")
    tracer.patch(unify, "build_annotation_prompt", "prompts.build")
    tracer.patch(annotate, "classify_query", "taxonomy.classify")
    tracer.patch(pkg, "classify_query", "taxonomy.classify")
    tracer.patch(pkg, "aggregate_distribution", "taxonomy.aggregate")
    tracer.patch(pkg, "corpus_stats", "stats.corpus_stats", span=True)
    tracer.patch(stats, "ntp", "stats.ntp")
    tracer.patch(unify, "unify_batch", "unify.batch", span=True)
    tracer.patch(unify, "unify_query", "unify.query", span=True)
    tracer.patch(pkg, "compose_cluster", "compose.cluster", span=True)
    tracer.patch(compose, "rank_documents", "compose.rank")
    tracer.patch(compose, "overlap_pct", "compose.overlap")


def layer_metrics(ctx: Context, table: dict, result: PassResult) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit, better)."""
    w = ctx.workload
    t = totals(table)
    calls = lambda name: t[name][0]  # noqa: E731
    secs = lambda name: t[name][1]  # noqa: E731
    units = lambda name: t[name][2]  # noqa: E731
    attempts = sum(a for _, a in result.outcomes.values())
    ok = sum(1 for s, _ in result.outcomes.values() if s == "ok")
    records = records_per_pass(w, ok)
    durations_ms = result.backend_ms
    summarized = result.summarized
    return {
        "tokenizer.calls": (calls("tokenizer.tokenize"), "count", "lower"),
        "tokenizer.tokens": (units("tokenizer.tokenize"), "count", "lower"),
        "tokenizer.s": (secs("tokenizer.tokenize"), "s", "lower"),
        "tokenizer.calls_per_record": (calls("tokenizer.tokenize") / records, "calls/record", "lower"),
        "kernels.lcs_calls": (calls("kernels.lcs"), "count", "lower"),
        "kernels.lcs_cells": (units("kernels.lcs"), "count", "lower"),
        "kernels.lcs_s": (secs("kernels.lcs"), "s", "lower"),
        "kernels.lcs_ns_per_cell": (1e9 * secs("kernels.lcs") / max(units("kernels.lcs"), 1), "ns/cell", "lower"),
        "kernels.overlap_calls": (calls("kernels.overlap"), "count", "lower"),
        "kernels.overlap_s": (secs("kernels.overlap"), "s", "lower"),
        "rouge.pairs_scored": (calls("rouge.score_pair"), "count", "lower"),
        "rouge.self_s": (self_seconds(table, "rouge.score_pair") + self_seconds(table, "rouge.example"), "s", "lower"),
        "rouge.evaluate_self_s": (self_seconds(table, "rouge.evaluate_run"), "s", "lower"),
        "compose.rank_s": (secs("compose.rank"), "s", "lower"),
        "compose.overlap_calls": (calls("compose.overlap"), "count", "lower"),
        "compose.overlap_tokens": (units_under(table, "compose.overlap", "tokenizer.tokenize"), "count", "lower"),
        "compose.overlap_s": (secs("compose.overlap"), "s", "lower"),
        "compose.summarized": (summarized, "count", "lower"),
        "compose.selected": (result.selected, "count", "higher"),
        "compose.selected_per_summarized": (result.selected / max(summarized, 1), "ratio", "higher"),
        "backends.calls": (len(durations_ms), "count", "lower"),
        "backends.s": (sum(durations_ms) / 1000.0, "s", "lower"),
        "backends.call_p50_ms": (float(np.percentile(durations_ms, 50)), "ms", "lower"),
        "backends.call_p99_ms": (float(np.percentile(durations_ms, 99)), "ms", "lower"),
        "annotate.attempts_per_pair": (attempts / w.pairs, "attempts/pair", "lower"),
        "annotate.ok_per_attempt": (ok / attempts, "ratio", "higher"),
        "annotate.parse_s": (secs("annotate.parse"), "s", "lower"),
        "annotate.truncate_s": (secs("annotate.truncate"), "s", "lower"),
        "annotate.truncated": (units("annotate.truncate"), "count", "lower"),
        "prompts.calls": (calls("prompts.build"), "count", "lower"),
        "prompts.build_s": (secs("prompts.build"), "s", "lower"),
        "stats.ntp_calls": (calls("stats.ntp"), "count", "lower"),
        "stats.ntp_s": (secs("stats.ntp"), "s", "lower"),
        "stats.self_s": (self_seconds(table, "stats.corpus_stats"), "s", "lower"),
        "corpus.read_s": (secs("corpus.read"), "s", "lower"),
        "corpus.write_s": (secs("corpus.write"), "s", "lower"),
        "corpus.bytes": (units("corpus.read") + units("corpus.write"), "bytes", "lower"),
        "taxonomy.s": (secs("taxonomy.classify") + secs("taxonomy.aggregate"), "s", "lower"),
        "unify.s": (secs("unify.batch"), "s", "lower"),
    }


# Per-layer metrics in these units are timings, reported at reference speed;
# all others are counts and ratios, which must repeat exactly from pass to pass.
TIME_UNITS = ("s", "ms", "ns/cell", "us/call")


def records_per_pass(w: inputs.Workload, n_triplets: int) -> int:
    """Records handled by all stages in one pass (classify and stats both read the triplets)."""
    return w.pairs + 2 * n_triplets + w.unify_records + w.clusters + w.eval_examples


def isolated_kernels(seed: int) -> dict:
    """The two kernels alone on random id arrays (250 x 250, vocabulary 600)."""
    from qfs_forge import _kernels

    rng = np.random.default_rng(seed)
    arrays = [(rng.integers(0, 600, 250), rng.integers(0, 600, 250)) for _ in range(40)]
    out = {}
    for name, fn in (("lcs", _kernels.lcs_length), ("overlap", _kernels.clipped_overlap)):
        fn(*arrays[0])
        start = time.perf_counter()
        for a, b in arrays:
            fn(a, b)
        out[name] = (time.perf_counter() - start) / len(arrays)
    return {
        "kernels.lcs_isolated_ns_per_cell": (1e9 * out["lcs"] / 250**2, "ns/cell", "lower"),
        "kernels.overlap_isolated_us_per_call": (1e6 * out["overlap"], "us/call", "lower"),
    }


def describe(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} q1 {q[0]:.6g} q3 {q[2]:.6g} n={len(values)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pkg = import_package()
    setup_code = SETUP_CODE.format(src=SRC, seed=args.seed)
    time_setup(setup_code)  # untimed: compiles bytecode, a cost users pay once
    w = inputs.WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    files = inputs.generate(args.workload, args.seed, os.path.join(run_dir, "in"))
    os.makedirs(os.path.join(run_dir, "out"))
    classes_by_block = {}
    for record in inputs.read_jsonl(files.pairs):
        if record["id"] in files.fault_classes:
            block = pkg.number_sentences(pkg.segment_sentences(record["summary"]))
            classes_by_block[block] = files.fault_classes[record["id"]]
    backend = FaultyBackend(pkg.MockBackend(seed=args.seed), args.seed, classes_by_block,
                            latency_ms=w.latency_ms)
    specs = {d: pkg.default_spec(d, "wh") for d in ("news", "dialogue")}
    ctx = Context(pkg, w, files, backend, specs, os.path.join(run_dir, "out"))

    tracer = Tracer() if args.trace else None
    min_passes = 2 if tracer else MIN_PASSES
    try:
        start = time.perf_counter()
        first = run_pass(ctx, None)
        passes, traced = [first], []
        # One set-up sample after each untraced pass, so that set-up is
        # sampled across the whole run, like the passes.
        setups = [time_setup(setup_code)]
        checked = time.perf_counter()
        errors = check_outputs(ctx, first)
        deadline = start + args.seconds + (time.perf_counter() - checked)
        while (time.perf_counter() < deadline or len(passes) < min_passes
               or (tracer and len(traced) < min_passes)):
            gc.collect()
            if tracer and len(traced) < len(passes):
                tracer.reset()
                install_tracer(pkg, tracer)
                try:
                    result = run_pass(ctx, tracer)
                finally:
                    tracer.unpatch()
                traced.append((result, tracer.table()))
            else:
                result = run_pass(ctx, None)
                passes.append(result)
                setups.append(time_setup(setup_code))
            errors += [f"{name} output differs between passes"
                       for name, value in result.digests.items() if value != first.digests[name]]
    finally:
        shutil.rmtree(os.path.join(run_dir, "in"), ignore_errors=True)
        shutil.rmtree(os.path.join(run_dir, "out"), ignore_errors=True)

    failed = sum(len(checks.check_annotation(r.outcomes, files.fault_classes, RETRIES))
                 for r in passes + [r for r, _ in traced])
    n_failed = sum(1 for s, _ in first.outcomes.values() if s != "ok")
    n_triplets = w.pairs - n_failed
    attempted = records_per_pass(w, n_triplets) * (len(passes) + len(traced))

    speeds = [p.speed for p in passes + [r for r, _ in traced]]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced, "
          f"{len(traced)} traced passes")
    print(f"machine speed (of reference) {describe(speeds)}")
    for name, value in first.digests.items():
        print(f"digest {name} {value}")

    def timings(at_reference_speed):
        """Each pass's wall time and stage throughputs, raw or at reference speed."""
        def rate(stage, items):
            return [items / (p.stage_reference_seconds if at_reference_speed
                             else p.stage_seconds)[stage] for p in passes]
        return {
            "wall_s": [p.reference_seconds if at_reference_speed else p.seconds for p in passes],
            "annotate_pairs_per_s": rate("annotate", w.pairs),
            "stats_triplets_per_s": rate("stats", n_triplets),
            "compose_clusters_per_s": rate("compose", w.clusters),
            "evaluate_examples_per_s": rate("evaluate", w.eval_examples),
        }

    if not args.trace:
        raw = {"setup_s": [raw for raw, _ in setups], **timings(False)}
        for name, values in raw.items():
            print(f"{name} [{END_TO_END[name]}] raw {describe(values)}")
        samples = {
            "setup_s": [scaled for _, scaled in setups],
            **timings(True),
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            "failed_frac": [n_failed / w.pairs],
        }
        for name, values in samples.items():
            scaled = " at reference speed" if name in raw else ""
            print(f"{name} [{END_TO_END[name]}]{scaled} {describe(values)}")
        print(f"failed_frac = {n_failed} failed / {w.pairs} pairs attempted per pass")
        metrics = {name: {"value": statistics.median(values), "unit": END_TO_END[name]}
                   for name, values in samples.items()}
    else:
        # Layer timings are scaled by their pass's overall factor.
        per_pass = [{name: (value * r.reference_seconds / r.seconds if unit in TIME_UNITS
                            else value, unit, better)
                     for name, (value, unit, better) in layer_metrics(ctx, table, r).items()}
                    for r, table in traced]
        errors += [f"trace count {name} differs between passes"
                   for name, (value, unit, _) in per_pass[0].items()
                   if unit not in TIME_UNITS and any(p[name][0] != value for p in per_pass)]
        layers = {name: (statistics.median_low(p[name][0] for p in per_pass), unit, better)
                  for name, (_, unit, better) in per_pass[0].items()}
        speed = statistics.median(speeds)
        layers.update((name, (value * speed, unit, better))
                      for name, (value, unit, better) in isolated_kernels(args.seed).items())
        overhead = (statistics.median(r.reference_seconds for r, _ in traced)
                    - statistics.median(p.reference_seconds for p in passes))
        layers["trace.overhead_s"] = (overhead, "s", "lower")
        for name, (value, unit, _) in layers.items():
            print(f"{name} [{unit}] {value:.6g}")
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                                 for s in tracer.spans],
                       "dropped_spans": tracer.dropped_spans,
                       "leaves": [{"parent": p, "name": n, "calls": c, "s": s, "units": u}
                                  for (p, n), (c, s, u) in sorted(traced[-1][1].items())]},
                      handle)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layers.items()}

    shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
