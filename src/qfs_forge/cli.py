"""qfs-forge command line: the pipeline as subcommands over JSONL files.

Subcommands: annotate, classify, stats, unify, compose, evaluate. Each
writes one output (annotate, triplets plus an audit) and never a file it
reads. Identical inputs give byte-identical outputs: on the generated mock
at any parallelism, and on a scripted mock, which runs only at parallelism 1.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import closing
from dataclasses import asdict

from .backends import map_ordered
from .config import _PATH_KEYS, ConfigError, RunConfig, load_config
from .corpus import (
    DOCUMENT,
    DOMAINS,
    FORMAT_TEMPLATE_STYLE,
    QUERY_FORMATS,
    STRING,
    SUMMARY,
    TEXT,
    TEXTS,
    CorpusError,
    QfsError,
    load_corpus,
    load_triplets,
    read_records,
    temp_path,
    write_jsonl,
    write_triplets,
)

# each flag that names a config key, by its argparse name: "section.key" is a key of that section
_CONFIG_FLAGS = {
    "seed": "backend.seed",
    **{name: name for name in ("parallelism", "token_budget", "query_format", "recall_only")},
    **{name: f"paths.{name}" for name in _PATH_KEYS},
}

# Each command imports its own stage module, so a run loads only the stage it uses.


def cmd_annotate(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .annotate import annotate_pair, describe_outcomes

    pairs = load_corpus(paths["input"])
    # each domain's spec checks the example file's domain, before any backend call
    specs = {domain: config.prompt_spec(domain) for domain in {pair.domain for pair in pairs}}
    with closing(config.backend.build()) as backend:
        outcomes = map_ordered(
            lambda pair: annotate_pair(
                pair,
                specs[pair.domain],
                backend,
                retries=config.retries,
                params=config.completion_params(),
                max_document_tokens=config.max_document_tokens,
                failure_action=config.failure_action,
            ),
            pairs,
            config.parallelism,
        )

    failures = [
        {
            "id": pair.id,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "raw_completion": outcome.raw_completion,
        }
        for pair, outcome in zip(pairs, outcomes)
        if not outcome.ok
    ]
    # the audit first: new triplets never sit beside an earlier run's audit
    write_jsonl(paths["audit"], failures)
    write_triplets([outcome.triplet for outcome in outcomes if outcome.ok], paths["output"])

    failure_rate = len(failures) / len(outcomes) if outcomes else 0.0
    print(f"annotated {describe_outcomes(outcomes)} -> {paths['output']}")
    return 0 if failure_rate <= config.failure_ceiling else 1


def cmd_classify(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .taxonomy import QueryType, aggregate_distribution, classify_query, format_distribution_table

    triplets = load_triplets(paths["input"])
    if not triplets:
        raise CorpusError(f"{paths['input']}: no triplets to classify")
    by_mode: dict[str, list[QueryType]] = {}
    for triplet in triplets:
        bucket = by_mode.setdefault(triplet.mode, [])
        bucket += [classify_query(q) for q in triplet.queries]
    rows = {mode: aggregate_distribution(types) for mode, types in sorted(by_mode.items())}
    write_jsonl(
        paths["output"], ({"row": label, **dist.to_record()} for label, dist in rows.items())
    )
    print(format_distribution_table(rows))
    return 0


def cmd_stats(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .stats import corpus_stats, format_stats_table

    triplets = load_triplets(paths["input"])
    if not triplets:
        raise CorpusError(f"{paths['input']}: no triplets to measure")
    stats = corpus_stats(triplets, ntp_numerator=config.ntp_numerator)
    write_jsonl(paths["output"], [{"row": "corpus", **stats.to_record()}])
    print(format_stats_table({"corpus": stats}))
    return 0


def cmd_unify(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .unify import PromptedGenerator, template_fallback, unify_batch

    # a query stands in for the summary of the generator's pseudo-pair
    records = read_records(
        paths["input"], {"id": STRING, "document": DOCUMENT, "query": SUMMARY}, dict, unique="id"
    )

    if config.query_format not in FORMAT_TEMPLATE_STYLE:  # natural questions
        unified = [record["query"] for record in records]
    elif args.strategy == "template":
        style = FORMAT_TEMPLATE_STYLE[config.query_format]
        unified = [template_fallback(record["query"], style) for record in records]
    else:
        spec = config.prompt_spec(args.domain)  # checks the example file's domain first
        with closing(config.backend.build()) as backend:
            generator = PromptedGenerator(backend, spec, params=config.completion_params())
            unified = unify_batch(
                [record["document"] for record in records],
                [record["query"] for record in records],
                generator,
                parallelism=config.parallelism,
            )
    for record, query in zip(records, unified):
        record["query"] = query
    write_jsonl(paths["output"], records)
    print(
        f"unified {len(records)} queries ({config.query_format}, {args.strategy})"
        f" -> {paths['output']}"
    )
    return 0


def cmd_compose(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .compose import CompositionConfig, compose_cluster

    clusters = read_records(
        paths["input"],
        {"cluster_id": STRING, "query": TEXT, "documents": TEXTS},
        dict,
        unique="cluster_id",
    )
    with closing(config.backend.build()) as backend:
        cfg = CompositionConfig(
            backend=backend,
            overlap_threshold=config.overlap_threshold,
            token_budget=config.token_budget,
            params=config.summarization_params(),
            on_overflow=config.on_overflow,
            parallelism=config.parallelism,
        )
        results = [
            {
                "cluster_id": cluster["cluster_id"],
                **asdict(compose_cluster(cluster["documents"], cluster["query"], cfg)),
            }
            for cluster in clusters
        ]
    write_jsonl(paths["output"], results)
    print(f"composed {len(results)} clusters -> {paths['output']}")
    return 0


def cmd_evaluate(config: RunConfig, args: argparse.Namespace, paths: dict[str, str]) -> int:
    from .rouge import evaluate_run

    report = evaluate_run(paths["predictions"], paths["references"])
    write_jsonl(paths["output"], report.to_records())
    print(report.format_table(recall_only=config.recall_only))
    return 0


def resolve_paths(
    config: RunConfig, reads: tuple, writes: tuple, config_file: str | None = None
) -> dict[str, str]:
    """The paths a command reads and writes, by key; the audit defaults to
    ``<output>.failures.jsonl``. A missing path is a ConfigError, and so is a
    written path, or the temporary file it is written to, that an earlier
    key names, as writing it would replace that file. The config file, and
    the example and script files it names, count as read paths of every
    command."""
    paths, names = {}, {}  # names: what first named each real path
    config_files = {
        "the config file": config_file,
        "the example_path file": config.example_path,
        "the backend.script file": config.backend.script,
    }
    for name, file in config_files.items():
        if file:
            names.setdefault(os.path.realpath(file), name)
    for key in reads + writes:
        audit = key == "audit" and not config.paths.get(key)
        path = paths[key] = paths["output"] + ".failures.jsonl" if audit else config.path(key)
        files = {path: f"the {key} path"}
        if key in writes:
            files[temp_path(path)] = f"the {key} path's temporary file"
        for file, name in files.items():
            other = names.setdefault(os.path.realpath(file), name)
            if key in writes and other != name:
                temp = "" if file == path else f": its temporary file {file!r}"
                raise ConfigError(f"{key} path {path!r}{temp} is {other}")
    return paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfs-forge",
        description="Convert generic summarization corpora into query-focused triplets "
        "and evaluate query-focused summaries.",
    )
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="override the mock backend seed")
    parser.add_argument("--parallelism", type=int, help="override worker count")
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    annotate = commands.add_parser("annotate", help="generate queries for a pair corpus")
    annotate.add_argument("--input", help="document-summary pairs (jsonl)")
    annotate.add_argument("--output", help="triplet output path (jsonl)")
    annotate.add_argument("--audit", help="failure audit path (default: <output>.failures.jsonl)")
    annotate.set_defaults(func=cmd_annotate, reads=("input",), writes=("output", "audit"))

    classify = commands.add_parser("classify", help="query-type distribution of triplets")
    classify.add_argument("--input", help="triplets (jsonl)")
    classify.add_argument("--output", help="distribution report path (jsonl)")
    classify.set_defaults(func=cmd_classify, reads=("input",), writes=("output",))

    stats = commands.add_parser("stats", help="length/NTP/correlation statistics")
    stats.add_argument("--input", help="triplets (jsonl)")
    stats.add_argument("--output", help="stats report path (jsonl)")
    stats.set_defaults(func=cmd_stats, reads=("input",), writes=("output",))

    unify = commands.add_parser("unify", help="convert raw queries to natural questions")
    unify.add_argument("--input", help="records with id/document/query (jsonl)")
    unify.add_argument("--output", help="unified records path (jsonl)")
    unify.add_argument(
        "--query-format",
        choices=sorted(QUERY_FORMATS),
        help="format tag of the incoming queries (default from config)",
    )
    unify.add_argument(
        "--strategy",
        choices=("backend", "template"),
        default="backend",
        help="generator backend or deterministic template fallback",
    )
    unify.add_argument(
        "--domain",
        choices=DOMAINS,
        help="one-shot example domain for the prompted generator "
        "(default: the example's own, news for the built-in one)",
    )
    unify.set_defaults(func=cmd_unify, reads=("input",), writes=("output",))

    compose = commands.add_parser("compose", help="multi-document composition")
    compose.add_argument("--input", help="clusters with cluster_id/query/documents (jsonl)")
    compose.add_argument("--output", help="composed summaries path (jsonl)")
    compose.add_argument("--token-budget", type=int, dest="token_budget")
    compose.set_defaults(func=cmd_compose, reads=("input",), writes=("output",))

    evaluate = commands.add_parser("evaluate", help="ROUGE evaluation of predictions")
    evaluate.add_argument("--predictions", help="records with id/text (jsonl)")
    evaluate.add_argument("--references", help="records with id/text (jsonl)")
    evaluate.add_argument("--output", help="report path (jsonl)")
    evaluate.add_argument("--recall-only", action="store_true", default=None)
    evaluate.set_defaults(
        func=cmd_evaluate, reads=("predictions", "references"), writes=("output",)
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # a path that is not UTF-8 reaches a summary line as lone surrogates, which strict stdout refuses
    if sys.stdout.errors == "strict":
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        # a subcommand without one of these flags leaves its key to the file
        flags = {key: getattr(args, name, None) for name, key in _CONFIG_FLAGS.items()}
        config = load_config(args.config, **flags)
        paths = resolve_paths(config, args.reads, args.writes, args.config)
        return args.func(config, args, paths)
    except (QfsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
