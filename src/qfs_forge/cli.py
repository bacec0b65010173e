"""qfs-forge command line: the pipeline as subcommands over JSONL files.

Subcommands: annotate, classify, stats, unify, compose, evaluate. Every
command reads its declared inputs, writes one output/report file, and is
re-runnable: identical inputs plus mock backends give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import closing

from .backends import map_ordered
from .config import ConfigError, RunConfig, load_config
from .corpus import (
    DOCUMENT,
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
    write_jsonl,
    write_triplets,
)

# the flags that name a config key: "seed" names backend.seed, the rest their own key
_CONFIG_FLAGS = ("seed", "parallelism", "token_budget", "query_format", "recall_only")

# Each command imports its own stage module, so a run loads only the stage it uses.


def cmd_annotate(config: RunConfig, args: argparse.Namespace) -> int:
    from .annotate import annotate_pair, describe_outcomes

    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    audit_path = args.audit or config.paths.get("audit", output_path + ".failures.jsonl")
    if os.path.realpath(audit_path) == os.path.realpath(output_path):
        # the audit, written last, would be renamed over the triplets
        raise ConfigError(f"audit path {audit_path!r} is the output path")

    pairs = load_corpus(input_path)
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

    triplets = [outcome.triplet for outcome in outcomes if outcome.ok]
    write_triplets(triplets, output_path)
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
    write_jsonl(audit_path, failures)

    failure_rate = len(failures) / len(outcomes) if outcomes else 0.0
    print(f"annotated {describe_outcomes(outcomes)} -> {output_path}")
    return 0 if failure_rate <= config.failure_ceiling else 1


def cmd_classify(config: RunConfig, args: argparse.Namespace) -> int:
    from .taxonomy import QueryType, aggregate_distribution, classify_query, format_distribution_table

    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    triplets = load_triplets(input_path)
    if not triplets:
        raise CorpusError(f"{input_path}: no triplets to classify")
    by_mode: dict[str, list[QueryType]] = {}
    for triplet in triplets:
        bucket = by_mode.setdefault(triplet.mode, [])
        bucket += [classify_query(q) for q in triplet.queries]
    rows = {mode: aggregate_distribution(types) for mode, types in sorted(by_mode.items())}
    write_jsonl(
        output_path, ({"row": label, **dist.to_record()} for label, dist in rows.items())
    )
    print(format_distribution_table(rows))
    return 0


def cmd_stats(config: RunConfig, args: argparse.Namespace) -> int:
    from .stats import corpus_stats, format_stats_table

    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    triplets = load_triplets(input_path)
    if not triplets:
        raise CorpusError(f"{input_path}: no triplets to measure")
    stats = corpus_stats(triplets, ntp_numerator=config.ntp_numerator)
    write_jsonl(output_path, [{"row": "corpus", **stats.to_record()}])
    print(format_stats_table({"corpus": stats}))
    return 0


def cmd_unify(config: RunConfig, args: argparse.Namespace) -> int:
    from .unify import PromptedGenerator, template_fallback, unify_batch

    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    # a query stands in for the summary of the generator's pseudo-pair
    records = read_records(
        input_path, {"id": STRING, "document": DOCUMENT, "query": SUMMARY}, dict, unique="id"
    )

    if config.query_format not in FORMAT_TEMPLATE_STYLE:  # natural questions
        unified = [record["query"] for record in records]
    elif args.strategy == "template":
        style = FORMAT_TEMPLATE_STYLE[config.query_format]
        unified = [template_fallback(record["query"], style) for record in records]
    else:
        with closing(config.backend.build()) as backend:
            generator = PromptedGenerator(
                backend, config.prompt_spec(args.domain), params=config.completion_params()
            )
            unified = unify_batch(
                [record["document"] for record in records],
                [record["query"] for record in records],
                generator,
                parallelism=config.parallelism,
            )
    write_jsonl(
        output_path,
        (
            {"id": record["id"], "document": record["document"], "query": query}
            for record, query in zip(records, unified)
        ),
    )
    print(
        f"unified {len(records)} queries ({config.query_format}, {args.strategy}) -> {output_path}"
    )
    return 0


def cmd_compose(config: RunConfig, args: argparse.Namespace) -> int:
    from .compose import CompositionConfig, compose_cluster

    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    clusters = read_records(
        input_path,
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
        results = []
        for cluster in clusters:
            result = compose_cluster(cluster["documents"], cluster["query"], cfg)
            results.append(
                {
                    "cluster_id": cluster["cluster_id"],
                    "summary": result.summary,
                    "selected_doc_indices": list(result.selected_doc_indices),
                    "truncated": result.truncated,
                }
            )
    write_jsonl(output_path, results)
    print(f"composed {len(results)} clusters -> {output_path}")
    return 0


def cmd_evaluate(config: RunConfig, args: argparse.Namespace) -> int:
    from .rouge import evaluate_run

    predictions = config.path("predictions", args.predictions)
    references = config.path("references", args.references)
    output_path = config.path("output", args.output)
    report = evaluate_run(predictions, references)
    write_jsonl(output_path, report.to_records())
    print(report.format_table(recall_only=config.recall_only))
    return 0


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
    annotate.set_defaults(func=cmd_annotate)

    classify = commands.add_parser("classify", help="query-type distribution of triplets")
    classify.add_argument("--input", help="triplets (jsonl)")
    classify.add_argument("--output", help="distribution report path (jsonl)")
    classify.set_defaults(func=cmd_classify)

    stats = commands.add_parser("stats", help="length/NTP/correlation statistics")
    stats.add_argument("--input", help="triplets (jsonl)")
    stats.add_argument("--output", help="stats report path (jsonl)")
    stats.set_defaults(func=cmd_stats)

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
        choices=("news", "dialogue"),
        default="news",
        help="one-shot example domain for the prompted generator",
    )
    unify.set_defaults(func=cmd_unify)

    compose = commands.add_parser("compose", help="multi-document composition")
    compose.add_argument("--input", help="clusters with cluster_id/query/documents (jsonl)")
    compose.add_argument("--output", help="composed summaries path (jsonl)")
    compose.add_argument("--token-budget", type=int, dest="token_budget")
    compose.set_defaults(func=cmd_compose)

    evaluate = commands.add_parser("evaluate", help="ROUGE evaluation of predictions")
    evaluate.add_argument("--predictions", help="records with id/text (jsonl)")
    evaluate.add_argument("--references", help="records with id/text (jsonl)")
    evaluate.add_argument("--output", help="report path (jsonl)")
    evaluate.add_argument("--recall-only", action="store_true", default=None)
    evaluate.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # a subcommand without one of these flags leaves its key to the file
        flags = {name: getattr(args, name, None) for name in _CONFIG_FLAGS}
        config = load_config(args.config, **flags)
        return args.func(config, args)
    except (QfsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
