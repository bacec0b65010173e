"""qfs-forge command line: the pipeline as subcommands over JSONL files.

Subcommands: annotate, classify, stats, unify, compose, evaluate. Every
command reads its declared inputs, writes one output/report file, and is
re-runnable: identical inputs plus mock backends give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import closing

from .annotate import STATUS_OK, annotate_corpus, summarize_outcomes
from .backends import BackendError
from .compose import ComposeError, CompositionConfig, compose_cluster
from .config import ConfigError, RunConfig, load_config
from .corpus import (
    CorpusError,
    InvariantError,
    _require_fields,
    load_corpus,
    load_triplets,
    read_jsonl,
    write_jsonl,
    write_triplets,
)
from .prompts import PromptError
from .rouge import RougeError, evaluate_run
from .stats import StatsError, corpus_stats, format_stats_table
from .taxonomy import (
    QueryType,
    TaxonomyError,
    aggregate_distribution,
    classify_query,
    format_distribution_table,
)
from .unify import (
    FORMAT_TEMPLATE_STYLE,
    QUERY_FORMATS,
    PromptedGenerator,
    UnifyError,
    template_fallback,
    unify_batch,
)

log = logging.getLogger("qfs_forge")

_USER_ERRORS = (
    ConfigError,
    CorpusError,
    InvariantError,
    PromptError,
    BackendError,
    ComposeError,
    RougeError,
    StatsError,
    TaxonomyError,
    UnifyError,
    OSError,
)


def cmd_annotate(config: RunConfig, args: argparse.Namespace) -> int:
    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    audit_path = args.audit or config.paths.get("audit", output_path + ".failures.jsonl")

    pairs = load_corpus(input_path)
    domains = {pair.domain for pair in pairs}
    specs = {domain: config.prompt_spec(domain) for domain in domains}

    outcomes = []
    with closing(config.backend.build()) as backend:
        for domain in sorted(domains):
            domain_pairs = [p for p in pairs if p.domain == domain]
            outcomes += list(
                zip(
                    domain_pairs,
                    annotate_corpus(
                        domain_pairs,
                        specs[domain],
                        backend,
                        parallelism=config.parallelism,
                        retries=config.retries,
                        params=config.completion_params(),
                        max_document_tokens=config.max_document_tokens,
                        failure_action=config.failure_action,
                    ),
                )
            )
    # restore input order across domains
    position = {pair.id: i for i, pair in enumerate(pairs)}
    outcomes.sort(key=lambda item: position[item[0].id])

    triplets = [outcome.triplet for _, outcome in outcomes if outcome.ok]
    write_triplets(triplets, output_path)
    failures = [
        {
            "id": pair.id,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "raw_completion": outcome.raw_completion,
        }
        for pair, outcome in outcomes
        if not outcome.ok
    ]
    write_jsonl(audit_path, failures)

    counts = summarize_outcomes([outcome for _, outcome in outcomes])
    total = len(outcomes)
    failure_rate = (total - counts[STATUS_OK]) / total if total else 0.0
    print(
        f"annotated {total} pairs: {counts[STATUS_OK]} ok, "
        f"{counts['parse_mismatch']} parse_mismatch, "
        f"{counts['backend_error']} backend_error -> {output_path}"
    )
    return 0 if failure_rate <= config.failure_ceiling else 1


def cmd_classify(config: RunConfig, args: argparse.Namespace) -> int:
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
    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    triplets = load_triplets(input_path)
    stats = corpus_stats(triplets, ntp_numerator=config.ntp_numerator)
    write_jsonl(output_path, [{"row": "corpus", **stats.to_record()}])
    print(format_stats_table({"corpus": stats}))
    return 0


def cmd_unify(config: RunConfig, args: argparse.Namespace) -> int:
    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    records = []
    for line_no, record in read_jsonl(input_path):
        _require_fields(record, ("id", "document", "query"), line_no, input_path)
        records.append(record)

    query_format = args.query_format or config.query_format
    if query_format not in FORMAT_TEMPLATE_STYLE:  # natural questions
        unified = [record["query"] for record in records]
    elif args.strategy == "template":
        style = FORMAT_TEMPLATE_STYLE[query_format]
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
    print(f"unified {len(records)} queries ({query_format}, {args.strategy}) -> {output_path}")
    return 0


def cmd_compose(config: RunConfig, args: argparse.Namespace) -> int:
    input_path = config.path("input", args.input)
    output_path = config.path("output", args.output)
    clusters = []
    for line_no, cluster in read_jsonl(input_path):
        _require_fields(cluster, ("cluster_id", "query"), line_no, input_path)
        docs = cluster.get("documents")
        if not (isinstance(docs, list) and docs and all(isinstance(d, str) for d in docs)):
            raise CorpusError(
                f"{input_path}:{line_no}: 'documents' must be a non-empty list of strings"
            )
        clusters.append(cluster)
    token_budget = config.token_budget if args.token_budget is None else args.token_budget
    with closing(config.backend.build()) as backend:
        try:
            cfg = CompositionConfig(
                backend=backend,
                overlap_threshold=config.overlap_threshold,
                token_budget=token_budget,
                params=config.summarization_params(),
                on_overflow=config.on_overflow,
                parallelism=config.parallelism,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
    predictions = config.path("predictions", args.predictions)
    references = config.path("references", args.references)
    output_path = config.path("output", args.output)
    report = evaluate_run(predictions, references)
    write_jsonl(output_path, report.to_records())
    print(report.format_table(recall_only=args.recall_only or config.recall_only))
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
    evaluate.add_argument("--recall-only", action="store_true")
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
        config = load_config(args.config)
        if args.seed is not None:
            config.backend.seed = args.seed
        if args.parallelism is not None:
            config.parallelism = args.parallelism
        config.validate()
        return args.func(config, args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
