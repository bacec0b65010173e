"""qfs-forge: build and evaluate query-focused summarization corpora."""

from .annotate import (
    AnnotationOutcome,
    ParseMismatchError,
    annotate_corpus,
    annotate_pair,
    build_qfs_input,
    parse_completion,
    zero_shot_summarize_prompt,
)
from .backends import (
    BackendError,
    CompletionBackend,
    CompletionParams,
    MockBackend,
    QUERY_GEN_PARAMS,
    SUMMARIZATION_PARAMS,
)
from .compose import (
    CompositionConfig,
    ComposeResult,
    compose_cluster,
    overlap_pct,
    rank_documents,
)
from .corpus import (
    AnnotatedTriplet,
    DocumentSummaryPair,
    QfsError,
    load_corpus,
    load_triplets,
    segment_sentences,
    write_triplets,
)
from .prompts import (
    OneShotExample,
    PromptSpec,
    build_annotation_prompt,
    builtin_example,
    default_spec,
    number_sentences,
)
from .rouge import RougeScore, evaluate_run, rouge_l, rouge_n
from .stats import CorpusStats, corpus_stats, ntp, pearson
from .taxonomy import QueryType, QueryTypeDistribution, aggregate_distribution, classify_query
from .tokenizer import tokenize
from .unify import template_fallback, unify_query

__version__ = "0.1.0"

__all__ = [
    "AnnotatedTriplet",
    "AnnotationOutcome",
    "BackendError",
    "CompletionBackend",
    "CompletionParams",
    "ComposeResult",
    "CompositionConfig",
    "CorpusStats",
    "DocumentSummaryPair",
    "LiveBackend",
    "MockBackend",
    "OneShotExample",
    "ParseMismatchError",
    "PromptSpec",
    "QUERY_GEN_PARAMS",
    "QfsError",
    "QueryType",
    "QueryTypeDistribution",
    "RougeScore",
    "SUMMARIZATION_PARAMS",
    "aggregate_distribution",
    "annotate_corpus",
    "annotate_pair",
    "build_annotation_prompt",
    "build_qfs_input",
    "builtin_example",
    "classify_query",
    "compose_cluster",
    "corpus_stats",
    "default_spec",
    "evaluate_run",
    "load_corpus",
    "load_triplets",
    "ntp",
    "number_sentences",
    "overlap_pct",
    "parse_completion",
    "pearson",
    "rank_documents",
    "rouge_l",
    "rouge_n",
    "segment_sentences",
    "template_fallback",
    "tokenize",
    "unify_query",
    "write_triplets",
    "zero_shot_summarize_prompt",
]


def __getattr__(name):
    # PEP 562: ``LiveBackend`` is imported on first use, so a mock run never
    # loads http.client, ssl or email
    if name == "LiveBackend":
        from .live import LiveBackend

        return LiveBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
