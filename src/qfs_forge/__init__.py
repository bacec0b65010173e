"""qfs-forge: build and evaluate query-focused summarization corpora.

Every public name is imported from its home module on first use (PEP 562),
so a run loads only the stages it touches: a mock run never loads the HTTP
stack, and an evaluate run never loads annotate or compose.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "annotate": ("AnnotationOutcome", "annotate_corpus", "annotate_pair"),
    "backends": (
        "BackendError",
        "CompletionBackend",
        "CompletionParams",
        "MockBackend",
        "QUERY_GEN_PARAMS",
        "SUMMARIZATION_PARAMS",
    ),
    "compose": (
        "CompositionConfig",
        "ComposeResult",
        "compose_cluster",
        "overlap_pct",
        "rank_documents",
    ),
    "corpus": (
        "AnnotatedTriplet",
        "DocumentSummaryPair",
        "QfsError",
        "load_corpus",
        "load_triplets",
        "segment_sentences",
        "write_triplets",
    ),
    "live": ("LiveBackend",),
    "prompts": (
        "OneShotExample",
        "ParseMismatchError",
        "PromptSpec",
        "build_annotation_prompt",
        "build_qfs_input",
        "builtin_example",
        "default_spec",
        "number_sentences",
        "parse_completion",
    ),
    "rouge": ("RougeScore", "evaluate_run", "rouge_l", "rouge_n"),
    "stats": ("CorpusStats", "corpus_stats", "ntp", "pearson"),
    "taxonomy": ("QueryType", "QueryTypeDistribution", "aggregate_distribution", "classify_query"),
    "tokenizer": ("tokenize",),
    "unify": ("template_fallback", "unify_query"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # runs once per name: the value is cached as a plain module attribute
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:  # a module reached as an attribute: qfs_forge.unify
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
