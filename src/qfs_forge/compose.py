"""Multi-document query-focused composition.

Rank the cluster's documents by TF-IDF cosine relevance to the query,
summarize each with the backend, then walk the ranking and concatenate
summaries whose token overlap with the selection so far stays under the
threshold, until the token budget is reached.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import mul

from .backends import (
    SUMMARIZATION_PARAMS,
    BackendError,
    CompletionBackend,
    CompletionParams,
    map_ordered,
)
from .corpus import QfsError, check_options
from .prompts import build_qfs_input
from .tokenizer import nth_token_chunk, tokenize

log = logging.getLogger(__name__)


class ComposeError(QfsError, RuntimeError):
    pass


@dataclass(frozen=True)
class CompositionConfig:
    backend: CompletionBackend
    overlap_threshold: float = 50.0
    token_budget: int = 250
    params: CompletionParams = SUMMARIZATION_PARAMS
    on_overflow: str = "truncate"  # or "drop": skip the overflowing summary
    parallelism: int = 1

    def __post_init__(self):
        check_options(
            ValueError, overlap_threshold=self.overlap_threshold, token_budget=self.token_budget,
            on_overflow=self.on_overflow, parallelism=self.parallelism,
        )


def _scores(docs: list[str], query: str) -> list[float]:
    """TF-IDF cosine of each document with the query.

    idf(t) = ln(N / df(t)) + 1, computed on the cluster only; the +1 keeps
    cluster-universal terms from vanishing. Query terms absent from every
    document carry no weight. Every sum is ``math.fsum``, exactly rounded,
    so a score depends neither on term order nor on the interpreter (the
    builtin ``sum`` is compensated from Python 3.12 on).
    """
    doc_counts = [Counter(tokenize(doc)) for doc in docs]
    df = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    # one log per document frequency 1..N, not one per term
    idf_by_df = [0.0] + [math.log(len(docs) / n) + 1.0 for n in range(1, len(docs) + 1)]
    idf = dict(zip(df, map(idf_by_df.__getitem__, df.values())))
    query_weights = {
        term: tf * idf[term] for term, tf in Counter(tokenize(query)).items() if term in idf
    }
    query_norm = math.sqrt(math.fsum(w * w for w in query_weights.values()))
    scores = []
    for counts in doc_counts:
        # a term on one side only adds 0.0 to the dot, so only shared terms are summed
        dot = math.fsum(
            weight * (counts[term] * idf[term])
            for term, weight in query_weights.items()
            if term in counts
        )
        if dot == 0.0:
            scores.append(0.0)
        else:
            weights = list(map(mul, counts.values(), map(idf.__getitem__, counts)))
            norm = math.sqrt(math.fsum(map(mul, weights, weights)))
            scores.append(dot / (norm * query_norm))
    return scores


def rank_documents(docs: list[str], query: str) -> list[int]:
    """Indices of docs by descending TF-IDF cosine score; ties keep input order."""
    if not docs:
        raise ComposeError("rank_documents: empty document list")
    if not query.strip():
        raise ComposeError("rank_documents: empty query")
    scores = _scores(docs, query)
    return sorted(range(len(docs)), key=lambda i: (-scores[i], i))


def overlap_pct(candidate: str, selected: str) -> float:
    """Share of candidate token occurrences whose type appears in selected."""
    return _overlap_pct(tokenize(candidate), set(tokenize(selected)))


def _overlap_pct(tokens: list[str], selected_types: set[str]) -> float:
    if not tokens:
        raise ComposeError("overlap_pct: candidate has no tokens")
    hits = sum(map(selected_types.__contains__, tokens))
    return 100.0 * hits / len(tokens)


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Prefix of ``text`` containing at most max_tokens countable tokens."""
    if max_tokens <= 0:
        return ""
    chunks = text.split()
    return " ".join(chunks[:nth_token_chunk(chunks, max_tokens + 1)])


@dataclass(frozen=True)
class ComposeResult:
    summary: str
    selected_doc_indices: tuple[int, ...] = field(default=())
    truncated: bool = False


def compose_cluster(docs: list[str], query: str, cfg: CompositionConfig) -> ComposeResult:
    """Full composition for one cluster, with selection trace."""
    if not docs:
        raise ComposeError("compose: empty document cluster")
    order = rank_documents(docs, query)

    def summarize(doc_index: int) -> str:
        try:
            text = cfg.backend.complete(build_qfs_input(query, docs[doc_index]), cfg.params)
        except BackendError as exc:
            raise ComposeError(f"summarization failed for document {doc_index}: {exc}") from exc
        return text.strip()

    summaries = map_ordered(summarize, order, cfg.parallelism)

    selected: list[str] = []
    selected_indices: list[int] = []
    selected_types: set[str] = set()
    used_tokens = 0
    truncated = False
    for doc_index, candidate in zip(order, summaries):
        tokens = tokenize(candidate)
        if not tokens:
            log.warning("summary of document %d has no tokens; not selected", doc_index)
            continue
        if _overlap_pct(tokens, selected_types) >= cfg.overlap_threshold:
            continue
        if used_tokens + len(tokens) > cfg.token_budget:
            if cfg.on_overflow == "truncate":
                cut = truncate_to_tokens(candidate, cfg.token_budget - used_tokens)
                if cut:
                    selected.append(cut)
                    selected_indices.append(doc_index)
            truncated = True
            break
        selected.append(candidate)
        selected_indices.append(doc_index)
        selected_types.update(tokens)
        used_tokens += len(tokens)
    return ComposeResult(
        summary=" ".join(selected),
        selected_doc_indices=tuple(selected_indices),
        truncated=truncated,
    )

