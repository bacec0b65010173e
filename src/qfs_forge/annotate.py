"""Drive a completion backend to recover one query per summary sentence.

The completion is expected to be a numbered list mirroring the numbered
summary in the prompt; parsing enforces that one-to-one correspondence.
Failures are retried a bounded number of times and always keep the raw
completion for audit.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass

from .backends import (
    QUERY_GEN_PARAMS,
    BackendError,
    CompletionBackend,
    CompletionParams,
    map_ordered,
)
from .corpus import (
    AnnotatedTriplet,
    DocumentSummaryPair,
    QfsError,
    normalize_query,
    segment_sentences,
)
from .prompts import PromptSpec, build_annotation_prompt, numbered_lines
from .taxonomy import classify_query
from .tokenizer import nth_token_chunk

log = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_PARSE_MISMATCH = "parse_mismatch"
STATUS_BACKEND_ERROR = "backend_error"
# every status an annotated pair can end with, in report order
STATUSES = (STATUS_OK, STATUS_PARSE_MISMATCH, STATUS_BACKEND_ERROR)

QFS_INPUT_TEMPLATE = "question:\n {query} \n context:\n{document}"
ZERO_SHOT_INSTRUCTION = "Summarize by answering the following questions:"

# Documents longer than this (shared-tokenizer tokens) are tail-truncated
# before prompting; completion endpoints have finite context.
DEFAULT_MAX_DOCUMENT_TOKENS = 3000

_YESNO_LABEL = re.compile(r"^(?:yes|no)\s*:\s*", re.IGNORECASE)


class ParseMismatchError(QfsError, ValueError):
    """Completion did not contain the expected contiguous numbered queries."""


@dataclass(frozen=True)
class AnnotationOutcome:
    status: str
    triplet: AnnotatedTriplet | None
    attempts: int
    raw_completion: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == STATUS_OK) != (self.triplet is not None):
            raise ValueError("triplet must be present exactly when status is ok")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def parse_completion(
    completion: str, expected_count: int | None, mode: str = "wh"
) -> list[str]:
    """Extract the numbered queries from a completion.

    Lines must be numbered contiguously from 1. With ``expected_count``
    set, exactly that many queries are required; ``None`` relaxes the
    count (any contiguous list is accepted), which query unification uses.
    In yesno mode an optional leading "Yes:"/"No:" label is stripped, and a
    line holding nothing but the label is a mismatch.
    """
    if expected_count is not None and expected_count < 1:
        raise ValueError("expected_count must be >= 1")
    numbered = numbered_lines(completion)
    if expected_count is not None and len(numbered) != expected_count:
        raise ParseMismatchError(
            f"expected {expected_count} numbered queries, found {len(numbered)}"
        )
    if not numbered:
        raise ParseMismatchError("no numbered lines in completion")
    for position, (number, _) in enumerate(numbered, start=1):
        if number != position:
            raise ParseMismatchError(
                f"numbering not contiguous: expected {position}, found {number}"
            )
    queries = [text for _, text in numbered]
    if mode == "yesno":
        queries = [_YESNO_LABEL.sub("", q, count=1) for q in queries]
        if not all(queries):
            raise ParseMismatchError("a yes/no label with no question after it")
    return queries


def repair_queries(
    completion: str, expected_count: int, mode: str, summary_sentences: list[str]
) -> list[str]:
    """Best-effort coercion of a mismatched completion to the expected count.

    Takes whatever numbered lines exist (ignoring contiguity), trims
    extras, and pads the deficit with a generic question derived from the
    uncovered summary sentence. A bare "Yes:"/"No:" line holds no question
    and is dropped. Only used when failure_action="repair".
    """
    numbered = [text for _, text in numbered_lines(completion)]
    if mode == "yesno":
        numbered = [q for q in (_YESNO_LABEL.sub("", q, count=1) for q in numbered) if q]
    queries = numbered[:expected_count]
    while len(queries) < expected_count:
        sentence = summary_sentences[len(queries)]
        topic = " ".join(sentence.rstrip(".!?").split()[:4]) or "this"
        queries.append(f"What does the text say about {topic}?")
    return queries


def truncate_document(document: str, max_tokens: int) -> str:
    """Cut the document tail at a whitespace boundary after max_tokens tokens."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    chunks = document.split()
    end = nth_token_chunk(chunks, max_tokens) + 1
    if end >= len(chunks):
        return document
    return " ".join(chunks[:end])


def annotate_pair(
    pair: DocumentSummaryPair,
    spec: PromptSpec,
    backend: CompletionBackend,
    retries: int = 2,
    params: CompletionParams = QUERY_GEN_PARAMS,
    max_document_tokens: int = DEFAULT_MAX_DOCUMENT_TOKENS,
    failure_action: str = "drop",
) -> AnnotationOutcome:
    """Annotate one pair, retrying on parse mismatch or backend error."""
    prompt_pair = pair
    truncated = truncate_document(pair.document, max_document_tokens)
    if truncated != pair.document:
        prompt_pair = DocumentSummaryPair(
            id=pair.id, document=truncated, summary=pair.summary, domain=pair.domain
        )
    prompt = build_annotation_prompt(prompt_pair, spec)
    summary_sentences = segment_sentences(pair.summary)
    expected = len(summary_sentences)

    status = STATUS_BACKEND_ERROR
    raw = ""
    attempts = 0
    for _ in range(retries + 1):
        attempts += 1
        try:
            raw = backend.complete(prompt, params)
        except BackendError as exc:
            status = STATUS_BACKEND_ERROR
            raw = str(exc)
            continue
        try:
            queries = parse_completion(raw, expected, spec.mode)
        except ParseMismatchError:
            status = STATUS_PARSE_MISMATCH
            continue
        return _ok_outcome(pair, spec.mode, queries, attempts, raw)

    if status == STATUS_PARSE_MISMATCH and failure_action == "repair":
        queries = repair_queries(raw, expected, spec.mode, summary_sentences)
        return _ok_outcome(pair, spec.mode, queries, attempts, raw)
    log.info("pair %r: %s after %d attempts", pair.id, status, attempts)
    return AnnotationOutcome(status=status, triplet=None, attempts=attempts, raw_completion=raw)


def _ok_outcome(
    pair: DocumentSummaryPair, mode: str, queries: list[str], attempts: int, raw: str
) -> AnnotationOutcome:
    normalized = tuple(normalize_query(q) for q in queries)
    triplet = AnnotatedTriplet(
        id=pair.id,
        document=pair.document,
        summary=pair.summary,
        queries=normalized,
        mode=mode,
        query_types=tuple(classify_query(q).value for q in normalized),
    )
    return AnnotationOutcome(
        status=STATUS_OK, triplet=triplet, attempts=attempts, raw_completion=raw
    )


def annotate_corpus(
    pairs: list[DocumentSummaryPair],
    spec: PromptSpec,
    backend: CompletionBackend,
    parallelism: int = 1,
    retries: int = 2,
    params: CompletionParams = QUERY_GEN_PARAMS,
    max_document_tokens: int = DEFAULT_MAX_DOCUMENT_TOKENS,
    failure_action: str = "drop",
) -> list[AnnotationOutcome]:
    """Annotate pairs with bounded parallelism; results come back in input order."""

    def work(pair: DocumentSummaryPair) -> AnnotationOutcome:
        return annotate_pair(
            pair,
            spec,
            backend,
            retries=retries,
            params=params,
            max_document_tokens=max_document_tokens,
            failure_action=failure_action,
        )

    outcomes = map_ordered(work, pairs, parallelism)
    log.info("annotated %s", describe_outcomes(outcomes))
    return outcomes


def describe_outcomes(outcomes: list[AnnotationOutcome]) -> str:
    """``"3 pairs: 3 ok, 0 parse_mismatch, 0 backend_error"``: the outcomes counted by status."""
    counts = Counter(outcome.status for outcome in outcomes)
    return f"{len(outcomes)} pairs: " + ", ".join(f"{counts[s]} {s}" for s in STATUSES)


def build_qfs_input(query: str, document: str) -> str:
    """Render the query-focused summarization input string, byte-exactly."""
    if not query.strip():
        raise ValueError("query must be non-empty")
    if not document.strip():
        raise ValueError("document must be non-empty")
    return QFS_INPUT_TEMPLATE.format(query=query, document=document)


def zero_shot_summarize_prompt(query: str, document: str) -> str:
    """Instruction-first prompt for zero-shot query-focused summarization."""
    if not query.strip():
        raise ValueError("query must be non-empty")
    if not document.strip():
        raise ValueError("document must be non-empty")
    return f"{ZERO_SHOT_INSTRUCTION}\n{query}\n{document}"
