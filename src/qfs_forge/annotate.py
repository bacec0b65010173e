"""Drive a completion backend to recover one query per summary sentence.

The completion is expected to be a numbered list mirroring the numbered
summary in the prompt; parsing enforces that one-to-one correspondence.
Failures are retried a bounded number of times and always keep the raw
completion for audit.
"""

from __future__ import annotations

import inspect
import logging
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, replace

from .backends import (
    QUERY_GEN_PARAMS,
    BackendError,
    CompletionBackend,
    CompletionParams,
    map_ordered,
)
from .corpus import OPTION_RULES, AnnotatedTriplet, DocumentSummaryPair, InvariantError
from .corpus import check_options, normalize_query
from .prompts import (
    ParseMismatchError,
    PromptSpec,
    build_annotation_prompt,
    parse_completion,
    repair_queries,
)
from .taxonomy import classify_query
from .tokenizer import nth_token_chunk

log = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_PARSE_MISMATCH = "parse_mismatch"
STATUS_BACKEND_ERROR = "backend_error"
# every status an annotated pair can end with, in report order
STATUSES = (STATUS_OK, STATUS_PARSE_MISMATCH, STATUS_BACKEND_ERROR)

# Documents longer than this (shared-tokenizer tokens) are tail-truncated
# before prompting; completion endpoints have finite context.
DEFAULT_MAX_DOCUMENT_TOKENS = 3000


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


def truncate_document(document: str, max_tokens: int) -> str:
    """Cut the document tail at a whitespace boundary after max_tokens tokens.

    An uncut document comes back as the same object. One of fewer than
    ``2 * max_tokens`` characters comes back without being split: n
    whitespace-separated chunks take at least 2n - 1 characters, so it
    cannot hold more than max_tokens tokens.
    """
    check_options(ValueError, max_tokens=max_tokens)
    if len(document) < 2 * max_tokens:
        return document
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
    check_options(
        ValueError, retries=retries, max_document_tokens=max_document_tokens,
        failure_action=failure_action,
    )
    prompt_pair = pair
    truncated = truncate_document(pair.document, max_document_tokens)
    if truncated != pair.document:
        prompt_pair = replace(pair, document=truncated)
    prompt = build_annotation_prompt(prompt_pair, spec)

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
            queries = parse_completion(raw, len(pair.summary_sentences), spec.mode)
            return _ok_outcome(pair, spec.mode, queries, attempts, raw)
        except (ParseMismatchError, InvariantError):  # or the triplet contract refused them
            status = STATUS_PARSE_MISMATCH

    if status == STATUS_PARSE_MISMATCH and failure_action == "repair":
        queries = repair_queries(raw, pair.summary_sentences, spec.mode)
        with suppress(InvariantError):
            return _ok_outcome(pair, spec.mode, queries, attempts, raw)
    log.info("pair %r: %s after %d attempts", pair.id, status, attempts)
    return AnnotationOutcome(status=status, triplet=None, attempts=attempts, raw_completion=raw)


def _ok_outcome(
    pair: DocumentSummaryPair, mode: str, queries: list[str], attempts: int, raw: str
) -> AnnotationOutcome:
    normalized = tuple(normalize_query(q) for q in queries)
    triplet = AnnotatedTriplet.from_pair(
        pair, normalized, mode, tuple(classify_query(q).value for q in normalized)
    )
    return AnnotationOutcome(
        status=STATUS_OK, triplet=triplet, attempts=attempts, raw_completion=raw
    )


def annotate_corpus(
    pairs: list[DocumentSummaryPair],
    spec: PromptSpec,
    backend: CompletionBackend,
    parallelism: int = 1,
    **options,
) -> list[AnnotationOutcome]:
    """``annotate_pair`` over pairs with bounded parallelism, in input order;
    ``options`` are its keyword options (``retries``, ``params``, ...).

    Their names and values are checked against ``annotate_pair``'s signature
    once, before any pair is annotated, so an empty list raises as any other.
    """
    options_with_defaults = inspect.signature(annotate_pair).bind(None, spec, backend, **options)
    options_with_defaults.apply_defaults()
    arguments = options_with_defaults.arguments.items()
    check_options(ValueError, **{name: value for name, value in arguments if name in OPTION_RULES})
    outcomes = map_ordered(
        lambda pair: annotate_pair(pair, spec, backend, **options), pairs, parallelism
    )
    log.info("annotated %s", describe_outcomes(outcomes))
    return outcomes


def describe_outcomes(outcomes: list[AnnotationOutcome]) -> str:
    """``"3 pairs: 3 ok, 0 parse_mismatch, 0 backend_error"``: the outcomes counted by status."""
    counts = Counter(outcome.status for outcome in outcomes)
    return f"{len(outcomes)} pairs: " + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
