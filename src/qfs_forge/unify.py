"""Query unification: turn topic words, phrases, or instructions into
natural questions.

The raw query is treated as a pseudo-summary and handed to a query
generator together with the document; whatever that generator is (a
fine-tuned model behind HTTP, a completion endpoint prompted with the
annotation prompt, or a mock) it fills the same role. A deterministic
template fallback exists for ablation comparisons.
"""

from __future__ import annotations

import re
from typing import Protocol, runtime_checkable

from .annotate import ParseMismatchError, parse_completion
from .backends import QUERY_GEN_PARAMS, CompletionBackend, CompletionParams, map_ordered
from .corpus import DocumentSummaryPair
from .prompts import PromptSpec, build_annotation_prompt

# Every query format but natural questions, with the template style that
# turns it into one; natural questions pass through untouched.
FORMAT_TEMPLATE_STYLE = {
    "words": "newts",
    "phrases": "newts",
    "sentence": "newts",
    "instruction": "duc",
}
QUERY_FORMATS = ("natural", *FORMAT_TEMPLATE_STYLE)

_DUC_VERB_MAP = {
    "describe": "What is",
    "identify": "What are",
    "discuss": "What about",
}


class UnifyError(ValueError):
    pass


@runtime_checkable
class GeneratorBackend(Protocol):
    """The document+pseudo-summary -> query role."""

    def generate_query(self, document: str, pseudo_summary: str) -> str: ...


class EchoGenerator:
    """Mock generator: returns the pseudo-summary as a question."""

    def generate_query(self, document: str, pseudo_summary: str) -> str:
        text = pseudo_summary.strip().rstrip(".!")
        return text if text.endswith("?") else text + "?"


class PromptedGenerator:
    """Fill the generator role with a completion backend.

    Builds the same annotation prompt used for corpus construction, with
    the raw query standing in as the summary, and parses the numbered
    completion (relaxed count).
    """

    def __init__(
        self,
        backend: CompletionBackend,
        spec: PromptSpec,
        params: CompletionParams = QUERY_GEN_PARAMS,
    ):
        self._backend = backend
        self._spec = spec
        self._params = params

    def generate_query(self, document: str, pseudo_summary: str) -> str:
        pair = DocumentSummaryPair(
            id="unify",
            document=document,
            summary=pseudo_summary,
            domain=self._spec.domain,
        )
        prompt = build_annotation_prompt(pair, self._spec)
        return self._backend.complete(prompt, self._params)


def unify_query(document: str, raw_query: str, gen: GeneratorBackend) -> str:
    """Generate a natural-question version of an arbitrary-format query.

    When the generator emits numbered lines they are re-segmented to one
    question per line; otherwise the generation is returned verbatim.
    """
    if not document.strip():
        raise UnifyError("document must be non-empty")
    if not raw_query.strip():
        raise UnifyError("raw query must be non-empty")
    generated = gen.generate_query(document, raw_query)
    generated = (generated or "").strip()
    if not generated:
        raise UnifyError("query generator returned empty text")
    if re.search(r"^\s*1\.\s", generated, flags=re.MULTILINE):
        try:
            return "\n".join(parse_completion(generated, expected_count=None))
        except ParseMismatchError:
            pass
    return generated


def template_fallback(raw_query: str, style: str) -> str:
    """Deterministic template conversion used for the unification ablation."""
    raw_query = raw_query.strip()
    if not raw_query:
        raise UnifyError("raw query must be non-empty")
    if style == "newts":
        return f"What does the article say about {raw_query}?"
    if style == "duc":
        text = raw_query
        if text.endswith("."):
            text = text[:-1] + "?"
        elif not text.endswith("?"):
            text += "?"
        first, _, rest = text.partition(" ")
        replacement = _DUC_VERB_MAP.get(first.lower())
        if replacement and rest:
            return f"{replacement} {rest}"
        return text
    raise UnifyError(f"unknown template style {style!r}")


def unify_batch(
    documents: list[str],
    raw_queries: list[str],
    gen: GeneratorBackend,
    parallelism: int = 1,
) -> list[str]:
    """unify_query over aligned lists; results in input order."""
    if len(documents) != len(raw_queries):
        raise UnifyError("documents and raw_queries must be aligned")
    if parallelism < 1:
        raise UnifyError("parallelism must be >= 1")
    return map_ordered(
        lambda dq: unify_query(dq[0], dq[1], gen), list(zip(documents, raw_queries)), parallelism
    )
