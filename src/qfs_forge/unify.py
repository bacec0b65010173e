"""Query unification: turn topic words, phrases, or instructions into
natural questions.

The raw query is treated as a pseudo-summary and handed, together with
the document, to a completion backend prompted with the annotation prompt
(``PromptedGenerator``). A deterministic template fallback exists for
ablation comparisons.
"""

from __future__ import annotations

from .backends import QUERY_GEN_PARAMS, CompletionBackend, CompletionParams, map_ordered
from .corpus import DOCUMENT, SUMMARY, DocumentSummaryPair, QfsError, check_options
from .prompts import ParseMismatchError, PromptSpec, build_annotation_prompt, parse_completion

_DUC_VERB_MAP = {
    "describe": "What is",
    "identify": "What are",
    "discuss": "What about",
}


class UnifyError(QfsError, ValueError):
    pass


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
        self.mode = spec.mode  # how unify_query parses the generation

    def generate_query(self, document: str, pseudo_summary: str) -> str:
        pair = DocumentSummaryPair(
            id="unify",
            document=document,
            summary=pseudo_summary,
            domain=self._spec.domain,
        )
        prompt = build_annotation_prompt(pair, self._spec)
        return self._backend.complete(prompt, self._params)


def unify_query(document: str, raw_query: str, gen: PromptedGenerator) -> str:
    """Generate a natural-question version of an arbitrary-format query.

    When the generator emits lines numbered contiguously from 1, as
    ``parse_completion`` reads them in the generator's mode, they are
    re-segmented to one question per line (a yes/no line loses its answer
    label); otherwise the generation is returned verbatim.
    """
    # the generator's pseudo-pair takes the raw query as its summary
    if not DOCUMENT.check(document):
        raise UnifyError(f"document must be {DOCUMENT.description}, got {document!r}")
    if not SUMMARY.check(raw_query):
        raise UnifyError(f"raw query must be {SUMMARY.description}, got {raw_query!r}")
    generated = gen.generate_query(document, raw_query)
    generated = (generated or "").strip()
    if not generated:
        raise UnifyError("query generator returned empty text")
    try:
        return "\n".join(parse_completion(generated, None, gen.mode))
    except ParseMismatchError:
        return generated


def template_fallback(raw_query: str, style: str) -> str:
    """Deterministic template conversion used for the unification ablation."""
    check_options(UnifyError, style=style)
    raw_query = raw_query.strip()
    if not raw_query:
        raise UnifyError("raw query must be non-empty")
    if style == "newts":
        return f"What does the article say about {raw_query}?"
    text = raw_query if raw_query.endswith("?") else raw_query.removesuffix(".") + "?"
    first, _, rest = text.partition(" ")
    replacement = _DUC_VERB_MAP.get(first.lower())
    if replacement and rest:
        return f"{replacement} {rest}"
    return text


def unify_batch(
    documents: list[str],
    raw_queries: list[str],
    gen: PromptedGenerator,
    parallelism: int = 1,
) -> list[str]:
    """unify_query over aligned lists; results in input order."""
    if len(documents) != len(raw_queries):
        raise UnifyError("documents and raw_queries must be aligned")
    return map_ordered(
        lambda dq: unify_query(dq[0], dq[1], gen), list(zip(documents, raw_queries)), parallelism
    )
