"""Every prompt and completion format: one contract.

An annotation prompt is: task instruction, a one-shot worked example
(document, numbered summary, numbered queries), then the target document
and its numbered summary, ending with the query-section label so the
completion backend fills in the numbered queries, which
``parse_completion`` reads back. The recovered query and its document
become the summarizer's ``question: ... context: ...`` input.
The mock backend reads both back with ``target_sentences``, ``asks_yes_no``
and ``qfs_document``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources

from .corpus import (
    DOMAINS, MODES, DocumentSummaryPair, QfsError, check_text, is_string_list, read_json,
)

WH_INSTRUCTION = (
    "For each summary, write a general question about the article that can be "
    "answered by it"
)
YESNO_INSTRUCTION = (
    "For each summary, write a binary question about the article that can be "
    "answered by it"
)
INSTRUCTIONS = {"wh": WH_INSTRUCTION, "yesno": YESNO_INSTRUCTION}

# Section labels are this artifact's convention; override via PromptLabels
# or the run config if a backend was tuned on different ones.
DEFAULT_SUMMARY_LABEL = "Summary:"
DEFAULT_QUERY_LABEL = "Questions:"
DOCUMENT_LABELS = {"news": "Article:", "dialogue": "Dialogue:"}

# "N. text" with mandatory whitespace after the dot, so decimal-leading
# lines ("1.5 million ...") are not taken for numbering.
# More than 9 digits is not a line number (and int() refuses over 4300 digits).
_NUMBERED_LINE = re.compile(r"^\s*(\d{1,9})\.\s+(\S.*\S|\S)\s*$")
# a yes/no query's leading answer label
_YESNO_LABEL = re.compile(r"^(?:yes|no)\s*:\s*", re.IGNORECASE)

# the query-focused summarization input; qfs_document spots and splits it by its pieces
QFS_QUESTION = "question:\n "
QFS_CONTEXT = " \n context:\n"
QFS_INPUT_TEMPLATE = QFS_QUESTION + "{query}" + QFS_CONTEXT + "{document}"


class PromptError(QfsError, ValueError):
    """Prompt construction failed (bad spec or mismatched inputs)."""


class ParseMismatchError(QfsError, ValueError):
    """Completion did not contain the expected contiguous numbered queries."""


@dataclass(frozen=True)
class PromptLabels:
    document: str = ""
    summary: str = DEFAULT_SUMMARY_LABEL
    query: str = DEFAULT_QUERY_LABEL

    def for_domain(self, domain: str) -> "PromptLabels":
        if self.document:
            return self
        return replace(self, document=DOCUMENT_LABELS[domain])


@dataclass(frozen=True)
class OneShotExample:
    """A worked example: document plus aligned summary and query sentences."""

    document: str
    summary_sentences: tuple[str, ...]
    query_sentences: tuple[str, ...]
    domain: str
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "summary_sentences", tuple(self.summary_sentences))
        object.__setattr__(self, "query_sentences", tuple(self.query_sentences))
        if self.domain not in DOMAINS:
            raise PromptError(f"unknown example domain {self.domain!r}")
        if self.mode not in MODES:
            raise PromptError(f"unknown example mode {self.mode!r}")
        if not self.summary_sentences:
            raise PromptError("one-shot example needs at least one summary sentence")
        if len(self.summary_sentences) != len(self.query_sentences):
            raise PromptError(
                "one-shot example needs exactly one query per summary sentence "
                f"({len(self.summary_sentences)} summaries, "
                f"{len(self.query_sentences)} queries)"
            )


@dataclass(frozen=True)
class PromptSpec:
    """Everything needed to render an annotation prompt deterministically.

    Every prompt of a spec starts with the same head: the instruction, the
    one-shot example and the target document's label, under the labels for
    the example's domain. The spec renders it once, when it is built, and
    keeps it out of equality, hashing and repr.
    """

    instruction: str
    example: OneShotExample
    labels: PromptLabels = PromptLabels()
    _head: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # custom instructions are allowed, but the two built-ins must not
        # be crossed with the other mode's example
        builtin = {text: mode for mode, text in INSTRUCTIONS.items()}.get(self.instruction)
        if builtin is not None and builtin != self.example.mode:
            raise PromptError(f"{builtin} instruction paired with a {self.example.mode} example")
        labels = self.labels.for_domain(self.example.domain)
        head = "\n\n".join((
            self.instruction,
            f"{labels.document}\n{self.example.document}",
            f"{labels.summary}\n{number_sentences(self.example.summary_sentences)}",
            f"{labels.query}\n{number_sentences(self.example.query_sentences)}",
            f"{labels.document}\n",
        ))
        object.__setattr__(self, "_head", head)

    @property
    def mode(self) -> str:
        return self.example.mode

    @property
    def domain(self) -> str:
        return self.example.domain


def instruction_for_mode(mode: str) -> str:
    if mode not in INSTRUCTIONS:
        raise PromptError(f"unknown mode {mode!r}")
    return INSTRUCTIONS[mode]


def _load_builtin(domain: str) -> dict:
    if domain not in DOMAINS:
        raise PromptError(f"unknown domain {domain!r}")
    text = resources.files("qfs_forge.data").joinpath(f"oneshot_{domain}.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def load_example(path: str, mode: str) -> OneShotExample:
    """Load a one-shot example from a JSON file (same schema as the built-ins).

    A file that cannot be read or is not UTF-8 JSON, that does not follow the
    schema or that holds a lone surrogate is a ``PromptError`` naming the file.
    """
    source = f"one-shot example file {path!r}"
    example = _example_from_raw(read_json(path, source, PromptError), mode, source)
    texts = (example.document, example.domain, *example.summary_sentences, *example.query_sentences)
    check_text("".join(texts), source, PromptError)
    return example


def builtin_example(domain: str, mode: str) -> OneShotExample:
    """The shipped worked example for the domain, with wh or yes/no queries."""
    return _example_from_raw(_load_builtin(domain), mode, f"built-in {domain} example")


def _example_from_raw(raw, mode: str, source: str) -> OneShotExample:
    if mode not in MODES:
        raise PromptError(f"unknown mode {mode!r}")
    if not isinstance(raw, dict):
        raise PromptError(f"{source} must hold a JSON object, got {type(raw).__name__}")
    for key in ("document", "summary_sentences", "queries", "domain"):
        if key not in raw:
            raise PromptError(f"{source} missing key {key!r}")
    queries = raw["queries"]
    if not isinstance(queries, dict) or mode not in queries:
        raise PromptError(f"{source}: queries must be an object with a {mode!r} list")
    if not isinstance(raw["document"], str) or not isinstance(raw["domain"], str):
        raise PromptError(f"{source}: document and domain must be strings")
    if not is_string_list(raw["summary_sentences"]) or not is_string_list(queries[mode]):
        raise PromptError(f"{source}: summary_sentences and queries.{mode} must be lists of strings")
    try:
        return OneShotExample(
            document=raw["document"],
            summary_sentences=tuple(raw["summary_sentences"]),
            query_sentences=tuple(queries[mode]),
            domain=raw["domain"],
            mode=mode,
        )
    except PromptError as exc:
        raise PromptError(f"{source}: {exc}") from exc


def default_spec(
    domain: str,
    mode: str,
    instruction: str | None = None,
    labels: PromptLabels | None = None,
    example: OneShotExample | None = None,
) -> PromptSpec:
    return PromptSpec(
        instruction=instruction or instruction_for_mode(mode),
        example=example or builtin_example(domain, mode),
        labels=labels or PromptLabels(),
    )


def number_sentences(sentences) -> str:
    """Render sentences as "1. ...\\n2. ..." with 1-based indices."""
    sentences = list(sentences)
    if not sentences:
        raise PromptError("cannot number an empty sentence list")
    return "\n".join(f"{i}. {s}" for i, s in enumerate(sentences, start=1))


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """``(number, text)`` of each "N. text" line, the format number_sentences writes."""
    matches = map(_NUMBERED_LINE.match, text.splitlines())
    return [(int(match.group(1)), match.group(2)) for match in matches if match]


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


def sentence_topic(sentence: str) -> str:
    """The sentence's first four words without its closing ``.!?``, or "this"."""
    return " ".join(sentence.rstrip(".!?").split()[:4]) or "this"


def repair_queries(
    completion: str, summary_sentences: tuple[str, ...], mode: str
) -> list[str]:
    """Best-effort coercion of a mismatched completion to one query per summary sentence.

    Takes whatever numbered lines exist (ignoring contiguity), trims
    extras, and pads the deficit with a generic question derived from the
    uncovered summary sentence. A bare "Yes:"/"No:" line holds no question
    and is dropped. Only used when failure_action="repair".
    """
    numbered = [text for _, text in numbered_lines(completion)]
    if mode == "yesno":
        numbered = [q for q in (_YESNO_LABEL.sub("", q, count=1) for q in numbered) if q]
    queries = numbered[: len(summary_sentences)]
    for sentence in summary_sentences[len(queries) :]:
        queries.append(f"What does the text say about {sentence_topic(sentence)}?")
    return queries


def build_annotation_prompt(pair: DocumentSummaryPair, spec: PromptSpec) -> str:
    """Render the full annotation prompt for one document-summary pair.

    The spec's head (instruction, one-shot example and document label,
    rendered once when the spec was built) is followed by the pair's
    document, its numbered summary and the query label. Pure function of its
    inputs: identical inputs give byte-identical prompts, which is what
    keeps golden-file tests and mock-backend runs stable.
    """
    if pair.domain != spec.example.domain:
        raise PromptError(
            f"pair {pair.id!r} is {pair.domain!r} but the one-shot example is "
            f"{spec.example.domain!r}; pick the example matching the domain"
        )
    labels = spec.labels
    return (
        f"{spec._head}{pair.document}\n\n"
        f"{labels.summary}\n{number_sentences(pair.summary_sentences)}\n\n{labels.query}\n"
    )


def build_qfs_input(query: str, document: str) -> str:
    """Render the query-focused summarization input string, byte-exactly."""
    if not query.strip():
        raise PromptError("query must be non-empty")
    if not document.strip():
        raise PromptError("document must be non-empty")
    return QFS_INPUT_TEMPLATE.format(query=query, document=document)


def _content_end(text: str) -> int:
    """``len(text.rstrip())``, without copying ``text``."""
    end = len(text)
    while end and text[end - 1].isspace():
        end -= 1
    return end


def target_sentences(prompt: str) -> list[str]:
    """The target summary's sentences, the numbered block before the closing label."""
    last = prompt.rfind("\n\n", 0, _content_end(prompt))
    if last < 0:
        return []
    start = prompt.rfind("\n\n", 0, last)
    block = prompt[start + 2 if start >= 0 else 0 : last]
    return [sentence for _, sentence in numbered_lines(block)]


def asks_yes_no(prompt: str) -> bool:
    """Whether the one-shot example's first query, the first "1. " line under
    the annotation prompt's closing label, carries ``Yes:``/``No:``."""
    end = _content_end(prompt)
    label = prompt[prompt.rfind("\n", 0, end) + 1 : end]
    opening = f"\n\n{label}\n1. "
    start = prompt.find(opening)
    return start >= 0 and prompt.startswith(("Yes:", "No:"), start + len(opening))


def qfs_document(prompt: str) -> str | None:
    """The document of a ``build_qfs_input`` string; None for any other prompt."""
    return prompt.split(QFS_CONTEXT, 1)[-1] if prompt.startswith(QFS_QUESTION) else None
