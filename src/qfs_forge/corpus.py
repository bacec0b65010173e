"""Corpus records, JSONL serialization and the reader of the run's JSON side files.

Input records are document-summary pairs; output records are
document-queries-summary triplets with one query per summary sentence.
Both formats are one JSON object per line. The two record constructors are
the one contract every later stage relies on.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, NamedTuple

DOMAINS = ("news", "dialogue")
MODES = ("wh", "yesno")
# what annotate does with a pair still mismatched after its retries
FAILURE_ACTIONS = ("drop", "repair")
# what compose does with a summary that overflows the token budget
OVERFLOW_ACTIONS = ("truncate", "drop")
# what the numerator of a novel-token percentage counts
NTP_NUMERATORS = ("occurrences", "types")
# Every query format but natural questions, with the template style that
# turns it into one; natural questions pass through untouched.
FORMAT_TEMPLATE_STYLE = {
    "words": "newts",
    "phrases": "newts",
    "sentence": "newts",
    "instruction": "duc",
}
QUERY_FORMATS = ("natural", *FORMAT_TEMPLATE_STYLE)

# "1. " or "1) " at the start of a line/piece; requires trailing whitespace
# so decimals like "3.5" are untouched.
_NUMBER_PREFIX = re.compile(r"^\s*\d+[.)]\s+")
# Piece that is nothing but a numbering artifact, e.g. "2." split off its line.
_PURE_NUMBER = re.compile(r"^\d+[.)]$")
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
# JSON escape of a UTF-16 surrogate: only a line holding one can load a lone surrogate.
# Every match starts with a backslash, and `in` finds one far faster than this search runs.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class QfsError(Exception):
    """Base of every package error: bad input, config or backend reply, never a bug."""


class CorpusError(QfsError, ValueError):
    """Malformed corpus file or record."""


class InvariantError(QfsError, ValueError):
    """A record violates a structural invariant and was rejected."""


def check_composition(
    overlap_threshold: float, token_budget: int, on_overflow: str, error: type[Exception]
) -> None:
    """Raise ``error`` naming the first composition setting out of range."""
    if not 0 <= overlap_threshold <= 100:
        raise error("overlap_threshold must be in [0, 100]")
    if token_budget < 1:
        raise error("token_budget must be >= 1")
    if on_overflow not in OVERFLOW_ACTIONS:
        raise error("on_overflow must be 'truncate' or 'drop'")


def _has_token(text: str) -> bool:
    # tokenizer.has_token, bound on first use so that importing corpus loads no tokenizer
    global _has_token
    from .tokenizer import has_token as _has_token

    return _has_token(text)


def _summary_sentences(kind: str, record_id: str, document: str, summary: str) -> tuple[str, ...]:
    """The summary's sentences, once the document and summary hold what
    every stage divides by: a token each, and a sentence in the summary."""
    if not _has_token(document):
        raise InvariantError(f"{kind} {record_id!r}: document holds no token")
    sentences = tuple(segment_sentences(summary))
    if not sentences:
        raise InvariantError(f"{kind} {record_id!r}: summary holds no sentence")
    if not _has_token(summary):
        raise InvariantError(f"{kind} {record_id!r}: summary holds no token")
    return sentences


@dataclass(frozen=True)
class DocumentSummaryPair:
    """One generic-summarization record awaiting query annotation.

    Its document holds a token; its summary holds a sentence and a token.
    The summary is segmented once, here: ``summary_sentences`` keeps its
    sentences for the prompt, the query count and the repair, and is
    neither compared nor printed.
    """

    id: str
    document: str
    summary: str
    domain: str
    summary_sentences: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise InvariantError("pair id must be non-empty")
        sentences = _summary_sentences("pair", self.id, self.document, self.summary)
        object.__setattr__(self, "summary_sentences", sentences)
        if self.domain not in DOMAINS:
            raise InvariantError(
                f"pair {self.id!r}: domain must be one of {DOMAINS}, got {self.domain!r}"
            )


@dataclass(frozen=True)
class AnnotatedTriplet:
    """Document, generated queries (one per summary sentence), and summary.

    Its document and summary hold what a pair's do, and every query holds a
    token and ends with ``?``. ``from_pair`` builds one from a pair that
    already holds the document and summary rules and its summary sentences.
    """

    id: str
    document: str
    summary: str
    queries: tuple[str, ...]
    mode: str
    query_types: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "query_types", tuple(self.query_types))
        self._check_queries(
            len(_summary_sentences("triplet", self.id, self.document, self.summary))
        )

    @classmethod
    def from_pair(
        cls, pair: DocumentSummaryPair, queries, mode: str, query_types=()
    ) -> "AnnotatedTriplet":
        """The triplet of ``pair`` and its queries, checked by the query rules
        only: the pair's contract already holds the rest."""
        triplet = object.__new__(cls)  # skips __post_init__, which would segment the summary
        triplet.__dict__.update(
            id=pair.id,
            document=pair.document,
            summary=pair.summary,
            queries=tuple(queries),
            mode=mode,
            query_types=tuple(query_types),
        )
        triplet._check_queries(len(pair.summary_sentences))
        return triplet

    def _check_queries(self, n_sentences: int) -> None:
        """The rules of a triplet beyond its pair's: mode, one query per
        summary sentence, each ending with ``?`` and holding a token, and
        a type per query if any."""
        if self.mode not in MODES:
            raise InvariantError(f"triplet {self.id!r}: bad mode {self.mode!r}")
        if len(self.queries) != n_sentences:
            raise InvariantError(
                f"triplet {self.id!r}: {len(self.queries)} queries for "
                f"{n_sentences} summary sentences"
            )
        for q in self.queries:
            if not q.strip().endswith("?"):
                raise InvariantError(
                    f"triplet {self.id!r}: query does not end with '?': {q!r}"
                )
            if not _has_token(q):
                raise InvariantError(f"triplet {self.id!r}: query holds no token: {q!r}")
        if self.query_types and len(self.query_types) != len(self.queries):
            raise InvariantError(
                f"triplet {self.id!r}: query_types length != queries length"
            )


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences on newlines and terminal punctuation.

    Numbering prefixes ("1. ", "2) ") are stripped, so numbered summaries
    from annotation prompts segment to their content sentences.
    Abbreviations are not treated specially: "U.S. officials" splits after
    "U.S." -- a documented limitation of the deliberately simple rule.
    """
    sentences = []
    for line in text.splitlines():
        line = _NUMBER_PREFIX.sub("", line, count=1)
        for piece in _SENTENCE_BOUNDARY.split(line):
            piece = piece.strip()
            if not piece or _PURE_NUMBER.match(piece):
                continue
            sentences.append(piece)
    return sentences


def normalize_query(query: str) -> str:
    """Trim whitespace and make sure the query ends with a question mark."""
    query = query.strip()
    if query and not query.endswith("?"):
        query += "?"
    return query


def is_string_list(value) -> bool:
    """Whether ``value`` is a JSON list of strings."""
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class Field(NamedTuple):
    """What one record field must hold, named as its error names it."""

    description: str
    check: Callable[[object], bool]
    required: bool = True  # an optional field may be absent, not null


STRING = Field("a string", lambda value: isinstance(value, str))
TEXT = Field("a non-blank string", lambda value: isinstance(value, str) and bool(value.strip()))
STRINGS = Field("a list of strings", is_string_list)
TEXTS = Field(
    "a non-empty list of non-blank strings",
    lambda value: is_string_list(value) and bool(value) and all(item.strip() for item in value),
)
# what a pair's document and summary must hold, for a record read as one
DOCUMENT = Field(
    "a string holding a token", lambda value: isinstance(value, str) and _has_token(value)
)
SUMMARY = Field(
    "a string holding a sentence and a token",
    lambda value: isinstance(value, str) and bool(segment_sentences(value)) and _has_token(value),
)


def read_jsonl(path: str):
    """Yield ``(line_no, record)`` per non-blank line; bad lines raise ``path:line`` errors.

    A file that is not UTF-8, and a record holding a lone surrogate (valid
    JSON, but no text encodes it), are bad lines too.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
                if not isinstance(record, dict):
                    raise CorpusError(f"{path}:{line_no}: record must be a JSON object")
                if "\\" in line and _SURROGATE_ESCAPE.search(line):
                    check_text(json.dumps(record, ensure_ascii=False), f"{path}:{line_no}")
                yield line_no, record
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}:{_undecodable_line(path)}: not valid UTF-8") from exc


def read_json(path: str, role: str, error: type[QfsError]):
    """The JSON value of the UTF-8 file ``path``. A file that cannot be read,
    is not UTF-8 or is not JSON raises ``error`` naming the file by ``role``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {role}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{role} is not valid UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{role} is not valid JSON: {exc}") from exc


def check_text(
    text: str, where: str, error: type[QfsError] = CorpusError, encode=str.encode
) -> None:
    """Raise ``error`` naming ``where`` if ``encode`` refuses a lone surrogate
    in ``text``: UTF-8 encodes none, ``os.fsencode`` those that stand for
    undecodable bytes."""
    try:
        encode(text)
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise error(f"{where}: lone surrogate \\u{code:04x} is not valid text") from exc


def _undecodable_line(path: str) -> int:
    """The line, counted as text mode counts them, that holds the file's first non-UTF-8 byte."""
    with open(path, "rb") as handle:
        head = handle.read()
    try:
        head.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = head[: exc.start]
    # text mode ends a line at "\n", "\r" and "\r\n"
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def temp_path(path: str) -> str:
    """The file ``write_jsonl`` writes before renaming it over ``path``."""
    return path + ".tmp"


def write_jsonl(path: str, records) -> None:
    """Write one JSON object per line to ``temp_path(path)``, then rename it over ``path``.

    A failed or killed write leaves the old file (no fsync: power loss is not covered).
    """
    tmp_path = temp_path(path)
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False))
                handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        if isinstance(exc, OSError) and exc.filename == tmp_path:
            # name the file the caller asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def read_records(
    path: str, fields: dict[str, Field], build: Callable, unique: str | None = None
) -> list:
    """``build(**values)`` per record of a JSONL file, in file order.

    ``values`` holds each field of ``fields`` that the record has; a
    required field must be present, and every present one must pass its
    check. A missing or ill-typed field, a repeated value of field
    ``unique`` and an ``InvariantError`` from ``build`` raise CorpusError
    naming ``path:line``.
    """
    records = []
    seen = set()
    for line_no, record in read_jsonl(path):
        try:
            values = {}
            for name, kind in fields.items():
                if name in record:
                    if not kind.check(record[name]):
                        raise InvariantError(f"{name!r} must be {kind.description}")
                    values[name] = record[name]
                elif kind.required:
                    raise InvariantError(f"missing field {name!r}")
            if unique is not None:
                if values[unique] in seen:
                    raise InvariantError(f"duplicate {unique} {values[unique]!r}")
                seen.add(values[unique])
            records.append(build(**values))
        except InvariantError as exc:
            raise CorpusError(f"{path}:{line_no}: {exc}") from exc
    return records


def load_corpus(path: str) -> list[DocumentSummaryPair]:
    """Load document-summary pairs, preserving file order.

    Raises CorpusError with the offending line number on malformed records
    and on duplicate ids.
    """
    fields = {"id": STRING, "document": STRING, "summary": STRING, "domain": STRING}
    return read_records(path, fields, DocumentSummaryPair, unique="id")


def triplet_to_record(triplet: AnnotatedTriplet) -> dict:
    """The triplet's fields by name, in field order; its tuples write as JSON lists."""
    return {f.name: getattr(triplet, f.name) for f in dataclass_fields(triplet)}


def write_triplets(triplets: list[AnnotatedTriplet], path: str) -> None:
    """Write one JSON record per triplet."""
    write_jsonl(path, map(triplet_to_record, triplets))


_TRIPLET_FIELDS = {
    "id": STRING,
    "document": STRING,
    "summary": STRING,
    "queries": STRINGS,
    "mode": STRING,
    "query_types": STRINGS._replace(required=False),  # absent: not typed
}


def load_triplets(path: str) -> list[AnnotatedTriplet]:
    """Inverse of write_triplets; round-trips value-identically and refuses
    each record that ``AnnotatedTriplet`` refuses, naming ``path:line``."""
    return read_records(path, _TRIPLET_FIELDS, AnnotatedTriplet, unique="id")


def joined_query_text(triplet: AnnotatedTriplet) -> str:
    """Queries joined with single spaces, the unit measured by corpus stats."""
    return " ".join(triplet.queries)
