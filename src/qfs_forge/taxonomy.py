"""Query-type taxonomy: bucket queries by their lead token.

Fourteen buckets: five yes/no auxiliary groups, eight wh-words, and
"other" for everything else (non-questions, imperatives, rare heads).
Classification looks only at the first token, so appending words never
changes the bucket.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .corpus import QfsError
from .tokenizer import first_token


class QueryType(str, enum.Enum):
    DO_DOES_DID = "do_does_did"
    IS_ARE_WAS_WERE = "is_are_was_were"
    CAN_COULD = "can_could"
    WILL_WOULD = "will_would"
    HAVE_HAS_HAD = "have_has_had"
    WHAT = "what"
    WHEN = "when"
    WHERE = "where"
    WHO_WHOM = "who_whom"
    WHICH = "which"
    WHOSE = "whose"
    WHY = "why"
    HOW = "how"
    OTHER = "other"


YES_NO_TYPES = (
    QueryType.DO_DOES_DID,
    QueryType.IS_ARE_WAS_WERE,
    QueryType.CAN_COULD,
    QueryType.WILL_WOULD,
    QueryType.HAVE_HAS_HAD,
)
WH_TYPES = (
    QueryType.WHAT,
    QueryType.WHEN,
    QueryType.WHERE,
    QueryType.WHO_WHOM,
    QueryType.WHICH,
    QueryType.WHOSE,
    QueryType.WHY,
    QueryType.HOW,
)

_HEAD_TO_TYPE = {
    head: qt for qt in QueryType if qt is not QueryType.OTHER for head in qt.value.split("_")
}

# Negated auxiliaries whose apostrophe-split head would miss the bucket.
_CONTRACTION_HEADS = {
    "don't": "do",
    "doesn't": "does",
    "didn't": "did",
    "isn't": "is",
    "aren't": "are",
    "wasn't": "was",
    "weren't": "were",
    "can't": "can",
    "couldn't": "could",
    "won't": "will",
    "wouldn't": "would",
    "haven't": "have",
    "hasn't": "has",
    "hadn't": "had",
}


class TaxonomyError(QfsError, ValueError):
    pass


# How far the bucket percentages may sum from 100.
_TOTAL_TOLERANCE = 1e-6


def _head_token(query: str) -> str | None:
    head = first_token(query)
    if head is None:
        return None
    head = head.replace("’", "'")
    if head in _CONTRACTION_HEADS:
        return _CONTRACTION_HEADS[head]
    if "'" in head:
        # contractions like "what's" / "who's" classify by their expansion head
        head = head.split("'", 1)[0]
    return head


def classify_query(query: str) -> QueryType:
    """Bucket a query by its first token; unknown or empty heads are OTHER."""
    head = _head_token(query)
    if head is None:
        return QueryType.OTHER
    return _HEAD_TO_TYPE.get(head, QueryType.OTHER)


@dataclass(frozen=True)
class QueryTypeDistribution:
    """Percent per bucket plus the yes/no and wh- aggregate columns."""

    percentages: dict[QueryType, float]
    yes_no_aggregate: float
    wh_aggregate: float
    sample_count: int

    @classmethod
    def from_percentages(
        cls, percentages: dict[QueryType, float], sample_count: int = 0
    ) -> "QueryTypeDistribution":
        filled = {qt: float(percentages.get(qt, 0.0)) for qt in QueryType}
        total = sum(filled.values())
        if abs(total - 100.0) > _TOTAL_TOLERANCE:
            raise TaxonomyError(f"bucket percentages sum to {total}, expected 100")
        return cls(
            percentages=filled,
            yes_no_aggregate=sum(filled[qt] for qt in YES_NO_TYPES),
            wh_aggregate=sum(filled[qt] for qt in WH_TYPES),
            sample_count=sample_count,
        )

    def to_record(self) -> dict:
        record = {qt.value: self.percentages[qt] for qt in QueryType}
        record["yes_no_queries"] = self.yes_no_aggregate
        record["wh_queries"] = self.wh_aggregate
        record["sample_count"] = self.sample_count
        return record


def aggregate_distribution(types: list[QueryType]) -> QueryTypeDistribution:
    """Percentage per bucket over the given classifications."""
    if not types:
        raise TaxonomyError("cannot aggregate an empty classification list")
    counts = {qt: 0 for qt in QueryType}
    try:
        for qt in types:
            counts[QueryType(qt)] += 1
    except ValueError:
        raise TaxonomyError(f"unknown query type {qt!r}") from None
    total = len(types)
    percentages = {qt: 100.0 * counts[qt] / total for qt in QueryType}
    return QueryTypeDistribution.from_percentages(percentages, sample_count=total)


def format_distribution_table(rows: dict[str, QueryTypeDistribution]) -> str:
    """Human-readable table: one row per corpus/mode, all buckets plus aggregates."""
    headers = ["row"] + [qt.value for qt in QueryType] + ["yes_no_queries", "wh_queries"]
    lines = ["\t".join(headers)]
    for label, dist in rows.items():
        cells = [label]
        cells += [f"{dist.percentages[qt]:.2f}" for qt in QueryType]
        cells += [f"{dist.yes_no_aggregate:.2f}", f"{dist.wh_aggregate:.2f}"]
        lines.append("\t".join(cells))
    return "\n".join(lines)
