"""Corpus characterization: token lengths, novel-token percentage, correlation.

NTP(a, b) is the share of token occurrences in ``a`` whose type does not
appear in ``b``; it is asymmetric by design and quantifies how much of
``a`` is new relative to ``b``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ._kernels import pairwise_mean
from .corpus import AnnotatedTriplet, QfsError, joined_query_text
from .tokenizer import tokenize


class StatsError(QfsError, ValueError):
    pass


def ntp(a: str, b: str, numerator: str = "occurrences") -> float:
    """Percentage of tokens in ``a`` that are absent from ``b``.

    The numerator counts token occurrences by default; pass
    numerator="types" to count distinct token types instead.
    """
    counts_a = Counter(tokenize(a))
    return _ntp(counts_a, counts_a.keys() & tokenize(b), numerator)


def _ntp(counts_a: Counter, shared: set[str], numerator: str) -> float:
    """NTP of the text with token counts ``counts_a``, given the types it shares with the other."""
    if not counts_a:
        raise StatsError("ntp: first string has no tokens")
    if numerator == "occurrences":
        total = counts_a.total()
        return 100.0 * (total - sum(map(counts_a.__getitem__, shared))) / total
    if numerator == "types":
        return 100.0 * (len(counts_a) - len(shared)) / len(counts_a)
    raise StatsError(f"unknown ntp numerator mode {numerator!r}")


def _exact(value) -> int | Fraction:
    if isinstance(value, int):
        return value
    if not math.isfinite(value):
        raise StatsError(f"pearson: non-finite value {value!r}")
    return Fraction(value)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient.

    Computed from exact sums: integers stay ints and floats become exact
    ``Fraction``s, so r**2 is exact until one final division rounds it and
    one ``math.sqrt`` takes its root. The result has the same bits on every
    machine and for every order of the points.

    Errors on mismatched lengths, fewer than two points, non-finite values
    or two constant inputs. With exactly one constant input the coefficient
    is undefined (zero variance); 0.0 is returned as the
    no-linear-relationship value.
    """
    x = [_exact(v) for v in xs]
    y = [_exact(v) for v in ys]
    if len(x) != len(y):
        raise StatsError(f"pearson: length mismatch ({len(x)} vs {len(y)})")
    n = len(x)
    if n < 2:
        raise StatsError("pearson: need at least two points")
    sum_x, sum_y = sum(x), sum(y)
    # n**2 times the covariance and the two variances
    cov = n * sum(map(mul, x, y)) - sum_x * sum_y
    var_x = n * sum(map(mul, x, x)) - sum_x * sum_x
    var_y = n * sum(map(mul, y, y)) - sum_y * sum_y
    if var_x == 0 and var_y == 0:
        raise StatsError("pearson: both inputs are constant")
    if var_x == 0 or var_y == 0:
        return 0.0
    r = math.sqrt((cov * cov) / (var_x * var_y))
    return -r if cov < 0 else r


@dataclass(frozen=True)
class CorpusStats:
    """Means over a triplet corpus, in the report's column order."""

    count: int
    mean_len_doc: float
    mean_len_query: float
    mean_len_sum: float
    ntp_sum_doc: float
    ntp_query_doc: float
    ntp_doc_sum: float
    ntp_doc_query: float
    ntp_query_sum: float
    ntp_sum_query: float
    pearson_len_query_vs_sum: float | None

    def to_record(self) -> dict:
        return {
            "count": self.count,
            "len_doc": self.mean_len_doc,
            "len_query": self.mean_len_query,
            "len_sum": self.mean_len_sum,
            "ntp_sum_doc": self.ntp_sum_doc,
            "ntp_query_doc": self.ntp_query_doc,
            "ntp_doc_sum": self.ntp_doc_sum,
            "ntp_doc_query": self.ntp_doc_query,
            "ntp_query_sum": self.ntp_query_sum,
            "ntp_sum_query": self.ntp_sum_query,
            "pearson_len_query_vs_sum": self.pearson_len_query_vs_sum,
        }


# (a, b) of each NTP column, in report order: a bad triplet fails on the first of them.
_NTP_PAIRS = (
    ("sum", "doc"), ("query", "doc"), ("doc", "sum"),
    ("doc", "query"), ("query", "sum"), ("sum", "query"),
)


def corpus_stats(
    triplets: list[AnnotatedTriplet], ntp_numerator: str = "occurrences"
) -> CorpusStats:
    """Mean lengths, the six NTP columns, and the query/summary length correlation.

    Queries are joined with single spaces before measuring. NTP values are
    computed per triplet, then averaged. The correlation is None when the
    corpus is too small or the lengths are constant.
    """
    if not triplets:
        raise StatsError("corpus_stats: empty triplet list")
    columns: dict[str, list] = defaultdict(list)
    for triplet in triplets:
        counts = {
            "doc": Counter(tokenize(triplet.document)),
            "query": Counter(tokenize(joined_query_text(triplet))),
            "sum": Counter(tokenize(triplet.summary)),
        }
        for name, name_counts in counts.items():
            columns[f"len_{name}"].append(name_counts.total())
        for a, b in _NTP_PAIRS:
            shared = counts[a].keys() & counts[b].keys()
            columns[f"ntp_{a}_{b}"].append(_ntp(counts[a], shared, ntp_numerator))

    means = {name: pairwise_mean(values) for name, values in columns.items()}
    try:
        correlation = (
            pearson(columns["len_query"], columns["len_sum"])
            if len(triplets) >= 2
            else None
        )
    except StatsError:
        correlation = None
    return CorpusStats(
        count=len(triplets),
        mean_len_doc=means["len_doc"],
        mean_len_query=means["len_query"],
        mean_len_sum=means["len_sum"],
        ntp_sum_doc=means["ntp_sum_doc"],
        ntp_query_doc=means["ntp_query_doc"],
        ntp_doc_sum=means["ntp_doc_sum"],
        ntp_doc_query=means["ntp_doc_query"],
        ntp_query_sum=means["ntp_query_sum"],
        ntp_sum_query=means["ntp_sum_query"],
        pearson_len_query_vs_sum=correlation,
    )


def format_stats_table(rows: dict[str, CorpusStats]) -> str:
    headers = [
        "row", "count", "len_doc", "len_query", "len_sum",
        "ntp_sum_doc", "ntp_query_doc", "ntp_doc_sum",
        "ntp_doc_query", "ntp_query_sum", "ntp_sum_query", "pearson",
    ]
    lines = ["\t".join(headers)]
    for label, stats in rows.items():
        record = stats.to_record()
        cells = [label, str(record["count"])]
        for key in headers[2:-1]:
            cells.append(f"{record[key]:.2f}")
        corr = record["pearson_len_query_vs_sum"]
        cells.append("-" if corr is None else f"{corr:.4f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)
