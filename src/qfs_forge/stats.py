"""Corpus characterization: token lengths, novel-token percentage, correlation.

NTP(a, b) is the share of token occurrences in ``a`` whose type does not
appear in ``b``; it is asymmetric by design and quantifies how much of
``a`` is new relative to ``b``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from operator import mul

from ._kernels import pairwise_mean
from .corpus import AnnotatedTriplet, QfsError, check_options, joined_query_text
from .tokenizer import tokenize


class StatsError(QfsError, ValueError):
    pass


def ntp(a: str, b: str, numerator: str = "occurrences") -> float:
    """Percentage of tokens in ``a`` that are absent from ``b``.

    The numerator counts token occurrences by default; pass
    numerator="types" to count distinct token types instead.
    """
    tokens_a = tokenize(a)
    if not tokens_a:
        raise StatsError("ntp: first string has no tokens")
    check_options(StatsError, ntp_numerator=numerator)
    counts_a = Counter(tokens_a)
    return _ntp(counts_a, len(tokens_a), len(counts_a), counts_a.keys() & tokenize(b), numerator)


def _ntp(counts_a: Counter, total: int, n_types: int, shared: set[str], numerator: str) -> float:
    """NTP of a text of ``total`` tokens and ``n_types`` types that shares the
    types ``shared`` with the other text. ``counts_a`` need only hold the
    counts of the shared types, and ``n_types`` is read only by the types
    numerator. Its callers check ``numerator``; ``total`` is not 0, as ``ntp``
    checks and as every text of a triplet holds a token."""
    if numerator == "types":
        return 100.0 * (n_types - len(shared)) / n_types
    return 100.0 * (total - sum(map(counts_a.__getitem__, shared))) / total


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
    """Means over a triplet corpus, in the report's column order: each field
    is a report column, named without its ``mean_`` prefix."""

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
        return dict(zip(_KEYS, astuple(self)))


_KEYS = tuple(f.name.removeprefix("mean_") for f in fields(CorpusStats))


def corpus_stats(
    triplets: list[AnnotatedTriplet], ntp_numerator: str = "occurrences"
) -> CorpusStats:
    """Mean lengths, the six NTP columns, and the query/summary length correlation.

    Queries are joined with single spaces before measuring. Each text is
    tokenized once, and its length is its token count. The queries and the
    summary are counted in full. Under the occurrences numerator the document
    is counted only over the types those two hold, which are all its NTP
    columns read; the types numerator also reads its type count, so there it
    is counted in full. Each pair of texts shares one type set, used by both
    of the pair's NTP columns. NTP values are computed per triplet, then
    averaged. The correlation is None when the corpus is too small or the
    lengths are constant.
    """
    if not triplets:
        raise StatsError("corpus_stats: empty triplet list")
    check_options(StatsError, ntp_numerator=ntp_numerator)
    count_doc_types = ntp_numerator == "types"
    rows = []
    for triplet in triplets:
        doc_tokens = tokenize(triplet.document)
        query_tokens = tokenize(joined_query_text(triplet))
        sum_tokens = tokenize(triplet.summary)
        query_counts = Counter(query_tokens)
        sum_counts = Counter(sum_tokens)
        if count_doc_types:
            doc_counts = Counter(doc_tokens)
        else:
            doc_counts = Counter(
                filter((query_counts.keys() | sum_counts.keys()).__contains__, doc_tokens)
            )
        # each text as _ntp takes it: counts, token total and type count
        doc = (doc_counts, len(doc_tokens), len(doc_counts))
        query = (query_counts, len(query_tokens), len(query_counts))
        summary = (sum_counts, len(sum_tokens), len(sum_counts))
        sum_doc = doc_counts.keys() & sum_counts.keys()
        query_doc = doc_counts.keys() & query_counts.keys()
        query_sum = query_counts.keys() & sum_counts.keys()
        # the per-triplet columns, in field order: a bad triplet fails on the first NTP column
        rows.append((
            len(doc_tokens), len(query_tokens), len(sum_tokens),
            _ntp(*summary, sum_doc, ntp_numerator),
            _ntp(*query, query_doc, ntp_numerator),
            _ntp(*doc, sum_doc, ntp_numerator),
            _ntp(*doc, query_doc, ntp_numerator),
            _ntp(*query, query_sum, ntp_numerator),
            _ntp(*summary, query_sum, ntp_numerator),
        ))
    columns = list(zip(*rows))
    try:  # columns 1 and 2 are the query and summary lengths
        correlation = pearson(columns[1], columns[2]) if len(triplets) >= 2 else None
    except StatsError:
        correlation = None
    return CorpusStats(len(triplets), *map(pairwise_mean, columns), correlation)


def format_stats_table(rows: dict[str, CorpusStats]) -> str:
    lines = ["\t".join(["row", *_KEYS[:-1], "pearson"])]
    for label, stats in rows.items():
        count, *means, corr = astuple(stats)
        cells = [label, str(count), *(f"{mean:.2f}" for mean in means)]
        cells.append("-" if corr is None else f"{corr:.4f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)
