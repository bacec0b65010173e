import decimal
import math
import random
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfs_forge import stats as stats_module
from qfs_forge.corpus import joined_query_text, segment_sentences
from qfs_forge.stats import (
    CorpusStats,
    StatsError,
    corpus_stats,
    format_stats_table,
    ntp,
    pearson,
)
from qfs_forge.tokenizer import has_token, tokenize

from conftest import make_triplet

words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


class TestNtp:
    def test_self_is_zero(self):
        assert ntp("the red fox", "the red fox") == 0.0

    def test_disjoint_is_hundred(self):
        assert ntp("alpha beta", "gamma delta") == 100.0

    def test_hand_counted_example(self):
        # tokens(a) = [the, red, fox]; only "red" is absent from b
        assert ntp("the red fox", "the fox ran") == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_occurrences_counted_in_numerator(self):
        # "red red the" has two novel occurrences of the type "red"
        assert ntp("red red the", "the fox") == pytest.approx(200.0 / 3.0, abs=1e-9)

    def test_type_numerator_mode(self):
        assert ntp("red red the", "the fox", numerator="types") == 50.0

    def test_empty_first_string_errors(self):
        with pytest.raises(StatsError):
            ntp("  ...  ", "something")

    def test_unknown_mode_errors(self):
        with pytest.raises(StatsError):
            ntp("a", "b", numerator="chars")

    @given(a=texts, b=texts)
    def test_self_zero_and_bounds_property(self, a, b):
        assert ntp(a, a) == 0.0
        value = ntp(a, b)
        assert 0.0 <= value <= 100.0

    @given(a=texts, b=texts)
    def test_asymmetry_with_subset_vocabulary(self, a, b):
        # a's vocabulary is contained in a+b, so nothing in a is novel there
        combined = a + " " + b
        assert ntp(a, combined) == 0.0

    @given(a=texts, b=texts)
    def test_adding_a_token_of_a_to_b_never_increases(self, a, b):
        before = ntp(a, b)
        shared = tokenize(a)[0]
        after = ntp(a, b + " " + shared)
        assert after <= before


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_three_point_fixture_matches_closed_form(self):
        # x=[1,2,3], y=[2,4,7]: sum dxdy=5, sum dx2=2, sum dy2=38/3
        expected = 5.0 / math.sqrt(2.0 * (38.0 / 3.0))
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_errors(self):
        with pytest.raises(StatsError):
            pearson([1, 2], [1, 2, 3])

    def test_short_input_errors(self):
        with pytest.raises(StatsError):
            pearson([1], [2])

    def test_both_constant_errors(self):
        with pytest.raises(StatsError):
            pearson([5, 5, 5], [2, 2, 2])

    def test_one_constant_side_returns_zero(self):
        assert pearson([5, 5, 5], [1, 2, 3]) == 0.0

    def test_zero_covariance_is_positive_zero(self):
        # the stats JSONL would write a negative zero as -0.0
        assert math.copysign(1.0, pearson([1, 2, 3], [1, 0, 1])) == 1.0

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=20, unique=True))
    def test_affine_transform_gives_unit_correlation(self, xs):
        ys = [2.5 * x + 1.0 for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-9)

    def test_constant_floats_are_exactly_constant(self):
        # a float mean of [0.1] * 3 is not 0.1; exact sums still see zero variance
        with pytest.raises(StatsError, match="both inputs are constant"):
            pearson([0.1] * 3, [0.7] * 3)
        assert pearson([0.1] * 3, [1.0, 2.0, 4.0]) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_errors(self, bad):
        with pytest.raises(StatsError, match="non-finite"):
            pearson([1.0, bad, 3.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
            min_size=2, max_size=200,
        ) | st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=200
        ),
        st.randoms(use_true_random=False),
    )
    def test_bit_identical_under_permutation(self, points, rng):
        xs, ys = map(list, zip(*points))
        try:
            r = pearson(xs, ys)
        except StatsError:
            assert len(set(xs)) == 1 and len(set(ys)) == 1
            return
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert pearson(*map(list, zip(*shuffled))).hex() == r.hex()

    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_close_to_corrcoef_on_random_vectors(self, kind):
        rng = random.Random(kind)
        for _ in range(300):
            n = rng.randint(2, 400)
            if kind == "int":
                xs = [rng.randint(0, 500) for _ in range(n)]
                ys = [x // 2 + rng.randint(0, 300) for x in xs]
            else:
                xs = [rng.gauss(0.0, 10.0 ** rng.randint(-3, 4)) for _ in range(n)]
                ys = [x * rng.uniform(-2.0, 2.0) + rng.gauss(0.0, 1.0) for x in xs]
            if len(set(xs)) > 1 and len(set(ys)) > 1:
                assert pearson(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_within_one_ulp_of_the_exact_coefficient(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 300)
            xs = [rng.randint(1, 60) for _ in range(n)]
            ys = [x + rng.randint(0, 120) for x in xs]
            sum_x, sum_y = sum(xs), sum(ys)
            cov = n * sum(x * y for x, y in zip(xs, ys)) - sum_x * sum_y
            var_x = n * sum(x * x for x in xs) - sum_x**2
            var_y = n * sum(y * y for y in ys) - sum_y**2
            if not var_x or not var_y:
                continue
            with decimal.localcontext() as context:
                context.prec = 60
                exact = decimal.Decimal(cov) / decimal.Decimal(var_x * var_y).sqrt()
                r = pearson(xs, ys)
                assert abs(decimal.Decimal(r) - exact) < decimal.Decimal(math.ulp(r))

def _oracle_ntp(a, b, numerator="occurrences"):
    """The former string-level ntp body, kept as the reference."""
    tokens_a = tokenize(a)
    if not tokens_a:
        raise StatsError("ntp: first string has no tokens")
    types_b = set(tokenize(b))
    if numerator == "occurrences":
        novel = sum(1 for t in tokens_a if t not in types_b)
        return 100.0 * novel / len(tokens_a)
    if numerator == "types":
        types_a = set(tokens_a)
        return 100.0 * len(types_a - types_b) / len(types_a)
    raise StatsError(f"ntp_numerator must be 'occurrences' or 'types', got {numerator!r}")


def _oracle_corpus_stats(triplets, ntp_numerator="occurrences"):
    """The former corpus_stats body, which tokenized each text five times."""
    if not triplets:
        raise StatsError("corpus_stats: empty triplet list")
    columns = {name: [] for name in (
        "len_doc", "len_query", "len_sum",
        "ntp_sum_doc", "ntp_query_doc", "ntp_doc_sum",
        "ntp_doc_query", "ntp_query_sum", "ntp_sum_query",
    )}
    for triplet in triplets:
        doc = triplet.document
        summary = triplet.summary
        query = joined_query_text(triplet)
        columns["len_doc"].append(len(tokenize(doc)))
        columns["len_query"].append(len(tokenize(query)))
        columns["len_sum"].append(len(tokenize(summary)))
        columns["ntp_sum_doc"].append(_oracle_ntp(summary, doc, ntp_numerator))
        columns["ntp_query_doc"].append(_oracle_ntp(query, doc, ntp_numerator))
        columns["ntp_doc_sum"].append(_oracle_ntp(doc, summary, ntp_numerator))
        columns["ntp_doc_query"].append(_oracle_ntp(doc, query, ntp_numerator))
        columns["ntp_query_sum"].append(_oracle_ntp(query, summary, ntp_numerator))
        columns["ntp_sum_query"].append(_oracle_ntp(summary, query, ntp_numerator))

    means = {name: float(np.mean(values)) for name, values in columns.items()}
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


# Pieces mix letters with ASCII and Unicode punctuation, so some are punctuation only;
# each text holds a token, as the triplet contract asks.
_pieces = st.text(alphabet="abcAB" ".,'-\"" "—…«»¿·", min_size=1, max_size=4)
_unicode_texts = st.lists(_pieces, min_size=1, max_size=8).map(" ".join).filter(has_token)
# A document of letters no summary or query uses shares no type with either.
_foreign_pieces = st.text(alphabet="xyzXY" ".,'-\"" "—…«»¿·", min_size=1, max_size=4)
_foreign_texts = st.lists(_foreign_pieces, min_size=1, max_size=8).map(" ".join).filter(has_token)


def _valid_triplet(i, document, summary, queries):
    # one query per summary sentence, taken from ``queries`` in turn
    n_sentences = len(segment_sentences(summary))
    return make_triplet(
        id=f"t{i}", document=document, summary=summary,
        queries=[q + "?" for q in islice(cycle(queries), n_sentences)], query_types=(),
    )


_triplets = st.lists(
    st.tuples(
        _unicode_texts | _foreign_texts,
        _unicode_texts,
        st.lists(_unicode_texts, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
).map(lambda rows: [_valid_triplet(i, *row) for i, row in enumerate(rows)])


@given(triplets=_triplets, numerator=st.sampled_from(["occurrences", "types", "chars"]))
def test_corpus_stats_equals_former_body(triplets, numerator):
    try:
        expected = _oracle_corpus_stats(triplets, numerator)
    except StatsError as exc:
        with pytest.raises(StatsError) as raised:
            corpus_stats(triplets, numerator)
        assert str(raised.value) == str(exc)
    else:
        assert corpus_stats(triplets, numerator) == expected


def test_document_sharing_no_type_is_wholly_novel():
    triplet = make_triplet(
        document="xx yy, zz xx.", summary="A b.", queries=("A b?",), query_types=("other",)
    )
    for numerator in ("occurrences", "types"):
        stats = corpus_stats([triplet], numerator)
        assert (stats.ntp_doc_sum, stats.ntp_doc_query) == (100.0, 100.0)
        assert (stats.ntp_sum_doc, stats.ntp_query_doc) == (100.0, 100.0)
        assert stats.mean_len_doc == 4.0


@given(a=_unicode_texts | _foreign_texts, b=_unicode_texts | _foreign_texts,
       numerator=st.sampled_from(["occurrences", "types", "chars"]))
def test_ntp_equals_former_body(a, b, numerator):
    try:
        expected = _oracle_ntp(a, b, numerator)
    except StatsError as exc:
        with pytest.raises(StatsError) as raised:
            ntp(a, b, numerator)
        assert str(raised.value) == str(exc)
    else:
        assert ntp(a, b, numerator) == expected


@pytest.mark.parametrize("numerator", ["occurrences", "types"])
def test_corpus_stats_tokenizes_each_text_once(monkeypatch, numerator):
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(stats_module, "tokenize", counting_tokenize)
    triplets = [
        make_triplet(
            id=f"t{i}",
            document=f"Doc {i} holds words, and more words.",
            summary="Words are held.\nMore follow.",
            queries=("What is held?", "What follows?"),
            query_types=("what", "what"),
        )
        for i in range(5)
    ]
    corpus_stats(triplets, numerator)
    assert len(calls) == 3 * len(triplets)


def _former_to_record(self):
    """The former ``CorpusStats.to_record`` body, one key per line."""
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


def _former_format_stats_table(rows):
    """The former ``format_stats_table`` body, with its own header list."""
    headers = [
        "row", "count", "len_doc", "len_query", "len_sum",
        "ntp_sum_doc", "ntp_query_doc", "ntp_doc_sum",
        "ntp_doc_query", "ntp_query_sum", "ntp_sum_query", "pearson",
    ]
    lines = ["\t".join(headers)]
    for label, stats in rows.items():
        record = _former_to_record(stats)
        cells = [label, str(record["count"])]
        for key in headers[2:-1]:
            cells.append(f"{record[key]:.2f}")
        corr = record["pearson_len_query_vs_sum"]
        cells.append("-" if corr is None else f"{corr:.4f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


@pytest.mark.parametrize("n_triplets", [4, 1])
def test_report_columns_equal_the_former_lists(n_triplets):
    triplets = [
        make_triplet(
            id=f"t{i}",
            document=f"Doc {i} holds {'many ' * i}words, and more words.",
            summary="Words are held.\nMore follow." if i % 2 else "Words are held.",
            queries=("What is held?", "What follows?")[:1 + i % 2],
            query_types=("what", "what")[:1 + i % 2],
        )
        for i in range(n_triplets)
    ]
    stats = corpus_stats(triplets)
    # four triplets of two lengths correlate; one triplet has no correlation
    assert (stats.pearson_len_query_vs_sum is None) == (n_triplets == 1)
    assert list(stats.to_record().items()) == list(_former_to_record(stats).items())
    rows = {"corpus": stats, "again": stats}
    assert format_stats_table(rows) == _former_format_stats_table(rows)
    assert format_stats_table({}) == _former_format_stats_table({})


class TestCorpusStats:
    def test_degenerate_single_triplet(self):
        triplet = make_triplet(
            document="a b c",
            summary="a b c",
            queries=("a b c?",),
            query_types=("other",),
        )
        stats = corpus_stats([triplet])
        assert stats.count == 1
        assert stats.mean_len_doc == 3.0
        assert stats.mean_len_query == 3.0
        assert stats.mean_len_sum == 3.0
        for field in (
            "ntp_sum_doc",
            "ntp_query_doc",
            "ntp_doc_sum",
            "ntp_doc_query",
            "ntp_query_sum",
            "ntp_sum_query",
        ):
            assert getattr(stats, field) == 0.0
        assert stats.pearson_len_query_vs_sum is None

    def test_empty_corpus_errors(self):
        with pytest.raises(StatsError):
            corpus_stats([])

    def test_matches_brute_force_recount(self):
        triplets = [
            make_triplet(
                id="t1",
                document="the tall tower fell over",
                summary="The tower fell.",
                queries=("What fell?",),
                query_types=("what",),
            ),
            make_triplet(
                id="t2",
                document="green tea was poured slowly",
                summary="Tea was poured.\nIt was green tea.",
                queries=("What was poured?", "Was the tea green?"),
                query_types=("what", "is_are_was_were"),
            ),
            make_triplet(
                id="t3",
                document="a quick brown fox jumps",
                summary="The fox jumps.",
                queries=("Who jumps?",),
                query_types=("who_whom",),
            ),
            make_triplet(
                id="t4",
                document="rain fell on the quiet town all night",
                summary="Rain fell all night.\nThe town stayed quiet.",
                queries=("What fell all night?", "Did the town stay quiet?"),
                query_types=("what", "do_does_did"),
            ),
        ]
        stats = corpus_stats(triplets)

        # independent recount with plain python loops
        def simple_tokens(text):
            return tokenize(text)

        def simple_ntp(a, b):
            ta, tb = simple_tokens(a), set(simple_tokens(b))
            return 100.0 * sum(1 for t in ta if t not in tb) / len(ta)

        docs = [t.document for t in triplets]
        sums = [t.summary for t in triplets]
        qs = [" ".join(t.queries) for t in triplets]
        n = len(triplets)
        assert stats.mean_len_doc == pytest.approx(
            sum(len(simple_tokens(d)) for d in docs) / n, abs=1e-12
        )
        assert stats.mean_len_query == pytest.approx(
            sum(len(simple_tokens(q)) for q in qs) / n, abs=1e-12
        )
        assert stats.mean_len_sum == pytest.approx(
            sum(len(simple_tokens(s)) for s in sums) / n, abs=1e-12
        )
        assert stats.ntp_sum_doc == pytest.approx(
            sum(simple_ntp(s, d) for s, d in zip(sums, docs)) / n, abs=1e-12
        )
        assert stats.ntp_query_doc == pytest.approx(
            sum(simple_ntp(q, d) for q, d in zip(qs, docs)) / n, abs=1e-12
        )
        assert stats.ntp_doc_sum == pytest.approx(
            sum(simple_ntp(d, s) for d, s in zip(docs, sums)) / n, abs=1e-12
        )
        assert stats.ntp_doc_query == pytest.approx(
            sum(simple_ntp(d, q) for d, q in zip(docs, qs)) / n, abs=1e-12
        )
        assert stats.ntp_query_sum == pytest.approx(
            sum(simple_ntp(q, s) for q, s in zip(qs, sums)) / n, abs=1e-12
        )
        assert stats.ntp_sum_query == pytest.approx(
            sum(simple_ntp(s, q) for s, q in zip(sums, qs)) / n, abs=1e-12
        )
        qlens = [len(simple_tokens(q)) for q in qs]
        slens = [len(simple_tokens(s)) for s in sums]
        mq = sum(qlens) / n
        ms = sum(slens) / n
        num = sum((a - mq) * (b - ms) for a, b in zip(qlens, slens))
        den = math.sqrt(
            sum((a - mq) ** 2 for a in qlens) * sum((b - ms) ** 2 for b in slens)
        )
        assert stats.pearson_len_query_vs_sum == pytest.approx(num / den, abs=1e-12)

    def test_constant_lengths_suppress_correlation(self):
        triplets = [
            make_triplet(
                id=f"t{i}",
                document=f"doc {i} words here",
                summary="Same length here.",
                queries=("Same length query?",),
                query_types=("other",),
            )
            for i in range(3)
        ]
        assert corpus_stats(triplets).pearson_len_query_vs_sum is None

    def test_sample_count_and_bounds(self):
        triplets = [
            make_triplet(
                id=f"t{i}",
                document="some words appear here now",
                summary=f"Item {i} appears.",
                queries=(f"What appears {i}?",),
                query_types=("what",),
            )
            for i in range(5)
        ]
        stats = corpus_stats(triplets)
        assert stats.count == 5
        assert 0.0 <= stats.ntp_query_sum <= 100.0

    def test_format_table(self):
        stats = corpus_stats([make_triplet()])
        table = format_stats_table({"fixture": stats})
        assert table.split("\n")[0].startswith("row\tcount\tlen_doc")
        assert "\nfixture\t1\t" in table
