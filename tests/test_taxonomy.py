import pytest
from hypothesis import given
from hypothesis import strategies as st

import qfs_forge.taxonomy as taxonomy
import qfs_forge.tokenizer as tokenizer
from qfs_forge.taxonomy import (
    QueryType,
    QueryTypeDistribution,
    TaxonomyError,
    WH_TYPES,
    YES_NO_TYPES,
    aggregate_distribution,
    classify_query,
    format_distribution_table,
)

# Bucket percentages of the CNN/DM wh-prompt row of the query-type breakdown.
CNN_DM_WH_ROW = {
    QueryType.DO_DOES_DID: 0.08,
    QueryType.IS_ARE_WAS_WERE: 0.16,
    QueryType.CAN_COULD: 0.01,
    QueryType.WILL_WOULD: 0.02,
    QueryType.HAVE_HAS_HAD: 0.02,
    QueryType.WHAT: 52.36,
    QueryType.WHEN: 5.36,
    QueryType.WHERE: 4.29,
    QueryType.WHO_WHOM: 14.21,
    QueryType.WHICH: 0.2,
    QueryType.WHOSE: 0.0,
    QueryType.WHY: 3.98,
    QueryType.HOW: 19.21,
    QueryType.OTHER: 0.1,
}


class TestClassifyQuery:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ("What is her book about?", QueryType.WHAT),
            ("Is he still alive?", QueryType.IS_ARE_WAS_WERE),
            ("Summarize the findings.", QueryType.OTHER),
            ("Who was Tomas Medina Caracas?", QueryType.WHO_WHOM),
            ("Whom did they call?", QueryType.WHO_WHOM),
            ("Did the plan work?", QueryType.DO_DOES_DID),
            ("Does it rain there?", QueryType.DO_DOES_DID),
            ("Can they win?", QueryType.CAN_COULD),
            ("Will the offer stand?", QueryType.WILL_WOULD),
            ("Would she agree?", QueryType.WILL_WOULD),
            ("Have they arrived?", QueryType.HAVE_HAS_HAD),
            ("When was he indicted?", QueryType.WHEN),
            ("Where did it happen?", QueryType.WHERE),
            ("Which route is faster?", QueryType.WHICH),
            ("Whose idea was it?", QueryType.WHOSE),
            ("Why did he leave?", QueryType.WHY),
            ("How did he die?", QueryType.HOW),
            ("", QueryType.OTHER),
            ("   ?!", QueryType.OTHER),
        ],
    )
    def test_examples(self, query, expected):
        assert classify_query(query) == expected

    @pytest.mark.parametrize(
        "query,expected",
        [
            ("What's her book about?", QueryType.WHAT),
            ("Who's in charge?", QueryType.WHO_WHOM),
            ("“Where’s the venue?”", QueryType.WHERE),
            ("Don't they know?", QueryType.DO_DOES_DID),
            ("Won't it break?", QueryType.WILL_WOULD),
            ("Isn't she coming?", QueryType.IS_ARE_WAS_WERE),
            ("Can't he swim?", QueryType.CAN_COULD),
        ],
    )
    def test_contractions_classify_by_expansion_head(self, query, expected):
        assert classify_query(query) == expected

    def test_prefix_words_do_not_match(self):
        assert classify_query("Whatever happened there?") == QueryType.OTHER
        assert classify_query("However it went?") == QueryType.OTHER

    def test_case_insensitive(self):
        assert classify_query("WHAT NOW?") == QueryType.WHAT

    @given(
        head=st.sampled_from(
            ["what", "when", "is", "did", "how", "name", "describe", "the"]
        ),
        tail=st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=6
        ),
    )
    def test_only_first_token_matters(self, head, tail):
        base = classify_query(head + "?")
        extended = classify_query(" ".join([head] + tail) + "?")
        assert base == extended

    def test_classifying_tokenizes_no_query(self, monkeypatch):
        # only the head token is read, by first_token; no query is tokenized in full
        calls = []

        def counting(text):
            calls.append(text)
            return tokenizer.tokenize(text)

        monkeypatch.setattr(tokenizer, "tokenize", counting)
        monkeypatch.setattr(taxonomy, "tokenize", counting, raising=False)
        queries = ["What happened?", "“Don’t they know?”", "... why not?", "?"] * 25
        types = [classify_query(q) for q in queries]
        assert calls == []
        assert types == [QueryType.WHAT, QueryType.DO_DOES_DID, QueryType.WHY, QueryType.OTHER] * 25


class TestAggregateDistribution:
    def test_degenerate_all_what(self):
        dist = aggregate_distribution([QueryType.WHAT] * 100)
        assert dist.percentages[QueryType.WHAT] == 100.0
        assert dist.wh_aggregate == 100.0
        assert dist.yes_no_aggregate == 0.0
        assert dist.sample_count == 100

    def test_two_way_split(self):
        dist = aggregate_distribution([QueryType.WHAT, QueryType.DO_DOES_DID])
        assert dist.percentages[QueryType.WHAT] == 50.0
        assert dist.percentages[QueryType.DO_DOES_DID] == 50.0
        assert dist.yes_no_aggregate == 50.0
        assert dist.wh_aggregate == 50.0

    def test_empty_list_errors(self):
        with pytest.raises(TaxonomyError):
            aggregate_distribution([])

    def test_unknown_type_errors_with_its_name(self):
        with pytest.raises(TaxonomyError, match="unknown query type 'nope'"):
            aggregate_distribution(["what", "nope"])

    def test_cnn_dm_wh_row_aggregates(self):
        dist = QueryTypeDistribution.from_percentages(CNN_DM_WH_ROW)
        assert dist.wh_aggregate == pytest.approx(99.61, abs=0.01)
        assert dist.yes_no_aggregate == pytest.approx(0.29, abs=0.01)
        assert dist.sample_count == 0

    def test_from_percentages_rejects_bad_total(self):
        with pytest.raises(TaxonomyError, match="sum to"):
            QueryTypeDistribution.from_percentages({QueryType.WHAT: 90.0})

    @given(
        st.lists(st.sampled_from(list(QueryType)), min_size=1, max_size=200)
    )
    def test_matches_brute_force_recount(self, types):
        dist = aggregate_distribution(types)
        total = len(types)
        for bucket in QueryType:
            expected = 100.0 * sum(1 for t in types if t is bucket) / total
            assert dist.percentages[bucket] == pytest.approx(expected, abs=1e-9)
        assert dist.yes_no_aggregate == pytest.approx(
            sum(dist.percentages[t] for t in YES_NO_TYPES), abs=1e-9
        )
        assert dist.wh_aggregate == pytest.approx(
            sum(dist.percentages[t] for t in WH_TYPES), abs=1e-9
        )
        assert (
            dist.yes_no_aggregate + dist.wh_aggregate + dist.percentages[QueryType.OTHER]
            == pytest.approx(100.0, abs=1e-6)
        )


def test_format_distribution_table_has_all_columns():
    dist = aggregate_distribution([QueryType.WHAT, QueryType.HOW])
    table = format_distribution_table({"demo/wh": dist})
    header, row = table.split("\n")
    assert header.split("\t") == (
        ["row"] + [qt.value for qt in QueryType] + ["yes_no_queries", "wh_queries"]
    )
    assert row.startswith("demo/wh\t")
