import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs_forge.backends import BackendError, SUMMARIZATION_PARAMS
from qfs_forge.compose import (
    ComposeError,
    CompositionConfig,
    _scores,
    compose_cluster,
    overlap_pct,
    rank_documents,
    truncate_to_tokens,
)
from qfs_forge.tokenizer import tokenize


class MapBackend:
    """Summarizer double: doc text -> canned summary, keyed by substring."""

    name = "map-mock"

    def __init__(self, mapping):
        self.mapping = mapping

    def complete(self, prompt, params):
        document = prompt.split(" \n context:\n", 1)[1]
        for key, summary in self.mapping.items():
            if key in document:
                return summary
        raise BackendError(f"no canned summary for {document[:40]!r}")


def config(mapping, **kwargs):
    return CompositionConfig(backend=MapBackend(mapping), **kwargs)


def brute_force_rank(docs, query):
    """Independent tf-idf cosine ranking used as the oracle."""
    n = len(docs)
    doc_tokens = [tokenize(d) for d in docs]
    vocab = set().union(*doc_tokens) if docs else set()
    df = {t: sum(1 for toks in doc_tokens if t in toks) for t in vocab}
    idf = {t: math.log(n / df[t]) + 1.0 for t in vocab}

    def vec(tokens):
        counts = Counter(t for t in tokens if t in vocab)
        return {t: c * idf[t] for t, c in counts.items()}

    qv = vec(tokenize(query))

    def cosine(u, v):
        dot = sum(w * v.get(t, 0.0) for t, w in u.items())
        if dot == 0.0:
            return 0.0
        nu = math.sqrt(sum(w * w for w in u.values()))
        nv = math.sqrt(sum(w * w for w in v.values()))
        return dot / (nu * nv)

    scores = [cosine(vec(toks), qv) for toks in doc_tokens]
    return sorted(range(n), key=lambda i: (-scores[i], i))


class OracleTfIdfIndex:
    """``compose.TfIdfIndex`` and ``_cosine`` (below) from before
    ``rank_documents`` scored a cluster inline, verbatim but for the sums,
    which are ``math.fsum`` as in ``compose._scores``: exactly rounded, so
    their bits do not depend on the interpreter or on term order."""

    def __init__(self, docs: list[str]):
        if not docs:
            raise ComposeError("cannot index an empty cluster")
        self.doc_counts = [Counter(tokenize(doc)) for doc in docs]
        self.df = Counter()
        for counts in self.doc_counts:
            self.df.update(counts.keys())
        self.n_docs = len(docs)
        self._idf = {term: math.log(self.n_docs / df) + 1.0 for term, df in self.df.items()}

    def idf(self, term: str) -> float:
        return self._idf.get(term, 0.0)

    def vector(self, counts: Counter) -> dict[str, float]:
        idf = self._idf
        return {term: tf * idf[term] for term, tf in counts.items() if term in idf}


def oracle_cosine(u: dict[str, float], v: dict[str, float]) -> float:
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = math.fsum(weight * v.get(term, 0.0) for term, weight in u.items())
    if dot == 0.0:
        return 0.0
    norm_u = math.sqrt(math.fsum(w * w for w in u.values()))
    norm_v = math.sqrt(math.fsum(w * w for w in v.values()))
    return dot / (norm_u * norm_v)


def oracle_scores(docs: list[str], query: str) -> list[float]:
    index = OracleTfIdfIndex(docs)
    query_vec = index.vector(Counter(tokenize(query)))
    return [oracle_cosine(index.vector(counts), query_vec) for counts in index.doc_counts]


def dot_over(u: dict[str, float], v: dict[str, float]) -> float:
    # left to right with `+=`: sum() is compensated from Python 3.12 on
    total = 0.0
    for term, weight in u.items():
        total += weight * v.get(term, 0.0)
    return total


# Few words and short documents, so clusters repeat documents and tie often.
_WORDS = st.sampled_from(["snow", "Snow,", "market", "river", "the", "a", "apples", "—"])
_DOCS = st.lists(st.lists(_WORDS, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=7)

# Clusters where document 1's dot product, added left to right, sums to
# another float when taken over the other side: the query has more weighted
# terms than the document, fewer, and as many. ``_scores`` sums exactly, so
# either side gives it the oracle's bits.
_SIDE_CASES = {
    "query-more-terms": (
        ["cold apples", "market town town snow", "snow a"],
        "town snow cold the market",
    ),
    "query-fewer-terms": (
        ["cold", "snow apples a river snow", "cold apples snow"],
        "market a river snow",
    ),
    "same-term-count": (
        ["market", "cold river river town snow river", "snow the the river"],
        "cold snow market town market cold",
    ),
}


class TestRankDocuments:
    def test_single_document(self):
        assert rank_documents(["only doc"], "any query") == [0]

    def test_zero_overlap_keeps_original_order(self):
        docs = ["alpha beta", "gamma delta", "epsilon zeta"]
        assert rank_documents(docs, "unrelated words") == [0, 1, 2]

    def test_hand_built_cluster_matches_brute_force(self):
        docs = [
            "snow fell on the town",
            "the market opened higher today",
            "snow and cold hit the market",
        ]
        query = "snow market"
        assert rank_documents(docs, query) == brute_force_rank(docs, query)

    def test_identical_docs_tie_break_stable(self):
        docs = ["same words here"] * 4
        assert rank_documents(docs, "same words") == [0, 1, 2, 3]

    def test_permutation_consistency(self):
        docs = [
            "apples and pears grow here",
            "bridges span the wide river",
            "apples fall near the river",
        ]
        query = "apples river"
        base = rank_documents(docs, query)
        permuted = [docs[2], docs[0], docs[1]]
        mapping = {0: 2, 1: 0, 2: 1}  # new index -> old index
        remapped = [mapping[i] for i in rank_documents(permuted, query)]
        assert remapped == base

    def test_random_tiny_clusters_match_oracle(self):
        import random

        rng = random.Random(1234)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(50):
            docs = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
                for _ in range(rng.randint(1, 5))
            ]
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            assert rank_documents(docs, query) == brute_force_rank(docs, query)

    def test_empty_inputs_error(self):
        with pytest.raises(ComposeError):
            rank_documents([], "q")
        with pytest.raises(ComposeError):
            rank_documents(["d"], "  ")

    @settings(max_examples=300)
    @given(docs=_DOCS, query=st.lists(_WORDS, min_size=1, max_size=8).map(" ".join))
    def test_idf_table_keeps_scores_and_order_bit_identical(self, docs, query):
        scores, expected = _scores(docs, query), oracle_scores(docs, query)
        assert [s.hex() for s in scores] == [s.hex() for s in expected]
        assert rank_documents(docs, query) == sorted(range(len(docs)), key=lambda i: (-expected[i], i))

    @pytest.mark.parametrize("docs, query", _SIDE_CASES.values(), ids=_SIDE_CASES)
    def test_dot_product_runs_over_the_smaller_side(self, docs, query):
        index = OracleTfIdfIndex(docs)
        doc_vec = index.vector(index.doc_counts[1])
        query_vec = index.vector(Counter(tokenize(query)))
        assert dot_over(doc_vec, query_vec) != dot_over(query_vec, doc_vec)
        assert _scores(docs, query)[1].hex() == oracle_cosine(doc_vec, query_vec).hex()


class TestOverlapPct:
    def test_self_overlap_is_hundred(self):
        assert overlap_pct("the red fox", "the red fox") == 100.0

    def test_empty_selection_is_zero(self):
        assert overlap_pct("a b", "") == 0.0

    def test_hand_counted_example(self):
        # complement of the novelty count: only "red" is novel
        assert overlap_pct("the red fox", "the fox ran") == pytest.approx(200.0 / 3.0, abs=1e-9)

    def test_empty_candidate_errors(self):
        with pytest.raises(ComposeError):
            overlap_pct("  ", "something")


class TestTruncateToTokens:
    def test_whole_token_boundary(self):
        assert truncate_to_tokens("one two three four", 2) == "one two"

    def test_zero_budget_empty(self):
        assert truncate_to_tokens("one two", 0) == ""
        # a leading chunk holding no token is not kept either
        assert truncate_to_tokens("— one two", 0) == ""
        assert truncate_to_tokens("— one two", 1) == "— one"

    def test_budget_beyond_length_keeps_text(self):
        assert truncate_to_tokens("one two", 10) == "one two"


class TestComposeSummary:
    def test_single_doc_passthrough(self):
        cfg = config({"doc one": "S."})
        assert compose_cluster(["doc one"], "query words", cfg).summary == "S."

    def test_identical_summaries_deduplicated(self):
        cfg = config({"doc one": "same summary text", "doc two": "same summary text"})
        result = compose_cluster(["doc one", "doc two"], "query", cfg)
        assert result.summary == "same summary text"
        assert result.selected_doc_indices == (0,)
        assert result.truncated is False

    def test_low_overlap_summaries_concatenate(self):
        cfg = config({"doc one": "alpha beta gamma", "doc two": "delta epsilon zeta"})
        result = compose_cluster(["doc one", "doc two"], "query", cfg)
        assert result.summary == "alpha beta gamma delta epsilon zeta"
        assert result.selected_doc_indices == (0, 1)

    def test_budget_truncates_third_summary(self):
        summaries = {
            "doc one": " ".join(f"a{i}" for i in range(120)),
            "doc two": " ".join(f"b{i}" for i in range(120)),
            "doc three": " ".join(f"c{i}" for i in range(120)),
        }
        cfg = config(summaries, token_budget=250)
        result = compose_cluster(["doc one", "doc two", "doc three"], "query", cfg)
        tokens = tokenize(result.summary)
        assert len(tokens) == 250
        assert result.truncated is True
        assert result.selected_doc_indices == (0, 1, 2)
        # hand simulation: 120 + 120 + first 10 tokens of the third summary
        assert tokens[240:] == [f"c{i}" for i in range(10)]

    def test_drop_mode_skips_overflowing_summary(self):
        summaries = {
            "doc one": " ".join(f"a{i}" for i in range(120)),
            "doc two": " ".join(f"b{i}" for i in range(200)),
        }
        cfg = config(summaries, token_budget=150, on_overflow="drop")
        result = compose_cluster(["doc one", "doc two"], "query", cfg)
        assert len(tokenize(result.summary)) == 120
        assert result.selected_doc_indices == (0,)
        assert result.truncated is True

    @pytest.mark.parametrize("odd", ["\u2014", "", "  ...  "])
    def test_summary_without_tokens_is_skipped(self, odd, caplog):
        mapping = {"doc one": "alpha beta", "doc two": odd, "doc three": "gamma delta"}
        with caplog.at_level("WARNING", logger="qfs_forge.compose"):
            result = compose_cluster(["doc one", "doc two", "doc three"], "query", config(mapping))
        assert result.summary == "alpha beta gamma delta"
        assert result.selected_doc_indices == (0, 2)
        assert "document 1" in caplog.text

    def test_backend_failure_names_document_index(self):
        cfg = config({"doc one": "fine summary"})
        with pytest.raises(ComposeError, match="document 1"):
            compose_cluster(["doc one", "unknown doc"], "query", cfg)

    def test_deterministic(self):
        mapping = {"doc one": "alpha beta", "doc two": "gamma delta"}
        first = compose_cluster(["doc one", "doc two"], "query", config(mapping)).summary
        second = compose_cluster(["doc one", "doc two"], "query", config(mapping)).summary
        assert first == second

    def test_empty_cluster_errors(self):
        with pytest.raises(ComposeError):
            compose_cluster([], "q", config({}))

    def test_parallel_summarization_matches_serial(self):
        mapping = {f"doc {i}": f"summary {i} stands alone{i}" for i in range(6)}
        docs = list(mapping)
        serial = compose_cluster(docs, "summary", config(mapping, parallelism=1))
        parallel = compose_cluster(docs, "summary", config(mapping, parallelism=4))
        assert serial == parallel


class TestConfigValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            CompositionConfig(backend=MapBackend({}), overlap_threshold=101)

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            CompositionConfig(backend=MapBackend({}), token_budget=0)

    def test_defaults(self):
        cfg = CompositionConfig(backend=MapBackend({}))
        assert (cfg.overlap_threshold, cfg.token_budget, cfg.on_overflow, cfg.parallelism) == (
            50.0, 250, "truncate", 1
        )

    def test_default_params_are_summarization_preset(self):
        cfg = CompositionConfig(backend=MapBackend({}))
        assert cfg.params == SUMMARIZATION_PARAMS
        assert cfg.params.temperature == 1.0
        assert cfg.params.top_p == 0.9
        assert cfg.params.max_tokens == 512
