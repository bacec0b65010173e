import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfs_forge import compose, rouge, stats
from qfs_forge.annotate import truncate_document
from qfs_forge.compose import truncate_to_tokens
from qfs_forge.tokenizer import nth_token_chunk, tokenize

from conftest import make_triplet


def test_lowercases_and_splits_on_whitespace():
    assert tokenize("The RED\tfox\nran") == ["the", "red", "fox", "ran"]


def test_strips_edge_punctuation_keeps_internal():
    assert tokenize('"Hello," she said... (really).') == ["hello", "she", "said", "really"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("U.S. officials") == ["u.s", "officials"]


def test_crlf_and_unicode_whitespace_are_separators():
    assert tokenize("a\r\nb c") == ["a", "b", "c"]


def test_punctuation_only_pieces_drop():
    assert tokenize("-- ... !!! a") == ["a"]
    assert tokenize("") == []


@given(st.text(max_size=80))
def test_retokenizing_joined_tokens_is_identity(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


@given(st.text(max_size=80))
def test_tokens_never_empty_or_spaced(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()
        assert not token.split()[1:]


# Verbatim bodies of the two truncation helpers before they shared
# nth_token_chunk; kept as oracles for the single scan.
def _oracle_truncate_document(document: str, max_tokens: int) -> str:
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    kept = []
    seen = 0
    for chunk in document.split():
        kept.append(chunk)
        if tokenize(chunk):
            seen += 1
            if seen >= max_tokens:
                break
    if seen < max_tokens or len(kept) == len(document.split()):
        return document
    return " ".join(kept)


def _oracle_truncate_to_tokens(text: str, max_tokens: int) -> str:
    if max_tokens <= 0:
        return ""
    kept = []
    seen = 0
    for chunk in text.split():
        if tokenize(chunk):
            if seen >= max_tokens:
                break
            seen += 1
        kept.append(chunk)
    return " ".join(kept)


# ASCII, Unicode punctuation, non-ASCII cased letters (whose lowercase
# changes length or shape) and mixed whitespace.
_CUT_TEXT = st.text(
    alphabet="ab.,!'-\"" "“”«»¿¡—–…·" "İǅßΣÉñ" " \t\n\r\u00a0\u2003\u3000",
    max_size=40,
)


@given(text=_CUT_TEXT, max_tokens=st.integers(min_value=-1, max_value=10))
def test_token_cut_matches_both_former_truncation_bodies(text, max_tokens):
    if max_tokens < 1:
        with pytest.raises(ValueError):
            truncate_document(text, max_tokens)
    else:
        assert truncate_document(text, max_tokens) == _oracle_truncate_document(text, max_tokens)
    assert truncate_to_tokens(text, max_tokens) == _oracle_truncate_to_tokens(text, max_tokens)


def test_truncate_document_returns_the_same_object_when_nothing_is_cut():
    document = "one two -- three"
    assert truncate_document(document, 3) is document


@given(text=_CUT_TEXT, n=st.integers(min_value=1, max_value=10))
def test_nth_token_chunk_counts_tokens_without_tokenizing_chunks(text, n):
    chunks = text.split()
    index = nth_token_chunk(chunks, n)
    if index == len(chunks):
        assert len(tokenize(text)) < n
    else:
        assert len(tokenize(" ".join(chunks[: index + 1]))) == n
        assert tokenize(chunks[index])


class TestEachTextTokenizedOnce:
    """Each stage tokenizes every text it measures exactly once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        for module in (stats, compose, rouge):
            monkeypatch.setattr(module, "tokenize", counting)
        return calls

    def test_corpus_stats(self, calls):
        triplets = [make_triplet(id=f"t{i}", document=f"doc {i} words here") for i in range(5)]
        stats.corpus_stats(triplets)
        assert len(calls) == 3 * len(triplets)

    def test_score_multi_reference(self, calls):
        references = ["the cat sat", "a cat sat down", "dogs bark"]
        rouge.score_multi_reference("the cat sat on the mat", references)
        assert len(calls) == 1 + len(references)

    @pytest.mark.parametrize("budget, examined", [(100, 4), (5, 2)])
    def test_compose_cluster(self, calls, budget, examined):
        class Backend:
            name = "echo"

            def complete(self, prompt, params):
                return prompt.split("context:\n", 1)[1]

        docs = ["alpha beta gamma", "delta epsilon zeta", "eta theta iota", "kappa lambda mu"]
        cfg = compose.CompositionConfig(backend=Backend(), token_budget=budget)
        compose.compose_cluster(docs, "alpha query", cfg)
        assert len(calls) == len(docs) + 1 + examined
