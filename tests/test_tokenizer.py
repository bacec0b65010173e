import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfs_forge.annotate import truncate_document
from qfs_forge.compose import truncate_to_tokens
from qfs_forge.tokenizer import count_tokens, nth_token_chunk, token_types, tokenize


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


def test_count_and_types():
    assert count_tokens("a b a") == 3
    assert token_types("a b a") == {"a", "b"}


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
