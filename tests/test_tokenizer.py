import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs_forge import compose, rouge, stats
from qfs_forge.annotate import truncate_document
from qfs_forge.compose import truncate_to_tokens
from qfs_forge.tokenizer import first_token, has_token, nth_token_chunk, tokenize

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


# One-character chunks, letters or punctuation alone, and whitespace that
# str.split cuts at, to build texts at the edge of truncate_document's bound.
_EDGE_CHUNK = st.one_of(st.sampled_from("abİß"), st.sampled_from(".,!-…¿«»"))
_EDGE_GAP = st.sampled_from(" \t\n\u2003\x1c\x85\xa0\u3000")


@settings(max_examples=300)
@given(
    data=st.data(),
    max_tokens=st.integers(min_value=1, max_value=12),
    offset=st.sampled_from((-2, -1, 0, 1)),
)
def test_truncation_bound_matches_the_former_body_at_its_edge(data, max_tokens, offset):
    # n one-character chunks take 2n - 1 characters; an even length has one more gap
    length = 2 * max_tokens + offset
    n = (length + 1) // 2
    chunks = data.draw(st.lists(_EDGE_CHUNK, min_size=n, max_size=n))
    gaps = data.draw(st.lists(_EDGE_GAP, min_size=n, max_size=n))
    text = "".join(chunk + gap for chunk, gap in zip(chunks, gaps))
    if length % 2:
        text = text[:-1]
    elif data.draw(st.booleans(), label="gap first"):
        text = text[-1:] + text[:-1]
    assert len(text) == length
    cut = truncate_document(text, max_tokens)
    assert cut == _oracle_truncate_document(text, max_tokens)
    if length < 2 * max_tokens:
        assert cut is text


class _Unsplittable(str):
    def split(self, *args, **kwargs):
        raise AssertionError("split called")


def test_truncate_document_does_not_split_a_text_under_the_bound():
    for max_tokens in (1, 3, 50):
        text = _Unsplittable("a " * (max_tokens - 1) + "b")  # 2 * max_tokens - 1 characters
        assert truncate_document(text, max_tokens) is text
        with pytest.raises(AssertionError, match="split called"):
            truncate_document(_Unsplittable(text + " "), max_tokens)


@given(text=_CUT_TEXT, n=st.integers(min_value=1, max_value=10))
def test_nth_token_chunk_counts_tokens_without_tokenizing_chunks(text, n):
    chunks = text.split()
    index = nth_token_chunk(chunks, n)
    if index == len(chunks):
        assert len(tokenize(text)) < n
    else:
        assert len(tokenize(" ".join(chunks[: index + 1]))) == n
        assert tokenize(chunks[index])


# Verbatim bodies of tokenize and nth_token_chunk when they stripped each
# piece character by character; kept as oracles for the per-text
# punctuation set that str.strip now uses.
def _oracle_is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _oracle_strip_punct(piece: str) -> str:
    start = 0
    end = len(piece)
    while start < end and _oracle_is_punct(piece[start]):
        start += 1
    while end > start and _oracle_is_punct(piece[end - 1]):
        end -= 1
    return piece[start:end]


def _oracle_tokenize(text: str) -> list[str]:
    tokens = []
    for piece in text.lower().split():
        piece = _oracle_strip_punct(piece)
        if piece:
            tokens.append(piece)
    return tokens


def _oracle_nth_token_chunk(chunks: list[str], n: int) -> int:
    if len(chunks) < n:
        return len(chunks)
    for index, chunk in enumerate(chunks):
        if _oracle_strip_punct(chunk):
            n -= 1
            if n == 0:
                return index
    return len(chunks)


# One or more characters of every punctuation subcategory (Pc Pd Ps Pe Pi Pf
# Po), symbols that must survive, every separator str.split() knows,
# combining marks, letters whose lowercase changes length or shape, and lone
# surrogates. Between them they hold characters of every UTF-8 width, 4-byte
# punctuation and symbols included, so the byte pass that finds punctuation
# meets every kind of sequence.
_PUNCTUATION = "_‿＿⁀" "-–—" "([{「" ")]}」" "«‘“" "»’”" ".,!?'\"…·¿¡%&*@#/\\:;" "\U00011047"
_SYMBOLS = "$+<=>^`|~©€😀"
_SEPARATORS = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
_MARKS = "\u0301\u0307\u0308\u20dd"
_LETTERS = "abAB09İẞǅΣ" "ЖжЯя" "中文字"
_SURROGATES = "\ud800\udfff"
_EDGE = st.text(alphabet=_PUNCTUATION + _MARKS, max_size=3)
_CORE = st.text(alphabet=_PUNCTUATION + _SYMBOLS + _MARKS + _LETTERS + _SURROGATES, max_size=4)
# Raw mixtures, and pieces with punctuation runs at their edges (often
# nothing else) so that every strip decision comes up.
_MIXED_TEXT = st.one_of(
    st.text(
        alphabet=_PUNCTUATION + _SYMBOLS + _SEPARATORS + _MARKS + _LETTERS + _SURROGATES,
        max_size=60,
    ),
    st.lists(st.tuples(_EDGE, _CORE, _EDGE, st.sampled_from(_SEPARATORS)).map("".join), max_size=12)
    .map("".join),
)


def test_oracle_alphabet_covers_every_punctuation_subcategory():
    categories = {unicodedata.category(ch) for ch in _PUNCTUATION}
    assert categories == {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"}
    assert all(unicodedata.category(ch).startswith("S") for ch in _SYMBOLS)
    assert {"\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"} <= set(_SEPARATORS)


@settings(max_examples=300)
@given(_MIXED_TEXT)
def test_tokenize_matches_the_character_loop(text):
    assert tokenize(text) == _oracle_tokenize(text)


@settings(max_examples=300)
@given(text=_MIXED_TEXT, n=st.integers(min_value=-1, max_value=12))
def test_nth_token_chunk_matches_the_character_loop(text, n):
    chunks = text.split()
    assert nth_token_chunk(chunks, n) == _oracle_nth_token_chunk(chunks, n)


def test_symbols_survive_and_underscore_is_stripped():
    assert tokenize("<y> $5") == ["<y>", "$5"]
    assert tokenize("_init_ ‿x‿ ＿") == ["init", "x"]
    assert tokenize("«Oui» ‘no’") == ["oui", "no"]
    assert tokenize("A\ud800, b\udfff” «C»") == ["a\ud800", "b\udfff", "c"]


@settings(max_examples=300)
@given(st.one_of(st.text(), _MIXED_TEXT))
def test_has_token_is_a_non_empty_tokenize(text):
    assert has_token(text) == bool(tokenize(text))


@pytest.mark.parametrize(
    "text, holds",
    [("\u3000", False), ("\x1c", False), ("_", False), ("$", True), ("—", False), ("— … a", True),
     ("A\ud800, b\udfff” «C»", True)],
)
def test_has_token_edge_cases(text, holds):
    assert has_token(text) is holds
    assert bool(tokenize(text)) is holds


@settings(max_examples=300)
@given(st.one_of(st.text(), _MIXED_TEXT))
def test_first_token_is_the_head_of_tokenize(text):
    assert first_token(text) == (tokenize(text) or [None])[0]


@pytest.mark.parametrize(
    "text, head",
    [("", None), ("\u3000\x1c — …", None), ("İstanbul is", "i̇stanbul"), ("“Why” not", "why"),
     ("... -- «What's» up", "what's"), ("\ud800, b", "\ud800")],
)
def test_first_token_edge_cases(text, head):
    assert first_token(text) == head
    assert tokenize(text)[:1] == ([head] if head else [])


class _NoLower(str):
    def lower(self):
        raise AssertionError("str.lower called")


def test_a_text_without_cased_non_ascii_is_lowercased_as_bytes():
    assert tokenize(_NoLower("Hello, “World” — ok")) == ["hello", "world", "ok"]
    with pytest.raises(AssertionError, match="str.lower called"):
        tokenize(_NoLower("Жук"))


# ASCII letters of both cases, and non-ASCII characters that str.lower keeps
# as they are: the text is then lowercased as bytes, never by str.lower.
_CASELESS = "ßıªʰ" "中文字"
_BYTE_PATH_TEXT = st.text(
    alphabet="abzABZ09" + _PUNCTUATION + _SYMBOLS + _SEPARATORS + _MARKS + _CASELESS + _SURROGATES,
    max_size=60,
)


def test_byte_path_alphabet_is_caseless_outside_ascii():
    alphabet = _PUNCTUATION + _SYMBOLS + _SEPARATORS + _MARKS + _CASELESS + _SURROGATES
    assert [ch for ch in alphabet if not ch.isascii() and ch.lower() != ch] == []


@settings(max_examples=300)
@given(_BYTE_PATH_TEXT)
def test_byte_path_matches_the_character_loop(text):
    assert tokenize(_NoLower(text)) == _oracle_tokenize(text)


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("\u212aelvin, OK", ["kelvin", "ok"]),  # KELVIN SIGN lowercases to ASCII k
        ("İstanbul, “Izmir”", ["i̇stanbul", "izmir"]),
        ("ABΣ. Next", ["abς", "next"]),  # final sigma
        ("ǅemal — «Hi»", ["ǆemal", "hi"]),
        ("Ж-ray, OK", ["ж-ray", "ok"]),
    ],
)
def test_one_cased_non_ascii_character_falls_back_to_str_lower(text, tokens):
    assert tokenize(text) == _oracle_tokenize(text) == tokens
    with pytest.raises(AssertionError, match="str.lower called"):
        tokenize(_NoLower(text))


def test_lowercasing_keeps_every_code_points_punctuation():
    # tokenize strips a lowercased text by the punctuation of the text as
    # given, and sees a case change in the lowercase of its kept characters
    changed = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.lower() != ch]
    assert len(changed) > 1000
    for ch in changed:
        lowered = ch.lower()
        assert not _oracle_is_punct(ch)
        assert not any(map(_oracle_is_punct, lowered))
        assert lowered[0] != ch


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
