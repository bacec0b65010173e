"""Shared tokenizer used by every counting operation in the package.

Rule: lowercase, split on Unicode whitespace, strip leading/trailing
punctuation (Unicode category ``P*``) from each piece, drop pieces that end
up empty. Every length, overlap and novelty statistic in this package counts
tokens produced by this one function, so results are reproducible across
modules.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache
from itertools import compress, count, islice, repeat


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


# Every ASCII byte that is not punctuation. A UTF-8 multi-byte sequence holds
# no ASCII byte, so deleting these from an encoded text leaves whole characters.
_NON_PUNCT_ASCII = bytes(b for b in range(128) if not _is_punct(chr(b)))


@lru_cache(maxsize=4096)
def _is_punct_or_cased(ch: str) -> bool:
    """Whether ``ch`` is punctuation or changes under ``str.lower``."""
    return _is_punct(ch) or ch.lower() != ch


def _kept_characters(encoded: bytes) -> set[str]:
    """The distinct punctuation and non-ASCII characters of a UTF-8 text.

    One C-level byte pass drops the ASCII that is not punctuation
    (``surrogatepass`` round-trips lone surrogates), so only the few distinct
    characters left need testing one by one.
    """
    return set(encoded.translate(None, _NON_PUNCT_ASCII).decode("utf-8", "surrogatepass"))


def _punctuation(text: str) -> str:
    """The punctuation characters that occur in ``text``, for ``str.strip``.

    Stripping a piece of ``text`` by this set strips exactly its leading and
    trailing punctuation.
    """
    return "".join(filter(_is_punct, _kept_characters(text.encode("utf-8", "surrogatepass"))))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase tokens; internal punctuation survives.

    The one UTF-8 encoding of ``text`` serves both lowercasing and the
    punctuation scan. Lowercasing neither adds nor removes a punctuation
    character, so the punctuation found in ``text`` strips its lowercase.
    """
    encoded = text.encode("utf-8", "surrogatepass")
    marks = "".join(filter(_is_punct_or_cased, _kept_characters(encoded)))
    if marks.lower() == marks:
        # No non-ASCII character changes case, so only ASCII A-Z can.
        text = encoded.lower().decode("utf-8", "surrogatepass")
        punct = marks
    else:
        text = text.lower()
        punct = "".join(filter(_is_punct, marks))
    pieces = text.split()
    if not punct:
        return pieces
    return list(filter(None, map(str.strip, pieces, repeat(punct))))


def first_token(text: str) -> str | None:
    """``tokenize(text)[0]``, or None for a text without a token.

    Only the chunks up to the first that holds a token are lowercased and
    stripped, each by its own punctuation.
    """
    for chunk in text.split():
        chunk = chunk.lower()
        token = chunk.strip(_punctuation(chunk))
        if token:
            return token
    return None


def has_token(text: str) -> bool:
    """``bool(tokenize(text))``: whether any character is neither whitespace nor punctuation."""
    for ch in text:
        if not ch.isspace() and not _is_punct(ch):
            return True
    return False


def nth_token_chunk(chunks: list[str], n: int) -> int:
    """Index of the chunk of ``text.split()`` holding the n-th token, or ``len(chunks)``.

    A chunk holds a token exactly when it is not all punctuation; lowercasing
    never changes that, so no chunk needs tokenizing.
    """
    if not 0 < n <= len(chunks):
        return len(chunks)
    holds_token = map(str.strip, chunks, repeat(_punctuation("".join(chunks))))
    return next(islice(compress(count(), holds_token), n - 1, None), len(chunks))
