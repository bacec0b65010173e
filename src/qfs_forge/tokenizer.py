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


def _punctuation(text: str) -> str:
    """The punctuation characters that occur in ``text``, for ``str.strip``.

    Stripping a piece of ``text`` by this set strips exactly its leading and
    trailing punctuation. One C-level byte pass drops the ASCII that is not
    punctuation (``surrogatepass`` round-trips lone surrogates), so only the
    few distinct characters left are tested one by one.
    """
    rest = text.encode("utf-8", "surrogatepass").translate(None, _NON_PUNCT_ASCII)
    return "".join(filter(_is_punct, set(rest.decode("utf-8", "surrogatepass"))))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase tokens; internal punctuation survives."""
    text = text.lower()
    pieces = text.split()
    punct = _punctuation(text)
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
