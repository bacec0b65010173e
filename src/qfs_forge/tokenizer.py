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


def _punctuation(text: str) -> str:
    """The punctuation characters that occur in ``text``, for ``str.strip``.

    Stripping a piece of ``text`` by this set strips exactly its leading and
    trailing punctuation, and the per-character work runs in C.
    """
    return "".join(filter(_is_punct, set(text)))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase tokens; internal punctuation survives."""
    text = text.lower()
    pieces = text.split()
    punct = _punctuation(text)
    if not punct:
        return pieces
    tokens = list(map(str.strip, pieces, repeat(punct)))
    if "" in tokens:
        return list(filter(None, tokens))
    return tokens


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
