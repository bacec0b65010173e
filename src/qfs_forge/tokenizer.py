"""Shared tokenizer used by every counting operation in the package.

Rule: lowercase, split on Unicode whitespace, strip leading/trailing
punctuation from each piece, drop pieces that end up empty. Every length,
overlap and novelty statistic in this package counts tokens produced by
this one function, so results are reproducible across modules.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(piece: str) -> str:
    start = 0
    end = len(piece)
    while start < end and _is_punct(piece[start]):
        start += 1
    while end > start and _is_punct(piece[end - 1]):
        end -= 1
    return piece[start:end]


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase tokens; internal punctuation survives."""
    tokens = []
    for piece in text.lower().split():
        piece = _strip_punct(piece)
        if piece:
            tokens.append(piece)
    return tokens


def nth_token_chunk(chunks: list[str], n: int) -> int:
    """Index of the chunk of ``text.split()`` holding the n-th token, or ``len(chunks)``.

    A chunk holds a token exactly when it is not all punctuation; lowercasing
    never changes that, so no chunk needs tokenizing.
    """
    if len(chunks) < n:
        return len(chunks)
    for index, chunk in enumerate(chunks):
        if _strip_punct(chunk):
            n -= 1
            if n == 0:
                return index
    return len(chunks)
