"""Pure-Python kernels behind the ROUGE scorer and the corpus means.

None of the kernels needs a compiler, a JIT or numpy:

- ``lcs_length``: the LCS length for ROUGE-L, a bit-parallel recurrence
  over Python ints, split into ``match_masks`` and ``lcs_with_masks`` so
  that one text's masks serve all the texts it is compared with;
- ``clipped_matches``: the clipped unigram and bigram match counts for
  ROUGE-1 and ROUGE-2 (Lin 2004), one walk of the reference against the
  candidate's counts, which the candidate builds once;
- ``clipped_overlap`` / ``counts_overlap``: the clipped multiset overlap
  of two sequences or ``Counter``s, the sum of ``min(count_a, count_b)``;
  ROUGE no longer calls them;
- ``pairwise_mean``: numpy's pairwise summation, ported so that means
  keep the exact bits ``np.mean`` gave.

The LCS and overlap kernels take any sequence of hashables: token strings,
bigram tuples, or integer ids (numpy int64 arrays included).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence
from itertools import repeat

# numpy's PW_BLOCKSIZE: runs up to this length are summed with eight accumulators.
_BLOCK = 128


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if len(a) < len(b):
        a, b = b, a
    return lcs_with_masks(match_masks(a), len(a), b)


def match_masks(a: Sequence[Hashable]) -> dict:
    """Per token t of ``a``, the int whose bit i is set where ``a[i] == t``."""
    masks: dict = {}
    bit = 1
    for token in a:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def lcs_with_masks(masks: dict, m: int, b: Sequence[Hashable]) -> int:
    """LCS length of ``b`` and the length-``m`` sequence ``masks`` was built from.

    Bit-vector LCS-length recurrence (Allison & Dix 1986; Hyyrö 2004): the
    low m bits of ``v`` hold one zero per LCS step taken so far. One pass
    over ``b`` with ``u = v & M[t]; v = (v + u) | (v - u)`` leaves
    ``m - popcount(v)`` as the LCS length; carries past bit m are masked
    off at the end. ``b`` may be longer or shorter than m, so one sequence's
    masks serve every sequence it is compared with.
    """
    full = (1 << m) - 1
    v = full
    for token in b:
        match = masks.get(token)
        if match is not None:
            u = v & match
            v = (v + u) | (v - u)
    return m - (v & full).bit_count()


def clipped_matches(unigrams: dict, bigrams: dict, b: Sequence[Hashable]) -> tuple[int, int]:
    """Clipped unigram and bigram overlaps of ``b`` with a sequence of these counts.

    ``unigrams`` and ``bigrams`` count the tokens and the adjacent pairs of
    the other sequence. One pass over ``b`` takes each match from a copy of
    those counts, so a count is used at most once on either side. A token
    the other sequence lacks matches nothing and breaks every bigram through
    it, so it is skipped, and a bigram tuple is built only when both of its
    tokens are the other sequence's.
    """
    unigrams_left, bigrams_left = dict(unigrams), dict(bigrams)
    matches1 = matches2 = 0
    previous = None  # the token before this one, if the other sequence holds it
    for token in b:
        left = unigrams_left.get(token)
        if left is None:
            previous = None
            continue
        if left:
            unigrams_left[token] = left - 1
            matches1 += 1
        if previous is not None:
            pair = (previous, token)
            left = bigrams_left.get(pair)
            if left:
                bigrams_left[pair] = left - 1
                matches2 += 1
        previous = token
    return matches1, matches2


def counts_overlap(a: Counter, b: Counter) -> int:
    """Clipped overlap of two ``Counter``s: sum of min(a[k], b[k]) over keys.

    Walks the Counter with fewer keys and looks each key up in the other;
    ``Counter.__and__`` would build a third Counter in a Python loop. ROUGE
    counts its matches with ``clipped_matches`` instead.
    """
    if len(a) > len(b):
        a, b = b, a
    return sum(map(min, a.values(), map(b.get, a, repeat(0))))


def clipped_overlap(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Multiset intersection size of two sequences: ``counts_overlap`` of their counts."""
    return counts_overlap(Counter(a), Counter(b))


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    # numpy's pairwise_sum (Higham 1993), step for step: short runs add left
    # to right, runs up to _BLOCK use eight strided accumulators, longer runs
    # split at n/2 rounded down to a multiple of 8. Plain `+` throughout:
    # sum() is compensated from Python 3.12 on and would round differently.
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= _BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def pairwise_mean(values: Sequence[float]) -> float:
    """Arithmetic mean, bit-identical to ``float(np.mean(values))``.

    Integers are converted to floats first, as numpy does; their sums stay
    exact while every partial sum is below 2**53. Empty input is an error.
    """
    floats = list(map(float, values))
    if not floats:
        raise ValueError("pairwise_mean: empty input")
    # np.mean starts the reduction from the identity 0.0, which turns -0.0 into 0.0.
    return (0.0 + _pairwise_sum(floats, 0, len(floats))) / len(floats)
