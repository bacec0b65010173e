"""Integer-sequence kernels behind the ROUGE scorer.

Token sequences are encoded as 1-D int64 id arrays before they get here.
The two kernels are the LCS length for ROUGE-L, a bit-parallel recurrence
over Python ints, and the clipped multiset overlap for ROUGE-N, a sorted
``np.unique`` intersection. Neither needs a compiler or a JIT.
"""

from __future__ import annotations

import numpy as np


def lcs_length(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common subsequence of two id sequences.

    Bit-vector LCS-length recurrence (Allison & Dix 1986; Hyyrö 2004):
    bit i of ``M[t]`` marks token t at position i of the longer sequence
    (length m), and the low m bits of ``v`` hold one zero per LCS step
    taken so far. One pass over the shorter sequence with
    ``u = v & M[t]; v = (v + u) | (v - u)`` leaves ``m - popcount(v)`` as
    the LCS length; carries past bit m are masked off at the end.
    """
    if a.size < b.size:
        a, b = b, a
    if b.size == 0:
        return 0
    masks: dict[int, int] = {}
    bit = 1
    for token in a.tolist():
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    for token in b.tolist():
        match = masks.get(token)
        if match is not None:
            u = v & match
            v = (v + u) | (v - u)
    return a.size - (v & full).bit_count()


def clipped_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """Multiset intersection size: sum of min(count_a, count_b) over values."""
    if a.size == 0 or b.size == 0:
        return 0
    values_a, counts_a = np.unique(a, return_counts=True)
    values_b, counts_b = np.unique(b, return_counts=True)
    _, idx_a, idx_b = np.intersect1d(
        values_a, values_b, assume_unique=True, return_indices=True
    )
    return int(np.minimum(counts_a[idx_a], counts_b[idx_b]).sum())
