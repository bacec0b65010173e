import numpy as np

from qfs_forge import _kernels

from test_rouge import oracle_lcs


def random_pairs(n, max_len, vocab, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.integers(0, vocab, size=rng.integers(0, max_len + 1)).astype(np.int64)
        b = rng.integers(0, vocab, size=rng.integers(0, max_len + 1)).astype(np.int64)
        out.append((a, b))
    return out


class TestNumpyPath:
    """Known values for both kernels on 1-D int64 arrays."""

    def test_lcs_known_values(self):
        a = np.array([0, 1, 2, 3], dtype=np.int64)
        assert _kernels.lcs_length(a, a) == 4
        assert _kernels.lcs_length(a, a[::-1].copy()) == 1
        assert _kernels.lcs_length(a, np.array([0, 2, 1, 3], dtype=np.int64)) == 3

    def test_lcs_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        a = np.array([1, 2], dtype=np.int64)
        assert _kernels.lcs_length(empty, a) == 0
        assert _kernels.lcs_length(a, empty) == 0
        assert _kernels.lcs_length(empty, empty) == 0

    def test_overlap_known_values(self):
        a = np.array([1, 1, 2, 3], dtype=np.int64)
        b = np.array([1, 2, 2], dtype=np.int64)
        assert _kernels.clipped_overlap(a, b) == 2  # min counts: one 1, one 2

    def test_overlap_empty(self):
        empty = np.empty(0, dtype=np.int64)
        a = np.array([1], dtype=np.int64)
        assert _kernels.clipped_overlap(a, empty) == 0
        assert _kernels.clipped_overlap(empty, a) == 0


class TestBitParallelLcs:
    def test_matches_dp_oracle_across_word_boundaries(self):
        # Lengths 0-200 cross the 64- and 128-bit word boundaries; small
        # vocabularies keep matches dense.
        for vocab in (2, 4, 8):
            for a, b in random_pairs(60, 200, vocab, seed=vocab):
                expected = oracle_lcs(a.tolist(), b.tolist())
                assert _kernels.lcs_length(a, b) == expected
                assert _kernels.lcs_length(b, a) == expected

    def test_exact_word_boundary_lengths(self):
        rng = np.random.default_rng(11)
        for m in (63, 64, 65, 127, 128, 129):
            a = rng.integers(0, 3, size=m).astype(np.int64)
            b = rng.integers(0, 3, size=m - 1).astype(np.int64)
            assert _kernels.lcs_length(a, a) == m
            assert _kernels.lcs_length(a, b) == oracle_lcs(a.tolist(), b.tolist())

    def test_disjoint_and_sparse_vocabularies(self):
        a = np.arange(0, 50, dtype=np.int64)
        b = np.arange(50, 120, dtype=np.int64)
        assert _kernels.lcs_length(a, b) == 0
        for a, b in random_pairs(40, 120, 1000, seed=3):
            assert _kernels.lcs_length(a, b) == oracle_lcs(a.tolist(), b.tolist())

    def test_returns_python_int(self):
        a = np.array([4, 5, 6], dtype=np.int64)
        assert type(_kernels.lcs_length(a, a)) is int
        assert type(_kernels.clipped_overlap(a, a)) is int
