import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs_forge import _kernels

from test_rouge import oracle_lcs


def oracle_overlap(a, b):
    """Clipped overlap straight from the definition, key by key."""
    ca, cb = Counter(a), Counter(b)
    return sum(min(count, cb[key]) for key, count in ca.items())


def random_tokens(rng, max_len, vocab):
    return [f"w{rng.randrange(vocab)}" for _ in range(rng.randint(0, max_len))]


def bigrams(tokens):
    return list(zip(tokens, tokens[1:]))


def id_counts(a, b):
    """The candidate counts of ``a`` that ``clipped_id_matches`` takes, and ``b`` as ids."""
    ids, masks, seq = _kernels.index_tokens(a)
    k = len(masks)
    unigrams = [mask.bit_count() for mask in masks]
    pairs = Counter(previous * k + i for previous, i in zip(seq, seq[1:]))
    return unigrams, pairs, k, list(map(ids.get, b))


def random_pairs(n, max_len, vocab, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.integers(0, vocab, size=rng.integers(0, max_len + 1)).astype(np.int64)
        b = rng.integers(0, vocab, size=rng.integers(0, max_len + 1)).astype(np.int64)
        out.append((a, b))
    return out


class TestNumpyPath:
    """Known values for both kernels on 1-D int64 arrays, which they still take."""

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

    def test_overlap_matches_oracle(self):
        for a, b in random_pairs(60, 80, 12, seed=5):
            assert _kernels.clipped_overlap(a, b) == oracle_overlap(a.tolist(), b.tolist())


class TestTokenSequences:
    """Both kernels on token strings and bigram tuples, as the ROUGE scorer calls them."""

    def test_lcs_matches_dp_oracle_on_tokens_and_bigrams(self):
        rng = random.Random(7)
        for vocab in (2, 5, 40):
            for _ in range(40):
                a, b = random_tokens(rng, 150, vocab), random_tokens(rng, 150, vocab)
                assert _kernels.lcs_length(a, b) == oracle_lcs(a, b)
                assert _kernels.lcs_length(b, a) == oracle_lcs(a, b)
                assert _kernels.lcs_length(bigrams(a), bigrams(b)) == oracle_lcs(bigrams(a), bigrams(b))

    def test_masks_of_either_side_give_the_lcs(self):
        rng = random.Random(9)
        for _ in range(120):
            a, b = random_tokens(rng, 150, 6), random_tokens(rng, 150, 6)
            expected = oracle_lcs(a, b)
            for x, y in ((a, b), (b, a)):
                ids, masks, _ = _kernels.index_tokens(x)
                assert _kernels.lcs_of_ids(masks, len(x), list(map(ids.get, y))) == expected

    def test_overlap_matches_counter_oracle_on_tokens_and_bigrams(self):
        rng = random.Random(8)
        for vocab in (2, 5, 40):
            for _ in range(40):
                a, b = random_tokens(rng, 150, vocab), random_tokens(rng, 150, vocab)
                assert _kernels.clipped_overlap(a, b) == oracle_overlap(a, b)
                assert _kernels.clipped_overlap(b, a) == oracle_overlap(a, b)
                assert _kernels.clipped_overlap(bigrams(a), bigrams(b)) == oracle_overlap(
                    bigrams(a), bigrams(b)
                )

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.sampled_from("abcde"), max_size=30),
        b=st.lists(st.sampled_from("abcdef"), max_size=30),
    )
    def test_clipped_matches_equal_the_oracle_on_tokens_and_bigrams(self, a, b):
        unigrams, pairs, k, b_ids = id_counts(a, b)
        expected = (oracle_overlap(a, b), oracle_overlap(bigrams(a), bigrams(b)))
        assert _kernels.clipped_id_matches(unigrams, pairs, k, b_ids) == expected
        assert (unigrams, pairs) == id_counts(a, b)[:2]  # the counts are not used up

    def test_counts_overlap_walks_either_side(self):
        small, large = Counter({"a": 3, "b": 1}), Counter({"a": 1, "b": 5, "c": 2, "d": 1})
        assert _kernels.counts_overlap(small, large) == 2
        assert _kernels.counts_overlap(large, small) == 2
        assert _kernels.counts_overlap(Counter(), large) == 0

    def test_tokens_equal_by_value_not_identity(self):
        a = "the cat sat on the mat".split()
        b = [token[:1] + token[1:] for token in "the mat and the cat".split()]
        assert _kernels.lcs_length(a, b) == oracle_lcs(a, b) == 2
        assert _kernels.clipped_overlap(a, b) == 4


# The former bodies of ``match_masks``, ``lcs_with_masks`` and
# ``clipped_matches``, the string-keyed kernels ROUGE ran before it matched
# on ids, verbatim.
def _former_match_masks(a):
    masks: dict = {}
    bit = 1
    for token in a:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _former_lcs_with_masks(masks, m, b):
    full = (1 << m) - 1
    v = full
    for token in b:
        match = masks.get(token)
        if match is not None:
            u = v & match
            v = (v + u) | (v - u)
    return m - (v & full).bit_count()


def _former_clipped_matches(unigrams, bigrams, b):
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


# Token lists over one letter (heavy repeats), two, five, or three letters
# that no other alphabet holds (no token in common); any may be empty.
_TOKEN_LISTS = st.sampled_from(["a", "ab", "abcde", "xyz"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=40)
)


class TestIdKernelsKeepTheFormerBodies:
    """The id kernels against the string kernels they replaced, kept verbatim
    above as ``_former_*``: the same masks, LCS lengths and clipped counts."""

    @settings(max_examples=300, deadline=None)
    @given(a=_TOKEN_LISTS, b=_TOKEN_LISTS)
    def test_same_counts_as_the_former_bodies(self, a, b):
        ids, masks, seq = _kernels.index_tokens(a)
        assert list(ids) == list(dict.fromkeys(a))  # ids in first-seen order
        assert list(ids.values()) == list(range(len(ids)))
        assert [list(ids)[i] for i in seq] == a
        former = _former_match_masks(a)
        assert dict(zip(ids, masks)) == former
        unigrams, pairs, k, b_ids = id_counts(a, b)
        assert _kernels.lcs_of_ids(masks, len(a), b_ids) == _former_lcs_with_masks(former, len(a), b)
        assert _kernels.clipped_id_matches(unigrams, pairs, k, b_ids) == _former_clipped_matches(
            Counter(a), Counter(bigrams(a)), b
        )
        assert _kernels.lcs_length(a, b) == _kernels.lcs_length(b, a) == _former_lcs_with_masks(
            former, len(a), b
        )


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


class TestPairwiseMean:
    """``pairwise_mean`` reproduces ``np.mean`` bit for bit."""

    @staticmethod
    def assert_same_bits(values):
        assert _kernels.pairwise_mean(values).hex() == float(np.mean(values)).hex()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 8192, 8193])
    def test_block_and_buffer_boundary_sizes(self, n):
        rng = random.Random(n)
        self.assert_same_bits([rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-8, 8) for _ in range(n)])
        self.assert_same_bits([rng.random() * 100.0 for _ in range(n)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20000), st.integers(0, 2**32))
    def test_random_sizes(self, n, seed):
        rng = random.Random(seed)
        self.assert_same_bits([rng.gauss(0.0, 10.0 ** rng.randint(-3, 6)) for _ in range(n)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=300))
    def test_arbitrary_floats(self, values):
        self.assert_same_bits(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=3000))
    def test_integers(self, values):
        self.assert_same_bits(values)

    def test_negative_zero_and_empty(self):
        self.assert_same_bits([-0.0] * 9)
        with pytest.raises(ValueError):
            _kernels.pairwise_mean([])
