"""Metamorphic relations: how an output must move when its input is transformed.

Each property runs the code on a generated input and on a transformed copy,
and compares the two outputs with each other, so none needs an oracle of what
either output must be.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfs_forge.cli import main
from qfs_forge.compose import _scores, rank_documents
from qfs_forge.corpus import MODES, write_triplets

from conftest import make_triplet, read_jsonl

# Short words over few letters: a document repeats some and holds many types.
_WORDS = st.text(alphabet="abcdefg", min_size=1, max_size=2)
_TEXTS = st.lists(_WORDS, min_size=1, max_size=60).map(" ".join)
_CLUSTERS = st.lists(_TEXTS, min_size=1, max_size=4)
_QUERIES = st.lists(_WORDS, min_size=1, max_size=5).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    docs=_CLUSTERS,
    query=_QUERIES,
    which=st.integers(0, 3),
    rng=st.randoms(use_true_random=False),
)
# a builtin sum gives "a gb g a", a shuffle of "gb g a a", a norm of other bits
@example(docs=["gb g a a", "b"], query="a", which=0, rng=random.Random(0))
def test_word_order_in_a_document_leaves_every_score(docs, query, which, rng):
    which %= len(docs)
    words = docs[which].split()
    rng.shuffle(words)
    permuted = [*docs[:which], " ".join(words), *docs[which + 1:]]
    assert [s.hex() for s in _scores(permuted, query)] == [s.hex() for s in _scores(docs, query)]


@settings(max_examples=150, deadline=None)
@given(docs=_CLUSTERS, query=_QUERIES, data=st.data())
def test_document_order_permutes_the_ranking(docs, query, data):
    perm = data.draw(st.permutations(range(len(docs))))
    scores = _scores(docs, query)
    ranked = rank_documents(docs, query)
    ranked_permuted = rank_documents([docs[i] for i in perm], query)
    for k, (i, j) in enumerate(zip(ranked, (perm[p] for p in ranked_permuted))):
        assert scores[i] == scores[j]
        if scores.count(scores[i]) == 1:
            assert i == j
        elif k and scores[ranked[k - 1]] == scores[i]:
            # tied documents keep their order in the permuted cluster
            assert ranked_permuted[k - 1] < ranked_permuted[k]


_HEADS = ("What", "Who", "Did", "Is", "Can", "Will", "Have", "Why", "Tell", "Whose")
_SENTENCES = st.tuples(st.sampled_from(_HEADS), _WORDS)
_TRIPLETS = st.lists(
    st.tuples(st.sampled_from(MODES), st.lists(_SENTENCES, min_size=1, max_size=3)),
    min_size=1,
    max_size=8,
)


def _classify_rows(directory, triplets):
    write_triplets(triplets, str(directory / "triplets.jsonl"))
    argv = ["classify", "--input", str(directory / "triplets.jsonl"),
            "--output", str(directory / "types.jsonl")]
    assert main(argv) == 0
    return read_jsonl(directory / "types.jsonl")


@settings(max_examples=60, deadline=None)
@given(records=_TRIPLETS, data=st.data())
def test_shuffling_triplets_leaves_the_classify_rows(tmp_path_factory, records, data):
    triplets = [
        make_triplet(
            id=f"t{i}",
            document="a document",
            summary="\n".join(f"{word} happened." for _, word in sentences),
            queries=[f"{head} {word}?" for head, word in sentences],
            mode=mode,
            query_types=(),
        )
        for i, (mode, sentences) in enumerate(records)
    ]
    shuffled = data.draw(st.permutations(triplets))
    assert _classify_rows(tmp_path_factory.mktemp("shuffled"), shuffled) == _classify_rows(
        tmp_path_factory.mktemp("given"), triplets
    )
