"""Metamorphic relations: how an output must move when its input is transformed.

Each property runs the code on a generated input and on a transformed copy,
and compares the two outputs with each other, so none needs an oracle of what
either output must be. The CLI relations run the shipped commands on the
generated mock backend, whose completion depends only on the prompt and seed.
"""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfs_forge.cli import main
from qfs_forge.compose import _scores, rank_documents
from qfs_forge.corpus import MODES, write_triplets

from conftest import make_triplet, read_jsonl, write_jsonl

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


# Pairs of one to three summary sentences, in either domain; clusters and unify
# records from the same words. Ids are given by position.
_SUMMARIES = st.lists(_QUERIES, min_size=1, max_size=3).map(lambda s: "\n".join(f"{t}." for t in s))
_PAIRS = st.lists(
    st.tuples(st.sampled_from(("news", "dialogue")), _TEXTS, _SUMMARIES), min_size=1, max_size=6
).map(
    lambda rows: [
        {"id": f"p{i}", "document": document, "summary": summary, "domain": domain}
        for i, (domain, document, summary) in enumerate(rows)
    ]
)
_CLUSTER_RECORDS = st.lists(st.tuples(_QUERIES, _CLUSTERS), min_size=1, max_size=4).map(
    lambda rows: [
        {"cluster_id": f"c{i}", "query": query, "documents": documents}
        for i, (query, documents) in enumerate(rows)
    ]
)
_UNIFY_RECORDS = st.lists(st.tuples(_TEXTS, _QUERIES), min_size=1, max_size=4).map(
    lambda rows: [
        {"id": f"u{i}", "document": document, "query": query}
        for i, (document, query) in enumerate(rows)
    ]
)
# each command's extra flags and the files it writes
_COMMANDS = {
    "annotate": ([], ("out.jsonl", "out.jsonl.failures.jsonl")),
    "unify": (["--query-format", "words", "--strategy", "backend"], ("out.jsonl",)),
    "compose": ([], ("out.jsonl",)),
}


def _run(directory, command, records, *flags):
    """The lines of each output ``command`` writes for ``records`` on a seeded mock."""
    config = write_jsonl(directory / "config.json", [{"backend": {"kind": "mock", "seed": 5}}])
    inputs = write_jsonl(directory / "in.jsonl", records)
    extra, outputs = _COMMANDS[command]
    argv = ["--config", config, *flags, command, "--input", inputs,
            "--output", str(directory / "out.jsonl"), *extra]
    assert main(argv) in (0, 1)  # annotate exits 1 above its failure ceiling
    return [(directory / name).read_text(encoding="utf-8").splitlines() for name in outputs]


_RECORDS = {"annotate": _PAIRS, "unify": _UNIFY_RECORDS, "compose": _CLUSTER_RECORDS}


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(list(_COMMANDS)), parallelism=st.sampled_from(["1", "2"]),
       data=st.data())
def test_a_records_output_does_not_depend_on_the_other_records(
    tmp_path_factory, command, parallelism, data
):
    key = "cluster_id" if command == "compose" else "id"
    a = data.draw(_RECORDS[command])
    b = [{**record, key: "other-" + record[key]} for record in data.draw(_RECORDS[command])]
    ids = {record[key] for record in a}
    alone = _run(tmp_path_factory.mktemp(command), command, a, "--parallelism", parallelism)
    # out(A + B) and out(B + A), restricted to A, are out(A), line for line
    for both in (a + b, b + a):
        outputs = _run(tmp_path_factory.mktemp(command), command, both, "--parallelism", parallelism)
        assert [[line for line in lines if json.loads(line)[key] in ids] for lines in outputs] == alone


@settings(max_examples=10, deadline=None)
@given(pairs=_PAIRS, records=_UNIFY_RECORDS, clusters=_CLUSTER_RECORDS)
def test_parallelism_leaves_every_byte(tmp_path_factory, pairs, records, clusters):
    inputs = {"annotate": pairs, "unify": records, "compose": clusters}
    outputs = [
        {
            command: _run(tmp_path_factory.mktemp(command), command, inputs[command],
                          "--parallelism", str(parallelism))
            for command in _COMMANDS
        }
        for parallelism in (1, 2, 4)
    ]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
