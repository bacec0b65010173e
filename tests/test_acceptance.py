"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live)."""

import functools
import math
import random
import time

import pytest

from qfs_forge.annotate import annotate_corpus
from qfs_forge.backends import MockBackend
from qfs_forge.compose import (
    CompositionConfig,
    compose_cluster,
    overlap_pct,
    rank_documents,
)
from qfs_forge.corpus import DocumentSummaryPair, segment_sentences, write_triplets
from qfs_forge.prompts import (
    WH_INSTRUCTION,
    YESNO_INSTRUCTION,
    build_annotation_prompt,
    build_qfs_input,
    default_spec,
    parse_completion,
)
from qfs_forge.rouge import rouge_l, rouge_n
from qfs_forge.stats import corpus_stats, ntp, pearson
from qfs_forge.taxonomy import QueryTypeDistribution
from qfs_forge.tokenizer import tokenize

from conftest import make_triplet
from test_compose import MapBackend, brute_force_rank
from test_prompts import GOLDEN_DIR, GOLDEN_TARGETS
from test_rouge import oracle_rouge_l, oracle_rouge_n
from test_taxonomy import CNN_DM_WH_ROW


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {summary}")
                raise
            print(f"[criterion {number:2d}] PASS  {summary}")
            return result

        return wrapper

    return decorate


@criterion(1, "ROUGE matches brute-force oracles on 1000 random pairs in < 5 s")
def test_rouge_oracle_equivalence():
    rouge_l("warm up", "warm up")  # first calls (imports, caches) stay outside the timed region
    rouge_n("warm up", "warm up", 2)
    rng = random.Random(20240601)
    vocab = [f"t{i}" for i in range(8)]
    pairs = [
        (
            " ".join(rng.choices(vocab, k=rng.randint(1, 12))),
            " ".join(rng.choices(vocab, k=rng.randint(1, 12))),
        )
        for _ in range(1000)
    ]
    start = time.perf_counter()
    for candidate, reference in pairs:
        for n in (1, 2):
            fast = rouge_n(candidate, reference, n)
            slow = oracle_rouge_n(candidate, reference, n)
            assert abs(fast.precision - slow.precision) <= 1e-12
            assert abs(fast.recall - slow.recall) <= 1e-12
            assert abs(fast.f1 - slow.f1) <= 1e-12
        fast = rouge_l(candidate, reference)
        slow = oracle_rouge_l(candidate, reference)
        assert abs(fast.precision - slow.precision) <= 1e-12
        assert abs(fast.recall - slow.recall) <= 1e-12
        assert abs(fast.f1 - slow.f1) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "hand-scored ROUGE fixtures reproduce")
def test_hand_score_fixtures():
    unigram = rouge_n("the cat sat on the mat", "the cat is on the mat", 1)
    assert unigram.f1 == pytest.approx(0.8333, abs=1e-4)
    lcs = rouge_l("a b c d", "a c b d")
    assert lcs.f1 == 0.75


@criterion(3, "NTP identities hold on 100 random strings and the hand count")
def test_ntp_identities():
    rng = random.Random(7)
    left_vocab = [f"a{i}" for i in range(20)]
    right_vocab = [f"b{i}" for i in range(20)]
    for _ in range(100):
        x = " ".join(rng.choices(left_vocab, k=rng.randint(1, 15)))
        y = " ".join(rng.choices(right_vocab, k=rng.randint(1, 15)))
        assert ntp(x, x) == 0.0
        assert ntp(x, y) == 100.0
    assert ntp("the red fox", "the fox ran") == pytest.approx(33.33, abs=0.01)


@criterion(4, "query-type row arithmetic reproduces the published aggregates")
def test_taxonomy_row_aggregates():
    dist = QueryTypeDistribution.from_percentages(CNN_DM_WH_ROW)
    assert dist.wh_aggregate == pytest.approx(99.61, abs=0.01)
    assert dist.yes_no_aggregate == pytest.approx(0.29, abs=0.01)


@criterion(5, "20-pair mock annotation: full parse success, parallel-stable bytes, < 2 s")
def test_end_to_end_annotation(tmp_path):
    rng = random.Random(5)
    topics = ["storm", "market", "bridge", "museum", "election", "harvest"]
    pairs = []
    for i in range(20):
        n_sentences = rng.randint(1, 4)
        topic = topics[i % len(topics)]
        sentences = [
            f"The {topic} update number {i} part {j} landed today."
            for j in range(n_sentences)
        ]
        pairs.append(
            DocumentSummaryPair(
                id=f"fx{i:02d}",
                document=f"A report about the {topic}. It covers {n_sentences} developments in detail.",
                summary="\n".join(sentences),
                domain="news",
            )
        )
    spec = default_spec("news", "wh")
    start = time.perf_counter()
    serial = annotate_corpus(pairs, spec, MockBackend(seed=21), parallelism=1)
    parallel = annotate_corpus(pairs, spec, MockBackend(seed=21), parallelism=8)
    elapsed = time.perf_counter() - start

    assert all(outcome.ok for outcome in serial)
    for pair, outcome in zip(pairs, serial):
        assert len(outcome.triplet.queries) == len(segment_sentences(pair.summary))
    path_serial = tmp_path / "serial.jsonl"
    path_parallel = tmp_path / "parallel.jsonl"
    write_triplets([o.triplet for o in serial], str(path_serial))
    write_triplets([o.triplet for o in parallel], str(path_parallel))
    assert path_serial.read_bytes() == path_parallel.read_bytes()
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


@criterion(6, "shipped example wh and yes/no completions parse verbatim")
def test_parse_robustness_on_example_completions():
    wh = (
        "1. Who was Tomas Medina Caracas?\n"
        "2. What was he indicted for?\n"
        "3. When was he indicted?\n"
        "4. How did he die?"
    )
    assert parse_completion(wh, 4, "wh") == [
        "Who was Tomas Medina Caracas?",
        "What was he indicted for?",
        "When was he indicted?",
        "How did he die?",
    ]
    yesno = (
        "1. Yes: Was Tomas Medina Caracas a fugitive?\n"
        '2. No: Did "El Negro Acacio" help to fight against drug?\n'
        "3. Yes: Was he indicted by U.S. Justice Department?\n"
        "4. No: Is he still alive?"
    )
    assert parse_completion(yesno, 4, "yesno") == [
        "Was Tomas Medina Caracas a fugitive?",
        'Did "El Negro Acacio" help to fight against drug?',
        "Was he indicted by U.S. Justice Department?",
        "Is he still alive?",
    ]
    dialogue_yesno = (
        "1. Yes: Do Emma and Rob love the advent calendar?\n"
        "2. No: Is Lauren unenthusiastic about advent calendar?\n"
        "3. Yes: Do Lauren's children enjoy receiving the calendar?"
    )
    assert parse_completion(dialogue_yesno, 3, "yesno") == [
        "Do Emma and Rob love the advent calendar?",
        "Is Lauren unenthusiastic about advent calendar?",
        "Do Lauren's children enjoy receiving the calendar?",
    ]


def _replay_greedy(order, summaries, threshold, budget, on_overflow):
    """Independent simulation of the greedy selection loop."""
    chosen, indices, used, truncated = [], [], 0, False
    for doc_index, candidate in zip(order, summaries):
        cand_tokens = tokenize(candidate)
        selected_types = set(tokenize(" ".join(chosen)))
        hits = sum(1 for t in cand_tokens if t in selected_types)
        overlap = 100.0 * hits / len(cand_tokens) if chosen else 0.0
        if overlap >= threshold:
            continue
        if used + len(cand_tokens) > budget:
            truncated = True
            if on_overflow == "truncate":
                remaining = budget - used
                kept = []
                seen = 0
                for chunk in candidate.split():
                    if tokenize(chunk):
                        if seen >= remaining:
                            break
                        seen += 1
                    kept.append(chunk)
                cut = " ".join(kept)
                if cut:
                    chosen.append(cut)
                    indices.append(doc_index)
                    used += len(tokenize(cut))
            break
        chosen.append(candidate)
        indices.append(doc_index)
        used += len(cand_tokens)
    return " ".join(chosen), tuple(indices), truncated


@criterion(7, "composition invariants hold on 500 randomized mock scenarios in < 5 s")
def test_composition_invariants():
    rng = random.Random(777)
    vocab = [f"w{i}" for i in range(40)]
    start = time.perf_counter()
    for scenario in range(500):
        n_docs = rng.randint(1, 6)
        docs = [f"cluster doc {scenario} item {j} about {rng.choice(vocab)}" for j in range(n_docs)]
        mapping = {
            f"item {j} ": " ".join(rng.choices(vocab, k=rng.randint(3, 30)))
            for j in range(n_docs)
        }
        threshold = rng.choice([10.0, 25.0, 50.0, 75.0, 100.0])
        budget = rng.randint(5, 80)
        on_overflow = rng.choice(["truncate", "drop"])
        cfg = CompositionConfig(
            backend=MapBackend(mapping),
            overlap_threshold=threshold,
            token_budget=budget,
            on_overflow=on_overflow,
        )
        query = " ".join(rng.choices(vocab, k=3))
        result = compose_cluster(docs, query, cfg)
        again = compose_cluster(docs, query, cfg)
        assert result == again  # determinism

        assert len(tokenize(result.summary)) <= budget

        order = rank_documents(docs, query)
        summaries = [
            next(s for key, s in mapping.items() if key in doc)
            for doc in (docs[i] for i in order)
        ]
        expected = _replay_greedy(order, summaries, threshold, budget, on_overflow)
        assert (result.summary, result.selected_doc_indices, result.truncated) == expected

        # every accepted non-first summary was under the threshold at its turn
        prefix: list[str] = []
        for doc_index in result.selected_doc_indices:
            rank_position = order.index(doc_index)
            full_summary = summaries[rank_position]
            if prefix:
                assert overlap_pct(full_summary, " ".join(prefix)) < threshold
            prefix.append(full_summary)
    elapsed = time.perf_counter() - start

    # the compose examples, verbatim
    single = compose_cluster(["doc one"], "query", CompositionConfig(backend=MapBackend({"doc one": "S."})))
    assert single.summary == "S."
    dup_cfg = CompositionConfig(
        backend=MapBackend({"doc one": "twin summary", "doc two": "twin summary"})
    )
    dup = compose_cluster(["doc one", "doc two"], "query", dup_cfg)
    assert dup.summary == "twin summary"
    assert dup.selected_doc_indices == (0,)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(8, "TF-IDF ranking matches brute force on 50 random clusters, ties stable")
def test_tfidf_oracle_equivalence():
    rng = random.Random(4242)
    vocab = [f"v{i}" for i in range(10)]
    for _ in range(50):
        docs = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
            for _ in range(rng.randint(1, 5))
        ]
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        assert rank_documents(docs, query) == brute_force_rank(docs, query)
    assert rank_documents(["same doc"] * 5, "same doc") == [0, 1, 2, 3, 4]
    assert rank_documents(["alpha", "beta", "gamma"], "unrelated") == [0, 1, 2]


@criterion(9, "prompt golden files are byte-stable and formats render exactly")
def test_prompt_golden_files_and_qfs_format():
    for domain in ("news", "dialogue"):
        for mode in ("wh", "yesno"):
            prompt = build_annotation_prompt(GOLDEN_TARGETS[domain], default_spec(domain, mode))
            golden = (GOLDEN_DIR / f"prompt_{domain}_{mode}.txt").read_bytes()
            assert prompt.encode("utf-8") == golden
            expected_instruction = WH_INSTRUCTION if mode == "wh" else YESNO_INSTRUCTION
            assert expected_instruction in prompt
    assert build_qfs_input("<query>", "<document>") == "question:\n <query> \n context:\n<document>"


@criterion(10, "Pearson fixtures and the 10-triplet stats recount agree")
def test_pearson_and_corpus_stats_recount():
    assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]) == pytest.approx(-1.0, abs=1e-12)
    expected = 5.0 / math.sqrt(2.0 * (38.0 / 3.0))
    assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(expected, abs=1e-12)

    rng = random.Random(10)
    vocab = [f"s{i}" for i in range(15)]
    triplets = []
    for i in range(10):
        n_queries = rng.randint(1, 3)
        summary = "\n".join(
            f"Sentence {i} item {j} covers {rng.choice(vocab)}." for j in range(n_queries)
        )
        queries = tuple(
            f"What does item {j} of {i} cover {rng.choice(vocab)}?" for j in range(n_queries)
        )
        triplets.append(
            make_triplet(
                id=f"t{i}",
                document=" ".join(rng.choices(vocab, k=rng.randint(5, 25))) + ".",
                summary=summary,
                queries=queries,
                query_types=tuple("what" for _ in queries),
            )
        )
    stats = corpus_stats(triplets)

    def recount_ntp(a, b):
        ta, tb = tokenize(a), set(tokenize(b))
        return 100.0 * sum(1 for t in ta if t not in tb) / len(ta)

    docs = [t.document for t in triplets]
    sums = [t.summary for t in triplets]
    qs = [" ".join(t.queries) for t in triplets]
    n = len(triplets)
    assert stats.count == n
    assert stats.mean_len_doc == pytest.approx(sum(len(tokenize(d)) for d in docs) / n, abs=1e-12)
    assert stats.mean_len_query == pytest.approx(sum(len(tokenize(q)) for q in qs) / n, abs=1e-12)
    assert stats.mean_len_sum == pytest.approx(sum(len(tokenize(s)) for s in sums) / n, abs=1e-12)
    checks = {
        "ntp_sum_doc": (sums, docs),
        "ntp_query_doc": (qs, docs),
        "ntp_doc_sum": (docs, sums),
        "ntp_doc_query": (docs, qs),
        "ntp_query_sum": (qs, sums),
        "ntp_sum_query": (sums, qs),
    }
    for field, (first, second) in checks.items():
        expected_mean = sum(recount_ntp(a, b) for a, b in zip(first, second)) / n
        assert getattr(stats, field) == pytest.approx(expected_mean, abs=1e-12)
    qlens = [len(tokenize(q)) for q in qs]
    slens = [len(tokenize(s)) for s in sums]
    mq, ms = sum(qlens) / n, sum(slens) / n
    numerator = sum((a - mq) * (b - ms) for a, b in zip(qlens, slens))
    denominator = math.sqrt(
        sum((a - mq) ** 2 for a in qlens) * sum((b - ms) ** 2 for b in slens)
    )
    assert stats.pearson_len_query_vs_sum == pytest.approx(numerator / denominator, abs=1e-12)
