import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfs_forge.rouge as rouge_module
from qfs_forge._kernels import index_tokens, pairwise_mean
from qfs_forge.corpus import CorpusError
from qfs_forge.rouge import (
    METRICS,
    RougeError,
    RougeScore,
    evaluate_run,
    rouge_l,
    rouge_n,
    score_multi_reference,
)
from qfs_forge.tokenizer import tokenize

from conftest import write_jsonl

words = st.text(alphabet="abcd", min_size=1, max_size=3)
texts = st.lists(words, min_size=1, max_size=10).map(" ".join)


def oracle_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def oracle_rouge_n(candidate, reference, n):
    """Brute-force clipped n-gram counter."""
    cand = oracle_ngram_counts(tokenize(candidate), n)
    ref = oracle_ngram_counts(tokenize(reference), n)
    matches = sum(min(count, ref[gram]) for gram, count in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0, empty_input=True)
    p = matches / cand_total
    r = matches / ref_total
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return RougeScore(p, r, f1)


def oracle_lcs(a, b):
    """Classic quadratic LCS dynamic program, full table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(candidate, reference):
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0, empty_input=True)
    lcs = oracle_lcs(cand, ref)
    p = lcs / len(cand)
    r = lcs / len(ref)
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return RougeScore(p, r, f1)


class TestRougeN:
    def test_identical_texts(self):
        for n in (1, 2):
            score = rouge_n("the cat sat", "the cat sat", n)
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_vocabulary(self):
        score = rouge_n("alpha beta", "gamma delta", 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_cat_sat_fixture(self):
        score = rouge_n("the cat sat on the mat", "the cat is on the mat", 1)
        assert score.precision == pytest.approx(5 / 6, abs=1e-12)
        assert score.recall == pytest.approx(5 / 6, abs=1e-12)
        assert score.f1 == pytest.approx(0.8333, abs=1e-4)

    def test_clipping_limits_repeats(self):
        score = rouge_n("a a a a", "a b", 1)
        assert score.precision == 0.25
        assert score.recall == 0.5

    def test_empty_side_flags(self):
        score = rouge_n("...", "words here", 1)
        assert score.empty_input
        assert score.f1 == 0.0

    def test_single_token_has_no_bigrams(self):
        assert rouge_n("one", "one", 2).empty_input

    def test_a_token_the_candidate_lacks_breaks_the_bigram(self):
        assert rouge_n("a b", "a x b", 2) == RougeScore(0.0, 0.0, 0.0)
        one = rouge_n("a b", "a x b", 1)
        assert (one.precision, one.recall) == (1.0, 2 / 3)  # 2 matches

    def test_bigram_matches_are_clipped_on_both_sides(self):
        # candidate bigrams ab ab ba, reference ab ab ab ba ba: min(2, 3) + min(1, 2) = 3
        score = rouge_n("a b a b", "a b a b a b", 2)
        assert (score.precision, score.recall) == (1.0, 3 / 5)
        score = rouge_n("a b a b a b", "a b a b", 2)
        assert (score.precision, score.recall) == (3 / 5, 1.0)

    def test_one_token_candidate(self):
        one = rouge_n("a", "a b a", 1)
        assert (one.precision, one.recall) == (1.0, 1 / 3)
        assert rouge_n("a", "a b a", 2).empty_input
        scores = score_multi_reference("a", ["b", "a b a"])
        assert scores["rouge1"] == one
        assert scores["rouge2"].empty_input
        assert (scores["rougeL"].precision, scores["rougeL"].recall) == (1.0, 1 / 3)

    def test_invalid_n_rejected(self):
        with pytest.raises(RougeError):
            rouge_n("a", "b", 3)

    @given(candidate=texts, reference=texts)
    def test_matches_oracle(self, candidate, reference):
        for n in (1, 2):
            fast = rouge_n(candidate, reference, n)
            slow = oracle_rouge_n(candidate, reference, n)
            assert fast.precision == pytest.approx(slow.precision, abs=1e-12)
            assert fast.recall == pytest.approx(slow.recall, abs=1e-12)
            assert fast.f1 == pytest.approx(slow.f1, abs=1e-12)

    @given(candidate=texts, reference=texts)
    def test_f1_symmetry(self, candidate, reference):
        forward = rouge_n(candidate, reference, 1)
        backward = rouge_n(reference, candidate, 1)
        assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-12)
        assert forward.f1 == pytest.approx(backward.f1, abs=1e-12)

    @given(candidate=texts, reference=texts)
    def test_appending_candidate_token_to_reference_monotone(self, candidate, reference):
        shared = tokenize(candidate)[0]
        before = rouge_n(candidate, reference, 1)
        after = rouge_n(candidate, reference + " " + shared, 1)
        # recall numerator (matches) never decreases
        assert after.recall * len(tokenize(reference + " " + shared)) >= (
            before.recall * len(tokenize(reference)) - 1e-9
        )


class TestRougeL:
    def test_identical(self):
        score = rouge_l("a b c", "a b c")
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_transposition_fixture(self):
        score = rouge_l("a b c d", "a c b d")
        assert score.precision == 0.75
        assert score.recall == 0.75
        assert score.f1 == 0.75

    def test_reversal_of_distinct_tokens(self):
        score = rouge_l("a b c d", "d c b a")
        assert score.precision == 0.25
        assert score.f1 == 0.25

    @given(candidate=texts, reference=texts)
    def test_matches_oracle(self, candidate, reference):
        fast = rouge_l(candidate, reference)
        slow = oracle_rouge_l(candidate, reference)
        assert fast.precision == pytest.approx(slow.precision, abs=1e-12)
        assert fast.recall == pytest.approx(slow.recall, abs=1e-12)
        assert fast.f1 == pytest.approx(slow.f1, abs=1e-12)


class TestScoreHelpers:
    def test_score_pair_has_three_metrics(self):
        scores = score_multi_reference("a b", ["a c"])
        assert set(scores) == {"rouge1", "rouge2", "rougeL"}

    @given(candidate=texts, reference=texts)
    def test_score_pair_equals_single_metric_functions(self, candidate, reference):
        assert score_multi_reference(candidate, [reference]) == {
            "rouge1": rouge_n(candidate, reference, 1),
            "rouge2": rouge_n(candidate, reference, 2),
            "rougeL": rouge_l(candidate, reference),
        }

    def test_multi_reference_takes_max_per_metric(self):
        scores = score_multi_reference("the cat sat", ["the cat sat", "dogs bark"])
        assert scores["rouge1"].f1 == 1.0
        only_bad = score_multi_reference("the cat sat", ["dogs bark"])
        assert only_bad["rouge1"].f1 == 0.0

    @given(candidate=texts, references=st.lists(texts, min_size=1, max_size=4))
    def test_multi_reference_is_first_best_score_pair(self, candidate, references):
        best = {}
        for reference in references:
            scores = score_multi_reference(candidate, [reference])
            for metric in METRICS:
                if metric not in best or scores[metric].f1 > best[metric].f1:
                    best[metric] = scores[metric]
        assert score_multi_reference(candidate, references) == best


class TestCountsOnce:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_references_build_no_counter(self, monkeypatch, k):
        built, indexed = [], []

        class CountingCounter(Counter):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        def counting_index(tokens):
            indexed.append(list(tokens))
            return index_tokens(tokens)

        monkeypatch.setattr(rouge_module, "Counter", CountingCounter)
        monkeypatch.setattr(rouge_module, "index_tokens", counting_index)
        references = [f"the cat sat on mat {i} the cat" for i in range(k)]
        score_multi_reference("the cat sat on the mat", references)
        assert len(built) == 1  # the candidate's bigrams, whatever k is
        assert indexed == [tokenize("the cat sat on the mat")]  # the candidate, once


# Examples of a candidate and one to three references over four letters: F1 ties are common.
_EXAMPLES = st.lists(
    st.tuples(texts, st.lists(texts, min_size=1, max_size=3)), min_size=1, max_size=5
)


class TestEvaluateRelations:
    """How evaluate's rows and means move when its files change."""

    @staticmethod
    def write(directory, examples, order):
        """Prediction and reference files of (id, candidate, references)
        examples, the predictions in ``order`` and each id's references
        interleaved with the others' in that order too."""
        preds = [{"id": examples[i][0], "text": examples[i][1]} for i in order]
        refs = [
            {"id": examples[i][0], "text": text}
            for position in range(3)
            for i in order
            for text in examples[i][2][position:position + 1]
        ]
        return (write_jsonl(directory / "p.jsonl", preds), write_jsonl(directory / "r.jsonl", refs))

    @staticmethod
    def rows(report):
        return {row["id"]: row for row in report.to_records()[:-1]}

    @settings(max_examples=40, deadline=None)
    @given(a=_EXAMPLES, b=_EXAMPLES, seed=st.integers(0, 2**16))
    def test_rows_do_not_depend_on_other_records_or_their_order(self, tmp_path_factory, a, b, seed):
        a = [(f"a{i}", c, refs) for i, (c, refs) in enumerate(a)]
        b = [(f"b{i}", c, refs) for i, (c, refs) in enumerate(b)]
        alone = evaluate_run(*self.write(tmp_path_factory.mktemp("a"), a, range(len(a))))
        both = a + b
        order = list(range(len(both)))
        random.Random(seed).shuffle(order)
        shuffled = evaluate_run(*self.write(tmp_path_factory.mktemp("ab"), both, order))
        rows = self.rows(shuffled)
        assert list(rows) == [both[i][0] for i in order]
        assert {rid: rows[rid] for rid, _, _ in a} == self.rows(alone)
        for report in (alone, shuffled):  # the means sum in file order, by design
            for metric in METRICS:
                for stat in ("precision", "recall", "f1"):
                    values = [getattr(row[metric], stat) for row in report.per_example]
                    assert getattr(report.means[metric], stat) == pairwise_mean(values)


# A candidate and one to three references as ids below 6, and two injective
# renderings of those ids as words that the tokenizer keeps as they are.
_ID_LISTS = st.lists(st.integers(0, 5), max_size=30)
_VOCABS = st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=6, max_size=6, unique=True)


class TestRelabeling:
    """Scores depend on token equality only: renaming every token through one
    injective map leaves each metric unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(
        candidate=_ID_LISTS,
        references=st.lists(_ID_LISTS, min_size=1, max_size=3),
        first=_VOCABS,
        second=_VOCABS,
    )
    def test_renaming_tokens_keeps_every_score(self, candidate, references, first, second):
        def render(ids, words):
            text = " ".join(words[i] for i in ids)
            assert tokenize(text) == [words[i] for i in ids]
            return text

        scores = [
            score_multi_reference(render(candidate, words), [render(r, words) for r in references])
            for words in (first, second)
        ]
        assert scores[0] == scores[1]


class TestEvaluateRun:
    def test_identity_run_scores_one(self, tmp_path):
        records = [{"id": f"r{i}", "text": f"summary number {i} here"} for i in range(3)]
        preds = write_jsonl(tmp_path / "preds.jsonl", records)
        refs = write_jsonl(tmp_path / "refs.jsonl", records)
        report = evaluate_run(preds, refs)
        for metric in ("rouge1", "rouge2", "rougeL"):
            assert report.means[metric].f1 == 1.0

    def test_half_perfect_half_disjoint_averages(self, tmp_path):
        preds = write_jsonl(
            tmp_path / "p.jsonl",
            [{"id": "a", "text": "same words here"}, {"id": "b", "text": "aaa bbb"}],
        )
        refs = write_jsonl(
            tmp_path / "r.jsonl",
            [{"id": "a", "text": "same words here"}, {"id": "b", "text": "xxx yyy"}],
        )
        report = evaluate_run(preds, refs)
        assert report.means["rouge1"].f1 == pytest.approx(0.5, abs=1e-12)

    def test_five_pair_fixture_matches_per_pair_scores(self, tmp_path):
        pairs = [
            ("the cat sat on the mat", "the cat is on the mat"),
            ("a b c d", "a c b d"),
            ("alpha beta gamma", "alpha beta gamma"),
            ("north wind blows", "south wind blows hard"),
            ("one two three", "four five six"),
        ]
        preds = write_jsonl(
            tmp_path / "p.jsonl",
            [{"id": str(i), "text": c} for i, (c, _) in enumerate(pairs)],
        )
        refs = write_jsonl(
            tmp_path / "r.jsonl",
            [{"id": str(i), "text": r} for i, (_, r) in enumerate(pairs)],
        )
        report = evaluate_run(preds, refs)
        for metric, scorer in (("rouge1", lambda c, r: oracle_rouge_n(c, r, 1)),
                               ("rougeL", oracle_rouge_l)):
            expected = sum(scorer(c, r).f1 for c, r in pairs) / len(pairs)
            assert report.means[metric].f1 == pytest.approx(expected, abs=1e-12)

    def test_multi_reference_rows(self, tmp_path):
        preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "the cat sat"}])
        refs = write_jsonl(
            tmp_path / "r.jsonl",
            [{"id": "a", "text": "dogs bark"}, {"id": "a", "text": "the cat sat"}],
        )
        report = evaluate_run(preds, refs)
        assert report.means["rouge1"].f1 == 1.0

    def test_id_mismatch_lists_offenders(self, tmp_path):
        preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}, {"id": "b", "text": "y"}])
        refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}, {"id": "c", "text": "z"}])
        with pytest.raises(RougeError) as excinfo:
            evaluate_run(preds, refs)
        assert "'b'" in str(excinfo.value)
        assert "'c'" in str(excinfo.value)

    def test_non_string_text_rejected_with_line(self, tmp_path):
        # a null text used to be scored as the string "None"
        preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "1", "text": None}])
        refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "1", "text": "None"}])
        with pytest.raises(CorpusError, match=re.escape(f"{preds}:1: 'text' must be a string")):
            evaluate_run(preds, refs)

    def test_malformed_json_is_corpus_error_with_line(self, tmp_path):
        preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "1", "text": "x"}])
        refs = tmp_path / "r.jsonl"
        refs.write_text('{"id": "1", "text": "x"}\n{broken\n')
        with pytest.raises(CorpusError, match=re.escape(f"{refs}:2: invalid JSON")):
            evaluate_run(preds, str(refs))

    def test_duplicate_prediction_ids_rejected(self, tmp_path):
        preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
        refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        with pytest.raises(RougeError, match="duplicate"):
            evaluate_run(preds, refs)

    def test_duplicate_check_on_large_file_names_only_the_repeat(self, tmp_path):
        # 30k ids: a list.count scan per id is quadratic and takes seconds at this size.
        records = [{"id": f"r{i}", "text": "w"} for i in range(30_000)]
        records.append({"id": "r12345", "text": "w"})
        preds = write_jsonl(tmp_path / "p.jsonl", records)
        refs = write_jsonl(tmp_path / "r.jsonl", records[:-1])
        with pytest.raises(RougeError) as excinfo:
            evaluate_run(preds, refs)
        assert str(excinfo.value) == "duplicate prediction ids: ['r12345']"

    def test_mean_row_id_rejected_as_prediction_id(self, tmp_path):
        # the report ends with a row of this id, so a prediction of it would write two
        records = [{"id": "a", "text": "x"}, {"id": "__mean__", "text": "y"}]
        preds = write_jsonl(tmp_path / "p.jsonl", records)
        refs = write_jsonl(tmp_path / "r.jsonl", records)
        with pytest.raises(RougeError, match="prediction id '__mean__' is reserved"):
            evaluate_run(preds, refs)

    def test_unique_ids_pass_duplicate_check(self, tmp_path):
        records = [{"id": f"r{i}", "text": f"word{i % 7} tail"} for i in range(2_000)]
        preds = write_jsonl(tmp_path / "p.jsonl", records)
        refs = write_jsonl(tmp_path / "r.jsonl", records[::-1])
        report = evaluate_run(preds, refs)
        assert [row["id"] for row in report.per_example] == [r["id"] for r in records]
        assert report.means["rougeL"].f1 == 1.0

    def test_report_formats(self, tmp_path):
        records = [{"id": "a", "text": "same text"}]
        preds = write_jsonl(tmp_path / "p.jsonl", records)
        refs = write_jsonl(tmp_path / "r.jsonl", records)
        report = evaluate_run(preds, refs)
        table = report.format_table()
        assert table.startswith("id\trouge1\trouge2\trougeL")
        assert table.endswith("mean\t1.0000\t1.0000\t1.0000")
        recall_table = report.format_table(recall_only=True)
        assert recall_table.endswith("mean\t1.0000\t1.0000\t1.0000")
        records_out = report.to_records()
        assert records_out[-1]["id"] == "__mean__"


def test_thousand_random_pairs_match_oracles_exactly():
    rng = random.Random(99)
    vocab = [f"tok{i}" for i in range(9)]
    for _ in range(1000):
        candidate = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        reference = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        for n in (1, 2):
            fast = rouge_n(candidate, reference, n)
            slow = oracle_rouge_n(candidate, reference, n)
            assert abs(fast.precision - slow.precision) <= 1e-12
            assert abs(fast.recall - slow.recall) <= 1e-12
            assert abs(fast.f1 - slow.f1) <= 1e-12
        fast_l = rouge_l(candidate, reference)
        slow_l = oracle_rouge_l(candidate, reference)
        assert abs(fast_l.precision - slow_l.precision) <= 1e-12
        assert abs(fast_l.recall - slow_l.recall) <= 1e-12
        assert abs(fast_l.f1 - slow_l.f1) <= 1e-12
