from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qfs_forge import annotate, corpus, prompts
from qfs_forge.annotate import (
    AnnotationOutcome,
    STATUS_BACKEND_ERROR,
    STATUS_OK,
    STATUS_PARSE_MISMATCH,
    annotate_corpus,
    annotate_pair,
    describe_outcomes,
    truncate_document,
)
from qfs_forge.backends import BackendError, MockBackend
from qfs_forge.corpus import (
    DocumentSummaryPair,
    InvariantError,
    QfsError,
    load_triplets,
    segment_sentences,
    write_triplets,
)
from qfs_forge.prompts import (
    ParseMismatchError,
    build_annotation_prompt,
    build_qfs_input,
    default_spec,
    parse_completion,
    repair_queries,
)
from qfs_forge.stats import corpus_stats
from qfs_forge.taxonomy import classify_query

WH_COMPLETION = (
    "1. Who was Tomas Medina Caracas?\n"
    "2. What was he indicted for?\n"
    "3. When was he indicted?\n"
    "4. How did he die?"
)
YESNO_COMPLETION = (
    "1. Yes: Was Tomas Medina Caracas a fugitive?\n"
    '2. No: Did "El Negro Acacio" help to fight against drug?\n'
    "3. Yes: Was he indicted by U.S. Justice Department?\n"
    "4. No: Is he still alive?"
)


class FailingBackend:
    name = "failing"

    def complete(self, prompt, params):
        raise BackendError("no backend today")


class OneQuestionBackend:
    """Answers every prompt with one numbered question, and keeps the prompts."""

    name = "one-question"

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return "1. What is told?"


class TestParseCompletion:
    def test_wh_completion_parses_verbatim(self):
        assert parse_completion(WH_COMPLETION, 4, "wh") == [
            "Who was Tomas Medina Caracas?",
            "What was he indicted for?",
            "When was he indicted?",
            "How did he die?",
        ]

    def test_yesno_completion_strips_answer_labels(self):
        assert parse_completion(YESNO_COMPLETION, 4, "yesno") == [
            "Was Tomas Medina Caracas a fugitive?",
            'Did "El Negro Acacio" help to fight against drug?',
            "Was he indicted by U.S. Justice Department?",
            "Is he still alive?",
        ]

    def test_single_yesno_line(self):
        assert parse_completion("1. Yes: Was Tomas Medina Caracas a fugitive?", 1, "yesno") == [
            "Was Tomas Medina Caracas a fugitive?"
        ]

    @pytest.mark.parametrize("line", ["1. Yes:", "1. no :", "1. Is A?\n2. No:"])
    def test_yesno_label_without_a_question_is_mismatch(self, line):
        with pytest.raises(ParseMismatchError, match="no question"):
            parse_completion(line, None, "yesno")

    def test_numbering_gap_is_mismatch(self):
        with pytest.raises(ParseMismatchError, match="contiguous"):
            parse_completion("1. Q1?\n3. Q3?", 2, "wh")

    def test_wrong_count_is_mismatch(self):
        with pytest.raises(ParseMismatchError, match="expected 3"):
            parse_completion("1. Q1?\n2. Q2?", 3, "wh")

    def test_surrounding_junk_lines_ignored(self):
        completion = "Here are the questions:\n1. Q1?\n2. Q2?\nThanks!"
        assert parse_completion(completion, 2, "wh") == ["Q1?", "Q2?"]

    def test_decimal_leading_lines_are_not_numbering(self):
        with pytest.raises(ParseMismatchError):
            parse_completion("1.5 million people?", 1, "wh")

    def test_relaxed_count_accepts_any_contiguous_list(self):
        assert parse_completion("1. A?\n2. B?\n3. C?", None) == ["A?", "B?", "C?"]

    def test_relaxed_still_requires_contiguity(self):
        with pytest.raises(ParseMismatchError):
            parse_completion("2. B?\n3. C?", None)

    def test_expected_count_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_completion("1. A?", 0)


class TestRepairQueries:
    def test_trims_extras(self):
        assert repair_queries("1. A?\n2. B?\n3. C?", ("s1", "s2"), "wh") == ["A?", "B?"]

    def test_pads_deficit_from_summary(self):
        summary = ("First thing.", "Second item here.", "The third one has six words.")
        repaired = repair_queries("1. A?", summary, "wh")
        assert repaired[0] == "A?"
        assert "Second item here" in repaired[1]
        assert repaired[1].endswith("?")
        # the topic is the sentence's first four words
        assert repaired[2] == "What does the text say about The third one has?"

    def test_drops_yesno_labels_without_a_question(self):
        repaired = repair_queries("1. Yes:\n2. No: Is B?", ("First.", "Second one."), "yesno")
        assert repaired == ["Is B?", "What does the text say about Second one?"]


class TestAnnotatePair:
    def make_pair(self, n_sentences=2):
        summary = "\n".join(f"Point number {i} stands." for i in range(1, n_sentences + 1))
        return DocumentSummaryPair(
            id="p1",
            document="A short document about points. It lists several of them.",
            summary=summary,
            domain="news",
        )

    def test_happy_path_single_attempt(self):
        pair = self.make_pair()
        backend = MockBackend(script=["1. What is point one?\n2. What is point two?"])
        outcome = annotate_pair(pair, default_spec("news", "wh"), backend)
        assert outcome.status == STATUS_OK
        assert outcome.attempts == 1
        assert outcome.triplet.queries == ("What is point one?", "What is point two?")
        assert outcome.triplet.query_types == ("what", "what")

    def test_retry_after_garbage(self):
        pair = self.make_pair()
        backend = MockBackend(script=["garbage", "1. Q one?\n2. Q two?"])
        outcome = annotate_pair(pair, default_spec("news", "wh"), backend, retries=1)
        assert outcome.status == STATUS_OK
        assert outcome.attempts == 2

    def test_exhaustion_keeps_raw_completion(self):
        pair = self.make_pair(n_sentences=3)
        backend = MockBackend(script=["1. only one?"] * 3)
        outcome = annotate_pair(pair, default_spec("news", "wh"), backend, retries=2)
        assert outcome.status == STATUS_PARSE_MISMATCH
        assert outcome.attempts == 3
        assert outcome.triplet is None
        assert outcome.raw_completion == "1. only one?"

    def test_overlong_line_number_is_a_parse_mismatch(self):
        # int() refuses more than 4300 digits; such a line is simply not numbered
        backend = MockBackend(script=["1" * 4301 + ". What is point one?"] * 3)
        outcome = annotate_pair(self.make_pair(1), default_spec("news", "wh"), backend, retries=2)
        assert outcome.status == STATUS_PARSE_MISMATCH
        assert outcome.attempts == 3

    def test_backend_error_status(self):
        pair = self.make_pair()
        outcome = annotate_pair(pair, default_spec("news", "wh"), FailingBackend(), retries=1)
        assert outcome.status == STATUS_BACKEND_ERROR
        assert outcome.attempts == 2

    def test_repair_mode_turns_mismatch_into_triplet(self):
        pair = self.make_pair(n_sentences=3)
        backend = MockBackend(script=["1. only one?"] * 3)
        outcome = annotate_pair(
            pair, default_spec("news", "wh"), backend, retries=2, failure_action="repair"
        )
        assert outcome.status == STATUS_OK
        assert len(outcome.triplet.queries) == 3

    @pytest.mark.parametrize("failure_action", ["drop", "repair"])
    def test_token_less_query_is_retried_as_a_mismatch(self, failure_action):
        backend = MockBackend(script=["1. ?\n2. What is point two?", "1. What is one?\n2. ?"])
        outcome = annotate_pair(
            self.make_pair(), default_spec("news", "wh"), backend, retries=1,
            failure_action=failure_action,
        )
        # repair keeps the numbered lines, so it cannot mend a token-less one either
        assert (outcome.status, outcome.attempts) == (STATUS_PARSE_MISMATCH, 2)

    def test_queries_normalized_to_question_marks(self):
        pair = self.make_pair()
        backend = MockBackend(script=["1. What is point one\n2. What is point two"])
        outcome = annotate_pair(pair, default_spec("news", "wh"), backend)
        assert all(q.endswith("?") for q in outcome.triplet.queries)

    def test_yesno_mode_classifies_stripped_queries(self):
        pair = self.make_pair()
        backend = MockBackend(script=["1. Yes: Is point one valid?\n2. No: Did point two fail?"])
        outcome = annotate_pair(pair, default_spec("news", "yesno"), backend)
        assert outcome.triplet.mode == "yesno"
        assert outcome.triplet.query_types == ("is_are_was_were", "do_does_did")

    def test_negative_retries_is_refused(self):
        backend = MockBackend(seed=1)
        with pytest.raises(ValueError, match="retries must be >= 0"):
            annotate_corpus([self.make_pair()], default_spec("news", "wh"), backend, retries=-1)
        assert backend.calls == 0

    @pytest.mark.parametrize("failure_action", ["Repair", "keep", ""])
    def test_unknown_failure_action_is_refused(self, failure_action):
        backend = MockBackend(script=["1. only one?"])
        with pytest.raises(ValueError, match="failure_action must be 'drop' or 'repair'"):
            annotate_pair(
                self.make_pair(), default_spec("news", "wh"), backend, retries=0,
                failure_action=failure_action,
            )
        assert backend.calls == 0

    def test_outcome_invariant_enforced(self):
        with pytest.raises(ValueError):
            AnnotationOutcome(status=STATUS_OK, triplet=None, attempts=1, raw_completion="")
        with pytest.raises(ValueError, match="unknown status 'repaired'"):
            AnnotationOutcome(status="repaired", triplet=None, attempts=1, raw_completion="")


class TestAnnotateCorpus:
    def make_pairs(self, n):
        return [
            DocumentSummaryPair(
                id=f"p{i}",
                document=f"Document {i} tells a story. It has an ending too.",
                summary=f"Story {i} is told.\nIts ending number {i} lands.",
                domain="news",
            )
            for i in range(n)
        ]

    def test_outcomes_in_input_order(self):
        pairs = self.make_pairs(10)
        outcomes = annotate_corpus(pairs, default_spec("news", "wh"), MockBackend(seed=1), parallelism=4)
        assert [o.triplet.id for o in outcomes] == [p.id for p in pairs]

    def test_parallelism_does_not_change_results(self):
        pairs = self.make_pairs(10)
        spec = default_spec("news", "wh")
        serial = annotate_corpus(pairs, spec, MockBackend(seed=2), parallelism=1)
        parallel = annotate_corpus(pairs, spec, MockBackend(seed=2), parallelism=8)
        assert serial == parallel

    def test_empty_corpus(self):
        assert annotate_corpus([], default_spec("news", "wh"), MockBackend()) == []

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"retries": -1}, "retries must be >= 0"),
            ({"max_document_tokens": 0}, "max_document_tokens must be >= 1"),
            ({"failure_action": "Repair"}, "failure_action must be 'drop' or 'repair'"),
        ],
    )
    def test_empty_corpus_checks_option_values(self, option, message):
        with pytest.raises(ValueError, match=message):
            annotate_corpus([], default_spec("news", "wh"), MockBackend(), **option)

    def test_summarize_outcomes_counts(self):
        pairs = self.make_pairs(3)
        spec = default_spec("news", "wh")
        backend = MockBackend(script=["junk"] * 9)  # every attempt fails to parse
        outcomes = annotate_corpus(pairs, spec, backend, parallelism=1, retries=2)
        assert describe_outcomes(outcomes) == "3 pairs: 0 ok, 3 parse_mismatch, 0 backend_error"
        assert describe_outcomes([]) == "0 pairs: 0 ok, 0 parse_mismatch, 0 backend_error"

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError):
            annotate_corpus([], default_spec("news", "wh"), MockBackend(), parallelism=0)

    def test_passes_annotate_pairs_options_through(self):
        # one summary sentence of two answered: retries=0 repairs at once, and
        # max_document_tokens=10 cuts each prompt's document before "ending too"
        pairs = [replace(p, document="Words " + p.document) for p in self.make_pairs(4)]
        spec = default_spec("news", "wh")
        options = dict(retries=0, failure_action="repair", max_document_tokens=10)
        corpus_backend, pair_backend = OneQuestionBackend(), OneQuestionBackend()
        outcomes = annotate_corpus(pairs, spec, corpus_backend, **options)
        assert outcomes == [annotate_pair(p, spec, pair_backend, **options) for p in pairs]
        assert corpus_backend.prompts == pair_backend.prompts
        assert [(o.status, o.attempts) for o in outcomes] == [(STATUS_OK, 1)] * 4
        assert [p for p in corpus_backend.prompts if "ending too" in p] == []

    def test_misspelled_option_is_a_type_error(self):
        pairs = self.make_pairs(2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'retry'"):
            annotate_corpus(pairs, default_spec("news", "wh"), MockBackend(seed=1), retry=0)

    def test_misspelled_option_is_a_type_error_on_an_empty_list(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'retry'"):
            annotate_corpus([], default_spec("news", "wh"), MockBackend(seed=1), retry=0)


class TestQfsInput:
    def test_renders_byte_exact(self):
        assert build_qfs_input("Q?", "D.") == "question:\n Q? \n context:\nD."

    def test_length_arithmetic(self):
        template = "question:\n {} \n context:\n{}"
        query, document = "What happened to the bridge?", "The bridge reopened."
        rendered = build_qfs_input(query, document)
        assert len(rendered) == len(template) - 4 + len(query) + len(document)

    def test_round_trip_extraction(self):
        query, document = "What happened?", "Something happened.\nThen more."
        rendered = build_qfs_input(query, document)
        # independent oracle: split on the literal delimiters
        head, _, doc_part = rendered.partition(" \n context:\n")
        assert doc_part == document
        assert head.startswith("question:\n ")
        assert head[len("question:\n "):] == query

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_qfs_input("", "doc")
        with pytest.raises(ValueError):
            build_qfs_input("q?", "   ")


@pytest.mark.parametrize("render", [build_qfs_input])
def test_blank_input_is_a_package_error(render):
    with pytest.raises(QfsError, match="document must be non-empty"):
        render("Q?", " ")


class TestTruncateDocument:
    def test_short_document_untouched(self):
        assert truncate_document("a b c", 10) == "a b c"

    def test_cuts_on_whole_token_boundary(self):
        text = "one two three four five"
        assert truncate_document(text, 3) == "one two three"

    def test_truncation_bounds_prompt_content(self):
        long_doc = " ".join(f"word{i}" for i in range(50))
        pair = DocumentSummaryPair(
            id="t", document=long_doc, summary="A sentence stands.", domain="news"
        )
        backend = MockBackend(seed=0)
        prompts = []

        class Spy:
            name = "spy"

            def complete(self, prompt, params):
                prompts.append(prompt)
                return backend.complete(prompt, params)

        outcome = annotate_pair(pair, default_spec("news", "wh"), Spy(), max_document_tokens=10)
        assert outcome.status == STATUS_OK
        assert "word9" in prompts[0]
        assert "word10" not in prompts[0]
        # the stored triplet keeps the full document
        assert outcome.triplet.document == long_doc


# Numbered lines a backend may return: token-less questions, bare answer
# labels, blanks, numbering gaps and extra lines.
_LINE = st.sampled_from(
    ["?", "—", "— …?", "Yes:", "No: ?", "Yes: Did it rain?", "What fell?", "Why", "2.", ""]
)
_COMPLETION = st.lists(
    st.tuples(st.sampled_from(["1. ", "2. ", "3. ", "", "\n"]), _LINE).map("".join), max_size=4
).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(
    completion=_COMPLETION,
    mode=st.sampled_from(["wh", "yesno"]),
    failure_action=st.sampled_from(["drop", "repair"]),
)
def test_no_completion_breaks_a_later_stage(tmp_path_factory, completion, mode, failure_action):
    pair = DocumentSummaryPair(
        id="p", document="Rain fell. Roads closed.", summary="Rain fell.\nRoads closed.",
        domain="news",
    )
    outcome = annotate_pair(
        pair, default_spec("news", mode), MockBackend(script=[completion]), retries=0,
        failure_action=failure_action,
    )
    path = str(tmp_path_factory.getbasetemp() / "garbage.jsonl")
    write_triplets([outcome.triplet] if outcome.ok else [], path)
    for triplet in load_triplets(path):
        corpus_stats([triplet])
        for query in triplet.queries:
            classify_query(query)


# A built pair keeps its summary sentences, and its triplet is built from them,
# so annotate segments no summary; a truncated prompt pair re-runs the pair contract.
@pytest.mark.parametrize("max_document_tokens, segmented", [(3000, 0), (3, 1)])
def test_annotate_segments_a_built_pair_once(monkeypatch, max_document_tokens, segmented):
    pair = DocumentSummaryPair(
        id="p", document="Rain fell on the town. Roads closed at noon.",
        summary="Rain fell.\nRoads closed.", domain="news",
    )
    calls = []

    def counting(text):
        calls.append(text)
        return segment_sentences(text)

    for module in (corpus, prompts, annotate):
        monkeypatch.setattr(module, "segment_sentences", counting, raising=False)
    outcome = annotate_pair(
        pair, default_spec("news", "wh"), MockBackend(seed=1),
        max_document_tokens=max_document_tokens,
    )
    assert outcome.ok
    assert calls == [pair.summary] * segmented


# Summary pieces that segmentation must treat alike in the pair and in the
# prompt: numbering, decimals, dashes, ellipses, answer labels and line breaks.
_SUMMARY = st.lists(
    st.sampled_from([
        "1.", "2)", "3.5", "10. ", "…", "—", "Yes:", "No: ", "\r", "\x85", "\r\n", "\n",
        " ", "  ", "Rain fell.", "roads", "closed!", "why?", "U.S.", "A", "\u2028",
    ]),
    max_size=12,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(summary=_SUMMARY, mode=st.sampled_from(["wh", "yesno"]))
def test_prompt_numbers_the_pairs_sentences(summary, mode):
    try:
        pair = DocumentSummaryPair(id="p", document="Rain fell.", summary=summary, domain="news")
    except InvariantError:
        reject()
    spec = default_spec("news", mode)
    prompt = build_annotation_prompt(pair, spec)
    assert tuple(prompts.target_sentences(prompt)) == pair.summary_sentences
    outcome = annotate_pair(pair, spec, MockBackend(seed=1), retries=0)
    assert outcome.status == STATUS_OK
