import threading
import time

import pytest

from qfs_forge.backends import MockBackend
from qfs_forge.corpus import FORMAT_TEMPLATE_STYLE, QUERY_FORMATS
from qfs_forge.prompts import default_spec
from qfs_forge.taxonomy import QueryType, classify_query
from qfs_forge.unify import (
    PromptedGenerator,
    UnifyError,
    template_fallback,
    unify_batch,
    unify_query,
)

NEWTS_WORDS = "snow, weather, cold, winter, temperatures, conditions, hot, morning, expected, parts"
DUC_INSTRUCTION = (
    "Describe the state of teaching art and music in public schools around the world."
)


class ListGenerator:
    def __init__(self, text, mode="wh"):
        self.text = text
        self.mode = mode

    def generate_query(self, document, pseudo_summary):
        return self.text


def mock_generator():
    return PromptedGenerator(MockBackend(seed=4), default_spec("news", "wh"))


class TestUnifyQuery:
    def test_unnumbered_generation_is_returned_stripped(self):
        gen = ListGenerator("  winter temperatures?\n")
        assert unify_query("doc", "winter temperatures", gen) == "winter temperatures?"

    def test_topic_words_give_single_nonempty_question(self):
        gen = ListGenerator("1. How cold will the winter morning be?")
        result = unify_query("An article about snowfall.", NEWTS_WORDS, gen)
        assert result == "How cold will the winter morning be?"

    def test_instruction_query_passes_through_unchanged_downstream(self):
        gen = ListGenerator("1. What is the state of art teaching in public schools?")
        result = unify_query("Art funding article.", DUC_INSTRUCTION, gen)
        assert result == "What is the state of art teaching in public schools?"

    def test_numbered_generation_resegments(self):
        gen = ListGenerator("Sure!\n1. What about snow?\n2. What about cold?")
        assert unify_query("doc", "snow. cold.", gen) == "What about snow?\nWhat about cold?"

    @pytest.mark.parametrize("numbered", ["01. What fell?", "\u0661. What fell?"])
    def test_numbering_is_read_as_annotate_reads_it(self, numbered):
        assert unify_query("doc", "q", ListGenerator(numbered)) == "What fell?"

    def test_non_contiguous_numbering_falls_back_verbatim(self):
        gen = ListGenerator("2. Second?\n3. Third?")
        assert unify_query("doc", "q", gen) == "2. Second?\n3. Third?"

    def test_overlong_line_number_is_not_numbering(self):
        gen = ListGenerator("1. What about snow?\n" + "1" * 4301 + ". What about cold?")
        assert unify_query("doc", "snow. cold.", gen) == "What about snow?"

    def test_yesno_generation_loses_its_answer_labels(self):
        gen = ListGenerator("1. No: Did snow fall?\n2. yes : Was it cold?", mode="yesno")
        assert unify_query("doc", "snow. cold.", gen) == "Did snow fall?\nWas it cold?"
        # the same lines read as wh questions keep the labels
        assert unify_query("doc", "snow. cold.", ListGenerator(gen.text)).startswith("No: ")

    def test_yesno_generation_of_a_bare_label_is_returned_verbatim(self):
        assert unify_query("doc", "q", ListGenerator("1. Yes:", mode="yesno")) == "1. Yes:"

    def test_empty_generation_errors(self):
        with pytest.raises(UnifyError):
            unify_query("doc", "query", ListGenerator("   "))

    def test_empty_inputs_error(self):
        with pytest.raises(UnifyError):
            unify_query("", "query", ListGenerator("What?"))
        with pytest.raises(UnifyError):
            unify_query("doc", "  ", ListGenerator("What?"))
        # held to the pair rules before the generator's pseudo-pair is built,
        # so the error names the argument and its value
        for document, raw_query, named in [
            ("Snow fell.", "2.", r"raw query must be .*, got '2\.'"),
            ("Snow fell.", "???", r"raw query must be .*, got '\?\?\?'"),
            ("\u2014 \u2026", "snow", "document must be .*, got '\u2014 \u2026'"),
        ]:
            with pytest.raises(UnifyError, match=named):
                unify_query(document, raw_query, mock_generator())

    def test_deterministic_with_mock(self):
        gen = mock_generator()
        first = unify_query("doc text", "raw query", gen)
        assert first == unify_query("doc text", "raw query", gen)

    def test_output_classifiable(self):
        for raw in (NEWTS_WORDS, DUC_INSTRUCTION, "is this fine"):
            out = unify_query("document body", raw, mock_generator())
            assert isinstance(classify_query(out), QueryType)


class TestPromptedGenerator:
    def test_uses_completion_backend_and_parses(self):
        out = unify_query(
            "Snow fell across the region overnight, closing schools.",
            "snow, weather, cold",
            mock_generator(),
        )
        assert out.endswith("?")
        assert classify_query(out) == QueryType.WHAT


class TestTemplateFallback:
    def test_newts_template_unfold(self):
        assert (
            template_fallback("snow is expected later", "newts")
            == "What does the article say about snow is expected later?"
        )

    def test_duc_identify_maps_to_what_are(self):
        assert (
            template_fallback("Identify computer viruses detected worldwide.", "duc")
            == "What are computer viruses detected worldwide?"
        )

    def test_duc_describe_maps_to_what_is(self):
        assert template_fallback("Describe the plan.", "duc") == "What is the plan?"

    def test_duc_discuss_maps_to_what_about(self):
        assert (
            template_fallback("Discuss conditions on reservations.", "duc")
            == "What about conditions on reservations?"
        )

    def test_duc_unknown_verb_passes_through_with_question_mark(self):
        assert (
            template_fallback("Outline the budget process.", "duc")
            == "Outline the budget process?"
        )

    def test_empty_raw_query_errors(self):
        with pytest.raises(UnifyError):
            template_fallback("  ", "newts")
        with pytest.raises(UnifyError):
            template_fallback("", "duc")

    def test_unknown_style_errors(self):
        with pytest.raises(UnifyError, match=r"^style must be one of \('newts', 'duc'\), got 'nyt'$"):
            template_fallback("x", "nyt")

    def test_duc_keeps_a_question_mark_and_ends_a_bare_query_with_one(self):
        assert template_fallback("Why did it rain?", "duc") == "Why did it rain?"
        assert template_fallback("Rain in Spain", "duc") == "Rain in Spain?"
        assert template_fallback("Wait..", "duc") == "Wait.?"


class TestUnifyBatch:
    def test_results_in_input_order_any_parallelism(self):
        docs = [f"document number {i} talks about topic {i}" for i in range(6)]
        raws = [f"topic {i}" for i in range(6)]
        serial = unify_batch(docs, raws, mock_generator(), parallelism=1)
        parallel = unify_batch(docs, raws, mock_generator(), parallelism=4)
        assert serial == parallel
        assert all(query.endswith(f" topic {i}?") for i, query in enumerate(serial))

    def test_a_non_integer_parallelism_is_refused_before_any_call(self):
        backend = MockBackend(seed=1)
        gen = PromptedGenerator(backend, default_spec("news", "wh"))
        with pytest.raises(ValueError, match="^parallelism must be an integer >= 1, got 2.5$"):
            unify_batch(["a b c", "d e f"], ["topic one.", "topic two."], gen, parallelism=2.5)
        assert backend.calls == 0

    def test_pairs_each_document_with_its_query(self):
        class Echo(ListGenerator):
            def generate_query(self, document, pseudo_summary):
                return f"1. Does {document} answer {pseudo_summary}"

        assert unify_batch(["doc a", "doc b"], ["q a.", "q b."], Echo("")) == [
            "Does doc a answer q a.", "Does doc b answer q b."
        ]

    def test_calls_the_generator_from_the_caller_alone_by_default(self):
        threads = set()

        class Recording(ListGenerator):
            def generate_query(self, document, pseudo_summary):
                threads.add(threading.current_thread())
                time.sleep(0.005)  # long enough for a helper thread to take a query
                return self.text

        unify_batch(["a b", "c d", "e f", "g h"], ["w.", "x.", "y.", "z."], Recording("1. Why?"))
        assert threads == {threading.current_thread()}

    def test_misaligned_inputs_error(self):
        with pytest.raises(UnifyError):
            unify_batch(["d"], [], ListGenerator("What?"))


def test_format_tags_cover_known_dataset_styles():
    # natural questions pass through; every other format has a template style
    assert "natural" in QUERY_FORMATS and "natural" not in FORMAT_TEMPLATE_STYLE
    for tag in ("words", "phrases", "sentence", "instruction"):
        assert tag in QUERY_FORMATS
        assert FORMAT_TEMPLATE_STYLE[tag] in ("newts", "duc")
