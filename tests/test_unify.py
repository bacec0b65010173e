import pytest

from qfs_forge.backends import MockBackend
from qfs_forge.prompts import default_spec
from qfs_forge.taxonomy import QueryType, classify_query
from qfs_forge.unify import (
    EchoGenerator,
    FORMAT_TEMPLATE_STYLE,
    QUERY_FORMATS,
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
    def __init__(self, text):
        self.text = text

    def generate_query(self, document, pseudo_summary):
        return self.text


class TestUnifyQuery:
    def test_mock_identity_appends_question_mark(self):
        assert unify_query("doc", "winter temperatures", EchoGenerator()) == "winter temperatures?"

    def test_topic_words_give_single_nonempty_question(self):
        result = unify_query("An article about snowfall.", NEWTS_WORDS, EchoGenerator())
        assert result
        assert result.endswith("?")

    def test_instruction_query_passes_through_unchanged_downstream(self):
        result = unify_query("Art funding article.", DUC_INSTRUCTION, EchoGenerator())
        assert result
        assert result.endswith("?")

    def test_numbered_generation_resegments(self):
        gen = ListGenerator("Sure!\n1. What about snow?\n2. What about cold?")
        assert unify_query("doc", "snow. cold.", gen) == "What about snow?\nWhat about cold?"

    def test_non_contiguous_numbering_falls_back_verbatim(self):
        gen = ListGenerator("2. Second?\n3. Third?")
        assert unify_query("doc", "q", gen) == "2. Second?\n3. Third?"

    def test_overlong_line_number_is_not_numbering(self):
        gen = ListGenerator("1. What about snow?\n" + "1" * 4301 + ". What about cold?")
        assert unify_query("doc", "snow. cold.", gen) == "What about snow?"

    def test_empty_generation_errors(self):
        with pytest.raises(UnifyError):
            unify_query("doc", "query", ListGenerator("   "))

    def test_empty_inputs_error(self):
        with pytest.raises(UnifyError):
            unify_query("", "query", EchoGenerator())
        with pytest.raises(UnifyError):
            unify_query("doc", "  ", EchoGenerator())

    def test_deterministic_with_mock(self):
        gen = EchoGenerator()
        first = unify_query("doc text", "raw query", gen)
        assert first == unify_query("doc text", "raw query", gen)

    def test_output_classifiable(self):
        for raw in (NEWTS_WORDS, DUC_INSTRUCTION, "is this fine"):
            out = unify_query("document body", raw, EchoGenerator())
            assert isinstance(classify_query(out), QueryType)


class TestPromptedGenerator:
    def test_uses_completion_backend_and_parses(self):
        generator = PromptedGenerator(MockBackend(seed=4), default_spec("news", "wh"))
        out = unify_query(
            "Snow fell across the region overnight, closing schools.",
            "snow, weather, cold",
            generator,
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
        with pytest.raises(UnifyError):
            template_fallback("x", "nyt")


class TestUnifyBatch:
    def test_results_in_input_order_any_parallelism(self):
        docs = [f"document number {i} talks about topic {i}" for i in range(6)]
        raws = [f"topic {i}" for i in range(6)]
        serial = unify_batch(docs, raws, EchoGenerator(), parallelism=1)
        parallel = unify_batch(docs, raws, EchoGenerator(), parallelism=4)
        assert serial == parallel == [f"topic {i}?" for i in range(6)]

    def test_misaligned_inputs_error(self):
        with pytest.raises(UnifyError):
            unify_batch(["d"], [], EchoGenerator())


def test_format_tags_cover_known_dataset_styles():
    # natural questions pass through; every other format has a template style
    assert "natural" in QUERY_FORMATS and "natural" not in FORMAT_TEMPLATE_STYLE
    for tag in ("words", "phrases", "sentence", "instruction"):
        assert tag in QUERY_FORMATS
        assert FORMAT_TEMPLATE_STYLE[tag] in ("newts", "duc")
