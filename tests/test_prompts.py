from pathlib import Path

import pytest

from qfs_forge.corpus import DocumentSummaryPair
from qfs_forge.prompts import (
    OneShotExample,
    PromptError,
    PromptLabels,
    WH_INSTRUCTION,
    YESNO_INSTRUCTION,
    build_annotation_prompt,
    builtin_example,
    default_spec,
    number_sentences,
    numbered_lines,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_TARGETS = {
    "news": DocumentSummaryPair(
        id="golden-news",
        document="The harbor bridge reopened on Friday after nine months of repairs. "
        "Engineers replaced forty support cables and repaved both decks. "
        "Tolls stay unchanged until spring.",
        summary="The harbor bridge reopened after nine months.\nTolls stay unchanged until spring.",
        domain="news",
    ),
    "dialogue": DocumentSummaryPair(
        id="golden-dialogue",
        document="Mia: can you bring the ladder tomorrow?\r\nNoah: sure, the tall one?\r\n"
        "Mia: yes, the gutters are clogged again\r\nNoah: ok, I'll come by at nine",
        summary="Noah will bring the tall ladder at nine.\nMia needs it because the gutters are clogged.",
        domain="dialogue",
    ),
}


class TestNumberSentences:
    def test_two_items(self):
        assert number_sentences(["A.", "B."]) == "1. A.\n2. B."

    def test_single_item(self):
        assert number_sentences(["Only one."]) == "1. Only one."

    def test_news_example_summary_numbers_to_four_lines(self):
        example = builtin_example("news", "wh")
        numbered = number_sentences(example.summary_sentences)
        lines = numbered.split("\n")
        assert len(lines) == 4
        assert lines[0] == (
            "1. Tomas Medina Caracas was a fugitive from a U.S. drug trafficking indictment."
        )

    def test_empty_list_errors(self):
        with pytest.raises(PromptError):
            number_sentences([])


class TestNumberedLines:
    def test_reads_back_number_sentences(self):
        sentences = ["The mayor spoke.", "Rates rose 1.5 percent.", "x"]
        assert numbered_lines(number_sentences(sentences)) == list(enumerate(sentences, start=1))

    def test_skips_unnumbered_and_decimal_lines_and_strips_text(self):
        text = (
            "Questions:\n  2.  Who won?  \n1.5 million voted\n3.\n10. Why?\n"
            "999999999. Most?\n1000000000. Too many digits?"
        )
        assert numbered_lines(text) == [(2, "Who won?"), (10, "Why?"), (999999999, "Most?")]


class TestOneShotExamples:
    def test_builtin_examples_align_queries_to_summaries(self):
        for domain in ("news", "dialogue"):
            for mode in ("wh", "yesno"):
                example = builtin_example(domain, mode)
                assert len(example.summary_sentences) == len(example.query_sentences)

    def test_yesno_queries_keep_answer_prefixes(self):
        example = builtin_example("news", "yesno")
        assert example.query_sentences[0] == "Yes: Was Tomas Medina Caracas a fugitive?"
        assert example.query_sentences[3] == "No: Is he still alive?"

    def test_mismatched_example_rejected(self):
        with pytest.raises(PromptError):
            OneShotExample(
                document="d",
                summary_sentences=("s1", "s2"),
                query_sentences=("q1",),
                domain="news",
                mode="wh",
            )

    def test_builtin_instruction_crossed_with_other_mode_rejected(self):
        from qfs_forge.prompts import PromptSpec

        with pytest.raises(PromptError, match="paired with"):
            PromptSpec(instruction=WH_INSTRUCTION, example=builtin_example("news", "yesno"))

    def test_custom_instruction_allowed_for_any_mode(self):
        spec = default_spec("news", "yesno", instruction="Ask binary questions.")
        assert spec.instruction == "Ask binary questions."


class TestBuildAnnotationPrompt:
    def test_wh_prompt_contains_wh_instruction(self):
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], default_spec("news", "wh"))
        assert WH_INSTRUCTION in prompt
        assert "write a general question about the article" in prompt

    def test_yesno_prompt_contains_binary_instruction(self):
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], default_spec("news", "yesno"))
        assert YESNO_INSTRUCTION in prompt
        assert "write a binary question about the article" in prompt

    def test_target_block_line_count_matches_summary_sentences(self):
        pair = DocumentSummaryPair(
            id="x",
            document="doc text here.",
            summary="One thing happened.\nAnother thing happened.\nA third thing happened.",
            domain="news",
        )
        prompt = build_annotation_prompt(pair, default_spec("news", "wh"))
        target_summary = prompt.rsplit("Summary:\n", 1)[1].rsplit("\n\nQuestions:", 1)[0]
        assert len(target_summary.split("\n")) == 3

    def test_domain_mismatch_rejected(self):
        with pytest.raises(PromptError, match="domain"):
            build_annotation_prompt(GOLDEN_TARGETS["dialogue"], default_spec("news", "wh"))

    def test_prompt_is_deterministic(self):
        spec = default_spec("dialogue", "wh")
        first = build_annotation_prompt(GOLDEN_TARGETS["dialogue"], spec)
        second = build_annotation_prompt(GOLDEN_TARGETS["dialogue"], spec)
        assert first == second

    def test_label_overrides_apply(self):
        labels = PromptLabels(document="Text:", summary="Points:", query="Asks:")
        spec = default_spec("news", "wh", labels=labels)
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], spec)
        assert "Text:\n" in prompt
        assert prompt.endswith("Asks:\n")
        assert "Article:" not in prompt

    @pytest.mark.parametrize("domain", ("news", "dialogue"))
    @pytest.mark.parametrize("mode", ("wh", "yesno"))
    def test_golden_files_byte_stable(self, domain, mode):
        prompt = build_annotation_prompt(GOLDEN_TARGETS[domain], default_spec(domain, mode))
        golden = (GOLDEN_DIR / f"prompt_{domain}_{mode}.txt").read_bytes()
        assert prompt.encode("utf-8") == golden
